package coverage_test

import (
	"fmt"
	"reflect"
	"testing"

	"dexlego/internal/art"
	"dexlego/internal/bytecode"
	"dexlego/internal/coverage"
	"dexlego/internal/dex"
	"dexlego/internal/dexgen"
)

func buildCovApp(t *testing.T) (*dex.File, *art.Runtime) {
	t.Helper()
	p := dexgen.New()
	cls := p.Class("Lcov/C;", "")
	cls.Static("f", "I", []string{"I"}, func(a *dexgen.Asm) {
		a.Label("ts")
		a.IfZ(bytecode.OpIfLtz, a.P(0), "neg")
		a.Const(0, 1)
		a.Label("te")
		a.Return(0)
		a.Label("neg")
		a.Const(0, -1)
		a.Return(0)
		a.Label("h")
		a.MoveException(1)
		a.Const(0, 9)
		a.Return(0)
		a.Catch("ts", "te", "Ljava/lang/ArithmeticException;", "h")
	})
	cls.Static("unused", "V", nil, func(a *dexgen.Asm) {
		a.Nop()
		a.ReturnVoid()
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rt := art.NewRuntime(art.DefaultPhone())
	if _, err := rt.LoadDex(f); err != nil {
		t.Fatal(err)
	}
	return f, rt
}

func TestTrackerAccumulation(t *testing.T) {
	f, rt := buildCovApp(t)
	tracker, err := coverage.NewTracker([]*dex.File{f})
	if err != nil {
		t.Fatal(err)
	}
	rt.AddHooks(tracker.Hooks())

	rep := tracker.Report()
	if rep.Method.Total != 2 || rep.Branch.Total != 2 {
		t.Fatalf("totals = %+v", rep)
	}
	if len(tracker.UncoveredBranches()) != 2 {
		t.Errorf("fresh tracker UCBs = %d, want 2", len(tracker.UncoveredBranches()))
	}
	if len(tracker.UncoveredHandlers()) != 1 {
		t.Errorf("fresh tracker handlers = %d, want 1", len(tracker.UncoveredHandlers()))
	}

	if _, err := rt.Call("Lcov/C;", "f", "(I)I", nil, []art.Value{art.IntVal(5)}); err != nil {
		t.Fatal(err)
	}
	rep = tracker.Report()
	if rep.Method.Covered != 1 {
		t.Errorf("methods covered = %d", rep.Method.Covered)
	}
	if rep.Branch.Covered != 1 {
		t.Errorf("branch edges covered = %d, want 1 (only not-taken)", rep.Branch.Covered)
	}
	// The other edge covers after a negative input; accumulation must
	// persist across runtimes.
	rt2 := art.NewRuntime(art.DefaultPhone())
	rt2.AddHooks(tracker.Hooks())
	if _, err := rt2.LoadDex(f); err != nil {
		t.Fatal(err)
	}
	if _, err := rt2.Call("Lcov/C;", "f", "(I)I", nil, []art.Value{art.IntVal(-5)}); err != nil {
		t.Fatal(err)
	}
	rep = tracker.Report()
	if rep.Branch.Covered != 2 {
		t.Errorf("branch edges covered = %d, want 2", rep.Branch.Covered)
	}
	if got := len(tracker.UncoveredBranches()); got != 0 {
		t.Errorf("UCBs after both edges = %d", got)
	}
	// The handler never executed.
	if got := len(tracker.UncoveredHandlers()); got != 1 {
		t.Errorf("uncovered handlers = %d, want 1", got)
	}
	// unused() never ran.
	if rep.Method.Covered != 1 || rep.Class.Covered != 1 {
		t.Errorf("coverage over-counts: %+v", rep)
	}
}

func TestRatioFormatting(t *testing.T) {
	r := coverage.Ratio{Covered: 3, Total: 12}
	if r.Percent() != 25 {
		t.Errorf("percent = %f", r.Percent())
	}
	if r.String() != "3/12 (25%)" {
		t.Errorf("string = %q", r.String())
	}
	if (coverage.Ratio{}).Percent() != 0 {
		t.Error("zero-total percent must be 0")
	}
}

func TestShardMerge(t *testing.T) {
	f, _ := buildCovApp(t)
	tracker, err := coverage.NewTracker([]*dex.File{f})
	if err != nil {
		t.Fatal(err)
	}

	// Two shards observe disjoint edges; the parent tracker sees nothing
	// until the barrier merge.
	run := func(shard *coverage.Tracker, arg int64) {
		rt := art.NewRuntime(art.DefaultPhone())
		rt.AddHooks(shard.Hooks())
		if _, err := rt.LoadDex(f); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Call("Lcov/C;", "f", "(I)I", nil, []art.Value{art.IntVal(arg)}); err != nil {
			t.Fatal(err)
		}
	}
	s1, s2 := tracker.Shard(), tracker.Shard()
	run(s1, 5)
	run(s2, -5)

	if got := tracker.Report().Branch.Covered; got != 0 {
		t.Fatalf("parent saw shard coverage before merge: %d edges", got)
	}
	if s1.Report().Branch.Covered != 1 || s2.Report().Branch.Covered != 1 {
		t.Fatalf("shard reports wrong: %+v / %+v", s1.Report(), s2.Report())
	}
	// Shards share totals by reference, not copy.
	if s1.Report().Branch.Total != tracker.Report().Branch.Total {
		t.Error("shard totals diverge from parent")
	}

	tracker.Merge(s1)
	tracker.Merge(s2)
	tracker.Merge(nil) // no-op
	rep := tracker.Report()
	if rep.Branch.Covered != 2 || rep.Method.Covered != 1 || rep.Class.Covered != 1 {
		t.Errorf("merged coverage = %+v", rep)
	}
	if got := len(tracker.UncoveredBranches()); got != 0 {
		t.Errorf("UCBs after merge = %d", got)
	}

	// Merge is idempotent and order-insensitive: merging again or in the
	// other order changes nothing.
	tracker2, err := coverage.NewTracker([]*dex.File{f})
	if err != nil {
		t.Fatal(err)
	}
	tracker2.Merge(s2)
	tracker2.Merge(s1)
	tracker2.Merge(s1)
	if tracker2.Report() != rep {
		t.Errorf("merge order changed report: %+v vs %+v", tracker2.Report(), rep)
	}
}

// TestUncoveredHandlersDeterministicOrder: two try ranges sharing one catch
// handler tie on (Method, HandlerPC), so the order must fall back to the
// try start and type — the same on every fresh tracker.
func TestUncoveredHandlersDeterministicOrder(t *testing.T) {
	p := dexgen.New()
	p.Class("Lcov/H;", "").Static("g", "I", []string{"I"}, func(a *dexgen.Asm) {
		a.Label("t1")
		a.Const(0, 1)
		a.Label("t1e")
		a.Const(1, 2)
		a.Label("t2")
		a.Const(0, 3)
		a.Label("t2e")
		a.Return(0)
		a.Label("h")
		a.MoveException(1)
		a.Return(0)
		a.Catch("t2", "t2e", "Ljava/lang/ArithmeticException;", "h")
		a.Catch("t1", "t1e", "Ljava/lang/ArithmeticException;", "h")
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var first []coverage.HandlerSite
	for i := 0; i < 50; i++ {
		tracker, err := coverage.NewTracker([]*dex.File{f})
		if err != nil {
			t.Fatal(err)
		}
		got := tracker.UncoveredHandlers()
		if i == 0 {
			first = got
			if len(got) != 2 || got[0].HandlerPC != got[1].HandlerPC || got[0].TryStart >= got[1].TryStart {
				t.Fatalf("handler sites = %+v, want two sites on one handler in try-start order", got)
			}
			continue
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("tracker %d order %+v differs from %+v", i, got, first)
		}
	}
}

// TestHooksAllocFree: once the executing method has been resolved, the
// instruction and branch hooks only set bits.
func TestHooksAllocFree(t *testing.T) {
	f, rt := buildCovApp(t)
	tracker, err := coverage.NewTracker([]*dex.File{f})
	if err != nil {
		t.Fatal(err)
	}
	cls, err := rt.FindClass("Lcov/C;")
	if err != nil {
		t.Fatal(err)
	}
	m := cls.FindMethod("f", "(I)I")
	h := tracker.Hooks()
	var in bytecode.Inst
	allocs := testing.AllocsPerRun(1000, func() {
		h.Instruction(m, 0, m.Insns, &in)
		h.Branch(m, 0, in, true)
		h.Branch(m, 0, in, false)
	})
	if allocs != 0 {
		t.Errorf("hooks allocate %.1f times per step", allocs)
	}
	if rep := tracker.Report(); rep.Instruction.Covered != 1 || rep.Branch.Covered != 2 {
		t.Errorf("direct hook calls recorded %+v", rep)
	}
}

// TestMergeAnyOrderEqualsOneTracker: shards of individual runs, merged in
// any order, equal one tracker that observed every run itself.
func TestMergeAnyOrderEqualsOneTracker(t *testing.T) {
	f, _ := buildCovApp(t)
	newTracker := func() *coverage.Tracker {
		tr, err := coverage.NewTracker([]*dex.File{f})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	calls := []struct {
		name string
		arg  int64
	}{{"f", 5}, {"f", -5}, {"unused", 0}}
	run := func(tr *coverage.Tracker, i int) {
		rt := art.NewRuntime(art.DefaultPhone())
		rt.AddHooks(tr.Hooks())
		if _, err := rt.LoadDex(f); err != nil {
			t.Fatal(err)
		}
		c := calls[i]
		sig, args := "()V", []art.Value(nil)
		if c.name == "f" {
			sig, args = "(I)I", []art.Value{art.IntVal(c.arg)}
		}
		if _, err := rt.Call("Lcov/C;", c.name, sig, nil, args); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := func(tr *coverage.Tracker) string {
		return fmt.Sprint(tr.Report(), tr.UncoveredBranches(), tr.UncoveredHandlers())
	}

	whole := newTracker()
	for i := range calls {
		run(whole, i)
	}
	want := snapshot(whole)

	for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		base := newTracker()
		shards := make([]*coverage.Tracker, len(calls))
		for i := range calls {
			shards[i] = base.Shard()
			run(shards[i], i)
		}
		for _, i := range order {
			base.Merge(shards[i])
		}
		if got := snapshot(base); got != want {
			t.Errorf("merge order %v:\n got %s\nwant %s", order, got, want)
		}
	}
}

// TestMethodInTwoDexFilesUnionsTotals: a class and method key defined in two
// DEX files count once, with the union of both definitions' instructions.
func TestMethodInTwoDexFilesUnionsTotals(t *testing.T) {
	build := func(body func(a *dexgen.Asm), extra bool) *dex.File {
		p := dexgen.New()
		cls := p.Class("Lcov/D;", "")
		cls.Static("f", "V", nil, body)
		if extra {
			cls.Static("g", "V", nil, func(a *dexgen.Asm) { a.ReturnVoid() })
		}
		f, err := p.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	// a's f: five nops and a return, starts {0..5}. b's f: const/16 at 0,
	// if-eqz at 2, return at 4. Union: six starts over two lines, one
	// branch; g adds one instruction and line.
	a := build(func(a *dexgen.Asm) {
		for i := 0; i < 5; i++ {
			a.Nop()
		}
		a.ReturnVoid()
	}, false)
	b := build(func(a *dexgen.Asm) {
		a.Const(0, 1000)
		a.IfZ(bytecode.OpIfEqz, 0, "end")
		a.Label("end")
		a.ReturnVoid()
	}, true)
	bOnly, err := coverage.NewTracker([]*dex.File{b})
	if err != nil {
		t.Fatal(err)
	}
	if got := bOnly.Report().Instruction.Total; got != 4 {
		t.Fatalf("b alone has %d instructions, want 4 (const/16, if-eqz, two returns)", got)
	}
	tracker, err := coverage.NewTracker([]*dex.File{a, b})
	if err != nil {
		t.Fatal(err)
	}
	want := coverage.Report{
		Class:       coverage.Ratio{Total: 1},
		Method:      coverage.Ratio{Total: 2},
		Line:        coverage.Ratio{Total: 3},
		Branch:      coverage.Ratio{Total: 2},
		Instruction: coverage.Ratio{Total: 7},
	}
	if rep := tracker.Report(); rep != want {
		t.Errorf("union totals = %+v, want %+v", rep, want)
	}
}

// TestCodeOutsideTotalsIgnored: a class loaded through DexClassLoader, and a
// method whose live code was rewritten so that it executes at pcs that are
// not static instruction starts, leave the report unchanged.
func TestCodeOutsideTotalsIgnored(t *testing.T) {
	payload := dexgen.New()
	payload.Class("Ldyn/P;", "").Static("magic", "I", nil, func(a *dexgen.Asm) {
		a.Const(0, 7)
		a.IfZ(bytecode.OpIfEqz, 0, "end")
		a.Label("end")
		a.Return(0)
	})
	payloadBytes, err := payload.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	p := dexgen.New()
	cls := p.Class("Lcov/T;", "")
	cls.Native("tamper", "V")
	// body: const at 0 (three units), return at 3.
	cls.Static("body", "I", nil, func(a *dexgen.Asm) {
		a.Const(0, 100000)
		a.Return(0)
	})
	cls.Static("load", "V", nil, func(a *dexgen.Asm) {
		a.NewInstance(0, "Ldalvik/system/DexClassLoader;")
		a.ConstString(1, "payload.dex")
		a.InvokeDirect("Ldalvik/system/DexClassLoader;", "<init>", "(Ljava/lang/String;)V", 0, 1)
		a.ReturnVoid()
	})
	pkg, err := p.BuildAPK("cov.t", "1.0", "Lcov/T;")
	if err != nil {
		t.Fatal(err)
	}
	pkg.AddAsset("payload.dex", payloadBytes)
	data, err := pkg.Dex()
	if err != nil {
		t.Fatal(err)
	}
	f, err := dex.Read(data)
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := coverage.NewTracker([]*dex.File{f})
	if err != nil {
		t.Fatal(err)
	}

	rt := art.NewRuntime(art.DefaultPhone())
	rt.RegisterNative("Lcov/T;->tamper()V", func(env *art.Env, _ *art.Object, _ []art.Value) (art.Value, error) {
		return art.Value{}, env.TamperMethod("Lcov/T;", "body", func(insns []uint16) []uint16 {
			if len(insns) != 4 {
				t.Fatalf("body has %d code units, want 4", len(insns))
			}
			// nop at 0; if-eqz v0, +2 at 1 (not a static start); return at 3.
			return []uint16{0x0000, 0x0038, 0x0002, 0x000f}
		})
	})
	rt.AddHooks(tracker.Hooks())
	tampered := false // body executed at pc 1
	rt.AddHooks(&art.Hooks{Instruction: func(m *art.Method, pc int, _ []uint16, _ *bytecode.Inst) {
		tampered = tampered || m.Name == "body" && pc == 1
	}})
	if err := rt.LoadAPK(pkg); err != nil {
		t.Fatal(err)
	}
	call := func(name, sig string) {
		t.Helper()
		if _, err := rt.Call("Lcov/T;", name, sig, nil, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	call("body", "()I")
	call("load", "()V")
	call("tamper", "()V")
	want := tracker.Report()
	if want.Instruction.Covered != 6 || want.Branch.Total != 0 {
		t.Fatalf("baseline coverage = %+v, want body's and load's 6 instructions, no branch", want)
	}

	call("body", "()I") // tampered: runs pcs 0, 1 (a branch) and 3
	if _, err := rt.Call("Ldyn/P;", "magic", "()I", nil, nil); err != nil {
		t.Fatal(err)
	}
	if !tampered {
		t.Fatal("the tampered body never executed at pc 1")
	}
	if got := tracker.Report(); got != want {
		t.Errorf("code outside the static totals changed the report:\n got %+v\nwant %+v", got, want)
	}
}

func BenchmarkTrackerInstruction(b *testing.B) {
	p := dexgen.New()
	p.Class("Lcov/B;", "").Static("f", "V", nil, func(a *dexgen.Asm) {
		for i := 0; i < 63; i++ {
			a.Nop()
		}
		a.ReturnVoid()
	})
	f, err := p.Finish()
	if err != nil {
		b.Fatal(err)
	}
	rt := art.NewRuntime(art.DefaultPhone())
	if _, err := rt.LoadDex(f); err != nil {
		b.Fatal(err)
	}
	cls, err := rt.FindClass("Lcov/B;")
	if err != nil {
		b.Fatal(err)
	}
	m := cls.FindMethod("f", "()V")
	tracker, err := coverage.NewTracker([]*dex.File{f})
	if err != nil {
		b.Fatal(err)
	}
	hook := tracker.Hooks().Instruction
	var in bytecode.Inst
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hook(m, i&63, m.Insns, &in)
	}
}
