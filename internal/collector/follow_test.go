package collector_test

import (
	"bytes"
	"slices"
	"sort"
	"testing"

	root "dexlego"
	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/bytecode"
	"dexlego/internal/collector"
	"dexlego/internal/coverage"
	"dexlego/internal/dex"
	"dexlego/internal/dexgen"
	"dexlego/internal/droidbench"
	"dexlego/internal/forceexec"
	"dexlego/internal/obs"
	"dexlego/internal/workload"
)

// pkgOf packs a generated program into an APK.
func pkgOf(t *testing.T, p *dexgen.Program) *apk.APK {
	t.Helper()
	data, err := p.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	pkg := apk.New("follow", "1", "")
	pkg.SetDex(data)
	return pkg
}

// runtimeFor loads pkg into a fresh runtime observed by col.
func runtimeFor(t *testing.T, pkg *apk.APK, natives map[string]art.NativeFunc, col *collector.Collector) *art.Runtime {
	t.Helper()
	rt := art.NewRuntime(art.DefaultPhone())
	for k, fn := range natives {
		rt.RegisterNative(k, fn)
	}
	rt.AddHooks(col.Hooks())
	if err := rt.LoadAPK(pkg); err != nil {
		t.Fatal(err)
	}
	return rt
}

// callInt calls the static method cls.name(I)I once per argument, on a
// fresh runtime observed by col.
func callInt(t *testing.T, pkg *apk.APK, natives map[string]art.NativeFunc, col *collector.Collector, cls, name string, args ...int64) {
	t.Helper()
	rt := runtimeFor(t, pkg, natives, col)
	for _, a := range args {
		if _, err := rt.Call(cls, name, "(I)I", nil, []art.Value{art.IntVal(a)}); err != nil {
			t.Fatal(err)
		}
	}
}

// fps returns the sorted tree fingerprints of one method in res.
func fps(res *collector.Result, key string) []string {
	rec := res.Methods[key]
	if rec == nil {
		return nil
	}
	var out []string
	for _, tr := range rec.Trees {
		out = append(out, tr.Fingerprint())
	}
	sort.Strings(out)
	return out
}

// TestShardRecordsNothingForKnownExecution: a shard re-running an
// execution its parent already holds records no tree, Merge still counts
// the followed trees as offered (and none as kept), and the whole follow
// cycle — entry, every instruction, steady-state repeats, exit — allocates
// nothing.
func TestShardRecordsNothingForKnownExecution(t *testing.T) {
	p := dexgen.New()
	cls := p.Class("Lf/F;", "")
	cls.Static("inc", "I", []string{"I"}, func(a *dexgen.Asm) {
		a.AddLit(0, a.P(0), 1)
		a.Return(0)
	})
	cls.Static("sum", "I", []string{"I"}, func(a *dexgen.Asm) {
		a.ConstString(2, "label")
		a.Const(0, 0)
		a.Const(1, 0)
		a.Label("loop")
		a.If(bytecode.OpIfGe, 1, a.P(0), "done")
		a.InvokeStatic("Lf/F;", "inc", "(I)I", 0)
		a.MoveResult(0)
		a.AddLit(1, 1, 1)
		a.Goto("loop")
		a.Label("done")
		a.Return(0)
	})
	pkg := pkgOf(t, p)
	const sum, inc = "Lf/F;->sum(I)I", "Lf/F;->inc(I)I"

	parent := collector.New()
	callInt(t, pkg, nil, parent, "Lf/F;", "sum", 5)
	known := parent.Result().Methods[sum]
	if known == nil || len(known.Trees) != 1 {
		t.Fatalf("parent record for %s: %+v", sum, known)
	}

	shard := parent.Shard()
	callInt(t, pkg, nil, shard, "Lf/F;", "sum", 5, 5)
	for _, key := range []string{sum, inc} {
		if rec := shard.Result().Methods[key]; rec == nil || rec.Executed() {
			t.Errorf("shard record for %s = %+v, want present with no trees", key, rec)
		}
	}
	if st := parent.Merge(shard); st.TreesOffered != 2 || st.TreesKept != 0 {
		t.Errorf("merge stats %+v, want 2 offered (sum, inc), 0 kept", st)
	}

	// Drive the hooks directly with the known execution's instructions.
	shard = parent.Shard()
	rt := runtimeFor(t, pkg, nil, shard)
	c, err := rt.FindClass("Lf/F;")
	if err != nil {
		t.Fatal(err)
	}
	m := c.FindMethod("sum", "(I)I")
	tree := known.Trees[0]
	pcs := make([]int, len(tree.IL))
	insts := make([]bytecode.Inst, len(tree.IL))
	for i, e := range tree.IL {
		pcs[i], insts[i] = e.DexPC, e.Inst.Clone()
	}
	h := shard.Hooks()
	allocs := testing.AllocsPerRun(100, func() {
		h.MethodEntered(m)
		for pass := 0; pass < 2; pass++ { // first sight, then the dedup path
			for i := range insts {
				h.Instruction(m, pcs[i], m.Insns, &insts[i])
			}
		}
		h.MethodExited(m)
	})
	if allocs != 0 {
		t.Errorf("following a known execution allocates %.1f times per run, want 0", allocs)
	}
	if shard.Result().Methods[sum].Executed() {
		t.Error("hook-driven known execution recorded a tree")
	}
}

// TestShardFollowChecksSymbols: an execution whose instructions equal a
// known tree's but whose constant-pool operand resolves to a different
// symbol (a different DEX behind the same index) is a different execution.
func TestShardFollowChecksSymbols(t *testing.T) {
	build := func(s string) *apk.APK {
		p := dexgen.New()
		p.Class("Ls/S;", "").Static("name", "I", []string{"I"}, func(a *dexgen.Asm) {
			a.ConstString(0, s)
			a.Const(1, 0)
			a.Return(1)
		})
		return pkgOf(t, p)
	}
	const key = "Ls/S;->name(I)I"
	// "x1" and "x2" sort to the same string index in their files.
	one, two := build("x1"), build("x2")

	parent := collector.New()
	callInt(t, one, nil, parent, "Ls/S;", "name", 0)
	shard := parent.Shard()
	callInt(t, two, nil, shard, "Ls/S;", "name", 0)
	fresh := collector.New()
	callInt(t, two, nil, fresh, "Ls/S;", "name", 0)

	pt, ft := parent.Result().Methods[key].Trees[0], fresh.Result().Methods[key].Trees[0]
	if !pt.IL[0].Inst.Equal(ft.IL[0].Inst) {
		t.Fatal("the two files do not share the const-string index; the test proves nothing")
	}
	if got, want := fps(shard.Result(), key), fps(fresh.Result(), key); !slices.Equal(got, want) {
		t.Errorf("shard kept %d trees, want the fresh collection's %d", len(got), len(want))
	}
	if st := parent.Merge(shard); st.TreesKept != 1 {
		t.Errorf("merge kept %d trees, want 1 (the other symbol)", st.TreesKept)
	}
}

// TestShardDivergenceMatchesFresh: an execution that follows a known tree
// and then leaves it mid-method yields exactly the tree a fresh collector
// builds for it.
func TestShardDivergenceMatchesFresh(t *testing.T) {
	p := dexgen.New()
	p.Class("Ld/D;", "").Static("pick", "I", []string{"I"}, func(a *dexgen.Asm) {
		a.Const(1, 10)
		a.IfZ(bytecode.OpIfEqz, a.P(0), "zero")
		a.ConstString(2, "nonzero")
		a.Const(1, 20)
		a.Label("zero")
		a.AddLit(0, 1, 3)
		a.Return(0)
	})
	pkg := pkgOf(t, p)
	const key = "Ld/D;->pick(I)I"

	parent := collector.New()
	callInt(t, pkg, nil, parent, "Ld/D;", "pick", 0)
	shard := parent.Shard()
	callInt(t, pkg, nil, shard, "Ld/D;", "pick", 1)
	fresh := collector.New()
	callInt(t, pkg, nil, fresh, "Ld/D;", "pick", 1)

	got, want := fps(shard.Result(), key), fps(fresh.Result(), key)
	if len(want) != 1 || !slices.Equal(got, want) {
		t.Fatalf("diverged shard trees %q, want the fresh collection's %q", got, want)
	}
	if st := parent.Merge(shard); st.TreesOffered != 1 || st.TreesKept != 1 {
		t.Errorf("merge stats %+v, want 1 offered, 1 kept", st)
	}

	// An execution that ends inside a known tree (here: an uncaught
	// exception) is a prefix, not a match.
	p = dexgen.New()
	p.Class("Ld/Q;", "").Static("div", "I", []string{"I"}, func(a *dexgen.Asm) {
		a.Const(1, 10)
		a.Binop(bytecode.OpDivInt, 0, 1, a.P(0))
		a.AddLit(0, 0, 1)
		a.Return(0)
	})
	pkg = pkgOf(t, p)
	const div = "Ld/Q;->div(I)I"
	parent = collector.New()
	callInt(t, pkg, nil, parent, "Ld/Q;", "div", 2)
	shard, fresh = parent.Shard(), collector.New()
	for _, col := range []*collector.Collector{shard, fresh} {
		rt := runtimeFor(t, pkg, nil, col)
		if _, err := rt.Call("Ld/Q;", "div", "(I)I", nil, []art.Value{art.IntVal(0)}); err == nil {
			t.Fatal("div(0) did not throw")
		}
	}
	got, want = fps(shard.Result(), div), fps(fresh.Result(), div)
	if len(want) != 1 || !slices.Equal(got, want) {
		t.Fatalf("early-exit shard trees %d, want the fresh collection's %d", len(got), len(want))
	}
	if st := parent.Merge(shard); st.TreesKept != 1 {
		t.Errorf("early exit: merge kept %d trees, want 1", st.TreesKept)
	}
}

// TestShardSwitchesBetweenKnownTrees: two known trees share a prefix; an
// execution that starts on the first and continues like the second
// switches candidates instead of building a tree.
func TestShardSwitchesBetweenKnownTrees(t *testing.T) {
	p := dexgen.New()
	p.Class("Lw/W;", "").Static("tail", "I", []string{"I"}, func(a *dexgen.Asm) {
		a.Const(1, 1)
		a.AddLit(1, 1, 1)
		a.IfZ(bytecode.OpIfEqz, a.P(0), "a")
		a.Const(0, 7)
		a.Return(0)
		a.Label("a")
		a.Const(0, 8)
		a.Return(0)
	})
	pkg := pkgOf(t, p)
	const key = "Lw/W;->tail(I)I"

	parent := collector.New()
	callInt(t, pkg, nil, parent, "Lw/W;", "tail", 0, 1)
	if n := len(parent.Result().Methods[key].Trees); n != 2 {
		t.Fatalf("parent holds %d trees, want 2", n)
	}
	for _, arg := range []int64{1, 0} {
		shard := parent.Shard()
		callInt(t, pkg, nil, shard, "Lw/W;", "tail", arg)
		if rec := shard.Result().Methods[key]; rec.Executed() {
			t.Errorf("tail(%d): shard built %d trees, want 0 (a known tree)", arg, len(rec.Trees))
		}
		if st := parent.Merge(shard); st.TreesOffered != 1 || st.TreesKept != 0 {
			t.Errorf("tail(%d): merge stats %+v, want 1 offered, 0 kept", arg, st)
		}
	}
}

// TestShardForkedRunEqualsFresh: self-modifying executions never follow.
// A tampering run under a parent that holds the plain tree forks exactly
// as a fresh collection does, and a plain run under a parent that holds
// only the forked tree is a new tree, although its IL equals the forked
// tree's root IL.
func TestShardForkedRunEqualsFresh(t *testing.T) {
	p := dexgen.New()
	cls := p.Class("Lx/M;", "")
	cls.Native("step", "V", "I")
	cls.Static("h", "I", []string{"I"}, func(a *dexgen.Asm) {
		a.Const(3, 0) // i
		a.Const(2, 0) // acc
		a.Label("loop")
		a.Const(4, 2)
		a.If(bytecode.OpIfGe, 3, 4, "end")
		a.BinopLit8(bytecode.OpAddIntLit8, 2, 2, 1) // rewritten by step when tampering
		a.InvokeStatic("Lx/M;", "step", "(I)V", 3)
		a.AddLit(3, 3, 1)
		a.Goto("loop")
		a.Label("end")
		a.Return(2)
	})
	pkg := pkgOf(t, p)
	const key = "Lx/M;->h(I)I"
	natives := func(tamper bool) map[string]art.NativeFunc {
		return map[string]art.NativeFunc{
			"Lx/M;->step(I)V": func(env *art.Env, recv *art.Object, args []art.Value) (art.Value, error) {
				if !tamper {
					return art.Value{}, nil
				}
				return art.Value{}, env.TamperMethod("Lx/M;", "h", func(insns []uint16) []uint16 {
					for pc := 0; pc < len(insns); {
						in, w, err := bytecode.Decode(insns, pc)
						if err != nil {
							return nil
						}
						if in.Op == bytecode.OpAddIntLit8 && in.A == 2 {
							in.Lit = 5
							units, err := bytecode.Encode(&in)
							if err == nil {
								copy(insns[pc:], units)
							}
							return nil
						}
						pc += w
					}
					return nil
				})
			},
		}
	}
	for _, tc := range []struct {
		name           string
		parent, shardT bool
	}{
		{"plain-then-forked", false, true},
		{"forked-then-plain", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parent := collector.New()
			callInt(t, pkg, natives(tc.parent), parent, "Lx/M;", "h", 0)
			shard := parent.Shard()
			callInt(t, pkg, natives(tc.shardT), shard, "Lx/M;", "h", 0)
			fresh := collector.New()
			callInt(t, pkg, natives(tc.shardT), fresh, "Lx/M;", "h", 0)

			got, want := fps(shard.Result(), key), fps(fresh.Result(), key)
			if len(want) != 1 || !slices.Equal(got, want) {
				t.Fatalf("shard trees %d, want the fresh collection's %d", len(got), len(want))
			}
			if st := parent.Merge(shard); st.TreesKept != 1 {
				t.Errorf("merge kept %d trees, want 1", st.TreesKept)
			}
			var forked, plain int
			for _, tr := range parent.Result().Methods[key].Trees {
				if len(tr.Children) > 0 {
					forked++
				} else {
					plain++
				}
			}
			if forked != 1 || plain != 1 {
				t.Errorf("merged record holds %d forked and %d plain trees, want 1 and 1", forked, plain)
			}
		})
	}

	// The self-modifying corpus samples across fuzzed runs: shards that
	// follow the parent merge to the same result as independent collectors.
	for _, name := range []string{"SelfModifying1", "SelfModifying2"} {
		t.Run(name, func(t *testing.T) {
			s := droidbench.ByName(name)
			pkg, err := s.Build()
			if err != nil {
				t.Fatal(err)
			}
			const runs = 6
			indep := collector.New().Result()
			for run := 0; run < runs; run++ {
				col := collector.New()
				collectRun(t, s, pkg, col, run)
				indep.Merge(col.Result())
			}
			parent := collector.New()
			collectRun(t, s, pkg, parent, 0)
			for run := 1; run < runs; run++ {
				shard := parent.Shard()
				collectRun(t, s, pkg, shard, run)
				parent.Merge(shard)
			}
			if canonicalJSON(t, parent.Result()) != canonicalJSON(t, indep) {
				t.Error("following shards diverge from independent collection")
			}
		})
	}
}

// TestShardFollowsRecursion: every frame of a recursive method follows on
// its own cursor, and an outer frame that leaves the known trees builds
// while the inner frames still follow.
func TestShardFollowsRecursion(t *testing.T) {
	p := dexgen.New()
	p.Class("Lr/R;", "").Static("rec", "I", []string{"I"}, func(a *dexgen.Asm) {
		a.IfZ(bytecode.OpIfLez, a.P(0), "base")
		a.AddLit(0, a.P(0), -1)
		a.InvokeStatic("Lr/R;", "rec", "(I)I", 0)
		a.MoveResult(0)
		a.AddLit(0, 0, 1)
		a.Return(0)
		a.Label("base")
		a.Const(0, 0)
		a.Return(0)
	})
	pkg := pkgOf(t, p)
	const key = "Lr/R;->rec(I)I"

	// Parent knows both shapes: the shard's deeper recursion matches them.
	parent := collector.New()
	callInt(t, pkg, nil, parent, "Lr/R;", "rec", 2)
	shard := parent.Shard()
	callInt(t, pkg, nil, shard, "Lr/R;", "rec", 4)
	if rec := shard.Result().Methods[key]; rec.Executed() {
		t.Errorf("recursive known execution built %d trees, want 0", len(rec.Trees))
	}
	if st := parent.Merge(shard); st.TreesOffered != 2 || st.TreesKept != 0 {
		t.Errorf("merge stats %+v, want 2 offered, 0 kept", st)
	}

	// Parent knows only the base case: outer frames build, the innermost
	// follows.
	parent = collector.New()
	callInt(t, pkg, nil, parent, "Lr/R;", "rec", 0)
	shard = parent.Shard()
	callInt(t, pkg, nil, shard, "Lr/R;", "rec", 3)
	fresh := collector.New()
	callInt(t, pkg, nil, fresh, "Lr/R;", "rec", 3)
	if st := parent.Merge(shard); st.TreesOffered != 2 || st.TreesKept != 1 {
		t.Errorf("merge stats %+v, want 2 offered, 1 kept", st)
	}
	if got, want := fps(parent.Result(), key), fps(fresh.Result(), key); !slices.Equal(got, want) {
		t.Errorf("merged trees %d, want the fresh collection's %d", len(got), len(want))
	}
}

// TestWorkerMergeStatsPinned pins the summed worker_merge offered and kept
// counts of swiftp's forced campaign at one and two workers. They equal the
// counts of the shards that rebuilt every tree: following known trees
// changes what a shard records, not what it is credited with offering.
// Forced runs the engine skips as repeats of a base run or of the baseline
// offer nothing; the base runs, which each certify at least one task here,
// offer their trees. The baseline collects into the parent directly and
// certifies iteration 0, so it offers nothing and that iteration runs no
// base run.
func TestWorkerMergeStatsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("forced campaign")
	}
	const wantOffered, wantKept = 844, 60
	apps, err := workload.FDroidApps()
	if err != nil {
		t.Fatal(err)
	}
	var app *workload.FDroidApp
	for i := range apps {
		if apps[i].Package == "be.ppareit.swiftp" {
			app = &apps[i]
		}
	}
	if app == nil {
		t.Fatal("swiftp missing from the F-Droid slice")
	}
	for _, workers := range []int{1, 2} {
		raw, err := app.APK.Dex()
		if err != nil {
			t.Fatal(err)
		}
		f, err := dex.Read(raw)
		if err != nil {
			t.Fatal(err)
		}
		files := []*dex.File{f}
		tracker, err := coverage.NewTracker(files)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		tr := obs.New(obs.NewJSONLSink(&buf))
		sp := tr.Start("reveal", app.Package)
		eng := forceexec.New(app.APK, files)
		eng.InstallNatives = func(rt *art.Runtime) {
			for key, fn := range app.Natives {
				rt.RegisterNative(key, fn)
			}
		}
		eng.Driver = root.DefaultDriver
		eng.Workers = workers
		eng.Collector = collector.New()
		eng.Span = sp
		if _, err := eng.Run(tracker); err != nil {
			t.Fatal(err)
		}
		sp.End()
		trace, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		a := trace.Apps()[0]
		offered, kept := a.ShardTreesKept+a.ShardDedupHits, a.ShardTreesKept
		if offered != wantOffered || kept != wantKept {
			t.Errorf("workers=%d: worker_merge offered %d, kept %d; want %d, %d",
				workers, offered, kept, wantOffered, wantKept)
		}
	}
}
