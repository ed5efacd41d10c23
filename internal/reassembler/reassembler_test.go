package reassembler_test

import (
	"bytes"
	"strings"
	"testing"

	"dexlego/internal/apimodel"
	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/bytecode"
	"dexlego/internal/collector"
	"dexlego/internal/dex"
	"dexlego/internal/dexgen"
	"dexlego/internal/reassembler"
)

// collectApp loads the APK under collection, runs drive, and returns the
// collection result.
func collectApp(t *testing.T, pkg *apk.APK, natives map[string]art.NativeFunc, drive func(rt *art.Runtime)) *collector.Result {
	t.Helper()
	rt := art.NewRuntime(art.DefaultPhone())
	for key, fn := range natives {
		rt.RegisterNative(key, fn)
	}
	col := collector.New()
	rt.AddHooks(col.Hooks())
	if err := rt.LoadAPK(pkg); err != nil {
		t.Fatal(err)
	}
	drive(rt)
	return col.Result()
}

// revealAndReload reassembles and loads the revealed APK in a fresh runtime.
func revealAndReload(t *testing.T, pkg *apk.APK, res *collector.Result, natives map[string]art.NativeFunc) (*art.Runtime, *apk.APK, *dex.File) {
	t.Helper()
	revealed, _, err := reassembler.ReassembleAPK(pkg, res)
	if err != nil {
		t.Fatal(err)
	}
	data, err := revealed.Dex()
	if err != nil {
		t.Fatal(err)
	}
	f, err := dex.Read(data)
	if err != nil {
		t.Fatalf("revealed dex does not parse: %v", err)
	}
	rt := art.NewRuntime(art.DefaultPhone())
	for key, fn := range natives {
		rt.RegisterNative(key, fn)
	}
	if err := rt.LoadAPK(revealed); err != nil {
		t.Fatalf("revealed dex does not reload: %v", err)
	}
	return rt, revealed, f
}

func launch(t *testing.T, rt *art.Runtime) {
	t.Helper()
	if _, err := rt.LaunchActivity(); err != nil {
		t.Fatal(err)
	}
}

func buildSimpleLeakAPK(t *testing.T) *apk.APK {
	t.Helper()
	p := dexgen.New()
	main := p.Class("Lsimple/Main;", "Landroid/app/Activity;")
	main.Ctor("Landroid/app/Activity;", nil)
	main.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.GetIMEI(0, 1)
		a.LogLeak("t", 0, 2)
		a.ReturnVoid()
	})
	pkg, err := p.BuildAPK("simple", "1.0", "Lsimple/Main;")
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func TestRoundTripPreservesBehavior(t *testing.T) {
	pkg := buildSimpleLeakAPK(t)
	res := collectApp(t, pkg, nil, func(rt *art.Runtime) { launch(t, rt) })
	rt2, _, f := revealAndReload(t, pkg, res, nil)
	launch(t, rt2)
	sinks := rt2.Sinks()
	if len(sinks) != 1 || !sinks[0].Taint.Has(apimodel.TaintIMEI) {
		t.Fatalf("revealed app sinks = %+v", sinks)
	}
	if f.FindClass("Lsimple/Main;") == nil {
		t.Error("revealed dex lacks main class")
	}
}

// buildSelfModAPK reproduces Code 1 and returns the APK plus the tamper
// native.
func buildSelfModAPK(t *testing.T) (*apk.APK, map[string]art.NativeFunc) {
	t.Helper()
	p := dexgen.New()
	main := p.Class("Lcom/test/Main;", "Landroid/app/Activity;")
	main.Ctor("Landroid/app/Activity;", nil)
	main.Bodyless("bytecodeTamper", "V", []string{"I"}, dex.AccPublic|dex.AccNative)
	main.Virtual("getSensitiveData", "Ljava/lang/String;", nil, func(a *dexgen.Asm) {
		a.GetIMEI(0, 1)
		a.ReturnObj(0)
	})
	main.Virtual("normal", "V", []string{"Ljava/lang/String;"}, func(a *dexgen.Asm) {
		a.ReturnVoid()
	})
	main.Virtual("sink", "V", []string{"Ljava/lang/String;"}, func(a *dexgen.Asm) {
		a.SendSMS("800-123-456", a.P(0), 0)
		a.ReturnVoid()
	})
	main.Virtual("advancedLeak", "V", nil, func(a *dexgen.Asm) {
		a.InvokeVirtual("Lcom/test/Main;", "getSensitiveData", "()Ljava/lang/String;", a.This())
		a.MoveResultObject(0)
		a.Const(1, 0)
		a.Label("loop")
		a.Const(2, 2)
		a.If(bytecode.OpIfGe, 1, 2, "end")
		a.InvokeVirtual("Lcom/test/Main;", "normal", "(Ljava/lang/String;)V", a.This(), 0)
		a.InvokeVirtual("Lcom/test/Main;", "bytecodeTamper", "(I)V", a.This(), 1)
		a.AddLit(1, 1, 1)
		a.Goto("loop")
		a.Label("end")
		a.ReturnVoid()
	})
	main.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.InvokeVirtual("Lcom/test/Main;", "advancedLeak", "()V", a.This())
		a.ReturnVoid()
	})
	pkg, err := p.BuildAPK("com.test", "1.0", "Lcom/test/Main;")
	if err != nil {
		t.Fatal(err)
	}
	tamper := func(env *art.Env, recv *art.Object, args []art.Value) (art.Value, error) {
		i := args[0].Int
		return art.Value{}, env.TamperMethod("Lcom/test/Main;", "advancedLeak",
			func(insns []uint16) []uint16 {
				f := env.Runtime().LoadedDexes()[0]
				findIdx := func(name string) uint16 {
					for mi := range f.Methods {
						if f.MethodAt(uint32(mi)).Name == name {
							return uint16(mi)
						}
					}
					t.Fatalf("no method %s", name)
					return 0
				}
				for pc := 0; pc < len(insns); {
					in, w, err := bytecode.Decode(insns, pc)
					if err != nil {
						t.Fatalf("tamper decode: %v", err)
					}
					if in.Op == bytecode.OpInvokeVirtual {
						name := f.MethodAt(in.Index).Name
						if i == 0 && name == "normal" {
							insns[pc+1] = findIdx("sink")
							return nil
						}
						if i == 1 && name == "sink" {
							insns[pc+1] = findIdx("normal")
							return nil
						}
					}
					pc += w
					if pw, ok := bytecode.PayloadAt(insns, pc); ok {
						pc += pw
					}
				}
				return nil
			})
	}
	return pkg, map[string]art.NativeFunc{"Lcom/test/Main;->bytecodeTamper(I)V": tamper}
}

// TestSelfModifyingReassembly is the paper's core scenario: the revealed DEX
// must statically contain BOTH the normal() and sink() calls inside
// advancedLeak, connected by the instrument-class branch, so the taint flow
// is visible to static analysis.
func TestSelfModifyingReassembly(t *testing.T) {
	pkg, natives := buildSelfModAPK(t)
	res := collectApp(t, pkg, natives, func(rt *art.Runtime) { launch(t, rt) })

	rec := res.Methods["Lcom/test/Main;->advancedLeak()V"]
	if rec == nil || len(rec.Trees) != 1 {
		t.Fatalf("advancedLeak record = %+v", rec)
	}
	tree := rec.Trees[0]
	if len(tree.Children) != 1 {
		t.Fatalf("tree children = %d, want 1 divergence layer", len(tree.Children))
	}
	child := tree.Children[0]
	if len(child.IL) != 1 {
		t.Errorf("divergence IL size = %d, want 1 (just the sink call)", len(child.IL))
	}
	if child.SmEnd < 0 {
		t.Error("divergence never converged")
	}

	_, _, f := revealAndReload(t, pkg, res, natives)
	em := f.FindMethod("Lcom/test/Main;", "advancedLeak", "()V")
	if em == nil {
		t.Fatal("revealed advancedLeak missing")
	}
	prog := bytecode.Predecode(em.Code.Insns)
	placed := prog.Insts()
	if err := prog.Err(); err != nil {
		t.Fatal(err)
	}
	var calls []string
	usesInstrument := false
	for _, p := range placed {
		if p.Inst.Op.IsInvoke() {
			calls = append(calls, f.MethodAt(p.Inst.Index).Name)
		}
		if p.Inst.Op == bytecode.OpSGetBoolean &&
			f.FieldAt(p.Inst.Index).Class == reassembler.InstrumentClass {
			usesInstrument = true
		}
	}
	joined := strings.Join(calls, ",")
	if !strings.Contains(joined, "normal") || !strings.Contains(joined, "sink") {
		t.Errorf("revealed calls = %v, want both normal and sink", calls)
	}
	if !usesInstrument {
		t.Error("no instrument-class branch in revealed method")
	}
	if f.FindClass(reassembler.InstrumentClass) == nil {
		t.Error("instrument class missing from revealed dex")
	}
}

func TestDeadCodeElimination(t *testing.T) {
	p := dexgen.New()
	main := p.Class("Ldead/Main;", "Landroid/app/Activity;")
	main.Ctor("Landroid/app/Activity;", nil)
	// The sink call sits behind a branch that never executes.
	main.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.GetIMEI(0, 1)
		a.Const(2, 0)
		a.IfZ(bytecode.OpIfEqz, 2, "skip")
		a.LogLeak("dead", 0, 3)
		a.Label("skip")
		a.ReturnVoid()
	})
	// An entire method that is never called.
	main.Virtual("neverCalled", "V", nil, func(a *dexgen.Asm) {
		a.GetIMEI(0, 1)
		a.LogLeak("dead2", 0, 2)
		a.ReturnVoid()
	})
	pkg, err := p.BuildAPK("dead", "1.0", "Ldead/Main;")
	if err != nil {
		t.Fatal(err)
	}
	res := collectApp(t, pkg, nil, func(rt *art.Runtime) { launch(t, rt) })
	_, _, f := revealAndReload(t, pkg, res, nil)

	for _, name := range []string{"onCreate", "neverCalled"} {
		em := f.FindMethod("Ldead/Main;", name, "")
		if em == nil {
			t.Fatalf("revealed %s missing", name)
		}
		prog := bytecode.Predecode(em.Code.Insns)
		placed := prog.Insts()
		if err := prog.Err(); err != nil {
			t.Fatal(err)
		}
		for _, pl := range placed {
			if pl.Inst.Op.IsInvoke() &&
				f.MethodAt(pl.Inst.Index).Class == "Landroid/util/Log;" {
				t.Errorf("%s: dead Log call survived reassembly", name)
			}
		}
	}
}

func TestReflectionRewriting(t *testing.T) {
	p := dexgen.New()
	main := p.Class("Lrefl/Main;", "Landroid/app/Activity;")
	main.Ctor("Landroid/app/Activity;", nil)
	main.Virtual("secretSource", "Ljava/lang/String;", nil, func(a *dexgen.Asm) {
		a.GetIMEI(0, 1)
		a.ReturnObj(0)
	})
	main.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		// Build the class name from pieces so it is not a constant string.
		a.ConstString(0, "refl.")
		a.ConstString(1, "Main")
		a.InvokeVirtual("Ljava/lang/String;", "concat",
			"(Ljava/lang/String;)Ljava/lang/String;", 0, 1)
		a.MoveResultObject(0)
		a.InvokeStatic("Ljava/lang/Class;", "forName",
			"(Ljava/lang/String;)Ljava/lang/Class;", 0)
		a.MoveResultObject(0)
		a.ConstString(1, "secretSource")
		a.InvokeVirtual("Ljava/lang/Class;", "getMethod",
			"(Ljava/lang/String;)Ljava/lang/reflect/Method;", 0, 1)
		a.MoveResultObject(1)
		a.Const(2, 0)
		a.InvokeVirtual("Ljava/lang/reflect/Method;", "invoke",
			"(Ljava/lang/Object;[Ljava/lang/Object;)Ljava/lang/Object;", 1, a.This(), 2)
		a.MoveResultObject(3)
		a.CheckCast(3, "Ljava/lang/String;")
		a.LogLeak("refl", 3, 4)
		a.ReturnVoid()
	})
	pkg, err := p.BuildAPK("refl", "1.0", "Lrefl/Main;")
	if err != nil {
		t.Fatal(err)
	}
	res := collectApp(t, pkg, nil, func(rt *art.Runtime) { launch(t, rt) })
	rec := res.Methods["Lrefl/Main;->onCreate(Landroid/os/Bundle;)V"]
	if rec == nil || len(rec.ReflTargets) != 1 {
		t.Fatalf("refl targets = %+v", rec)
	}

	rt2, _, f := revealAndReload(t, pkg, res, nil)
	// The bridge class must exist and carry a direct call to secretSource.
	bridge := f.FindClass(reassembler.BridgeClass)
	if bridge == nil {
		t.Fatal("bridge class missing")
	}
	foundDirect := false
	for _, em := range bridge.DirectMeths {
		if em.Code == nil {
			continue
		}
		prog := bytecode.Predecode(em.Code.Insns)
		placed := prog.Insts()
		if err := prog.Err(); err != nil {
			t.Fatal(err)
		}
		for _, pl := range placed {
			if pl.Inst.Op.IsInvoke() && f.MethodAt(pl.Inst.Index).Name == "secretSource" {
				foundDirect = true
			}
		}
	}
	if !foundDirect {
		t.Error("no direct call to secretSource in bridge")
	}
	// Behavior preserved: re-executing the revealed app still leaks.
	launch(t, rt2)
	sinks := rt2.Sinks()
	if len(sinks) != 1 || !sinks[0].Taint.Has(apimodel.TaintIMEI) {
		t.Fatalf("revealed reflective app sinks = %+v", sinks)
	}
}

func TestBranchUnionMerging(t *testing.T) {
	p := dexgen.New()
	cls := p.Class("Lbr/B;", "")
	cls.Static("pick", "I", []string{"I"}, func(a *dexgen.Asm) {
		a.IfZ(bytecode.OpIfNez, a.P(0), "pos")
		a.Const(0, 100)
		a.Return(0)
		a.Label("pos")
		a.Const(0, 200)
		a.Return(0)
	})
	f0, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	data, err := f0.Write()
	if err != nil {
		t.Fatal(err)
	}
	pkg := apk.New("br", "1", "")
	pkg.SetDex(data)

	rt := art.NewRuntime(art.DefaultPhone())
	col := collector.New()
	rt.AddHooks(col.Hooks())
	if err := rt.LoadAPK(pkg); err != nil {
		t.Fatal(err)
	}
	// Execute both sides: two trees collected, but they must union-merge
	// into one method body, not two variants.
	for _, v := range []int64{0, 1} {
		if _, err := rt.Call("Lbr/B;", "pick", "(I)I", nil, []art.Value{art.IntVal(v)}); err != nil {
			t.Fatal(err)
		}
	}
	res := col.Result()
	if got := len(res.Methods["Lbr/B;->pick(I)I"].Trees); got != 2 {
		t.Fatalf("unique trees = %d, want 2", got)
	}
	f, stats, err := reassembler.Reassemble(res)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Variants != 0 {
		t.Errorf("variants = %d, want 0 (union merge)", stats.Variants)
	}
	// Reloaded method must compute both sides correctly.
	rt2 := art.NewRuntime(art.DefaultPhone())
	if _, err := rt2.LoadDex(f); err != nil {
		t.Fatal(err)
	}
	for in, want := range map[int64]int64{0: 100, 5: 200} {
		res, err := rt2.Call("Lbr/B;", "pick", "(I)I", nil, []art.Value{art.IntVal(in)})
		if err != nil || res.Int != want {
			t.Errorf("revealed pick(%d) = %v, %v; want %d", in, res, err, want)
		}
	}
}

// collectSafeDiv builds Ltc/T;->safe(I)I, which returns 100/x and -7 from
// an ArithmeticException handler, calls it with each of args under
// collection, and reassembles what ran.
func collectSafeDiv(t *testing.T, args ...int64) *dex.File {
	t.Helper()
	p := dexgen.New()
	cls := p.Class("Ltc/T;", "")
	cls.Method(dexgen.MethodSpec{Name: "safe", Ret: "I", Params: []string{"I"}, Static: true}, func(a *dexgen.Asm) {
		a.Label("ts")
		a.Const(0, 100)
		a.Binop(bytecode.OpDivInt, 0, 0, a.P(0))
		a.Label("te")
		a.Return(0)
		a.Label("h")
		a.MoveException(1)
		a.Const(0, -7)
		a.Return(0)
		a.Catch("ts", "te", "Ljava/lang/ArithmeticException;", "h")
	})
	f0, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	data, err := f0.Write()
	if err != nil {
		t.Fatal(err)
	}
	pkg := apk.New("tc", "1", "")
	pkg.SetDex(data)

	rt := art.NewRuntime(art.DefaultPhone())
	col := collector.New()
	rt.AddHooks(col.Hooks())
	if err := rt.LoadAPK(pkg); err != nil {
		t.Fatal(err)
	}
	for _, v := range args {
		if _, err := rt.Call("Ltc/T;", "safe", "(I)I", nil, []art.Value{art.IntVal(v)}); err != nil {
			t.Fatal(err)
		}
	}
	f, _, err := reassembler.Reassemble(col.Result())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestTryCatchSurvivesReassembly(t *testing.T) {
	// Execute both the normal and the exceptional path.
	f := collectSafeDiv(t, 4, 0)
	em := f.FindMethod("Ltc/T;", "safe", "(I)I")
	if em == nil || len(em.Code.Tries) == 0 {
		t.Fatal("try table lost in reassembly")
	}
	rt2 := art.NewRuntime(art.DefaultPhone())
	if _, err := rt2.LoadDex(f); err != nil {
		t.Fatal(err)
	}
	for in, want := range map[int64]int64{4: 25, 0: -7} {
		res, err := rt2.Call("Ltc/T;", "safe", "(I)I", nil, []art.Value{art.IntVal(in)})
		if err != nil || res.Int != want {
			t.Errorf("revealed safe(%d) = %v, %v; want %d", in, res, err, want)
		}
	}
}

// TestNeverRunHandlerDropsTry pins the order in which a body's try table is
// built: a handler that never ran resolves to a label allocated after
// assembly, which must stay unbound so the try is dropped. Building the
// table from a reused assembler would bind that label to the body's first
// instruction and keep a try whose handler is the method entry.
func TestNeverRunHandlerDropsTry(t *testing.T) {
	f := collectSafeDiv(t, 4)
	em := f.FindMethod("Ltc/T;", "safe", "(I)I")
	if em == nil || em.Code == nil {
		t.Fatal("safe lost in reassembly")
	}
	if len(em.Code.Tries) != 0 {
		t.Errorf("tries = %+v, want none: the only handler never ran", em.Code.Tries)
	}
	data, err := f.Write()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := dex.Read(data)
	if err != nil {
		t.Fatal(err)
	}
	if errs := dex.Verify(parsed); len(errs) > 0 {
		t.Errorf("revealed dex fails verification: %v", errs)
	}
	rt := art.NewRuntime(art.DefaultPhone())
	if _, err := rt.LoadDex(parsed); err != nil {
		t.Fatal(err)
	}
	if res, err := rt.Call("Ltc/T;", "safe", "(I)I", nil, []art.Value{art.IntVal(4)}); err != nil || res.Int != 25 {
		t.Errorf("revealed safe(4) = %v, %v; want 25", res, err)
	}
}

func TestCollectionFilesRoundTrip(t *testing.T) {
	pkg, natives := buildSelfModAPK(t)
	res := collectApp(t, pkg, natives, func(rt *art.Runtime) { launch(t, rt) })
	dir := t.TempDir()
	if err := res.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	res2, err := collector.ReadFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Classes) != len(res.Classes) {
		t.Errorf("classes = %d, want %d", len(res2.Classes), len(res.Classes))
	}
	if len(res2.Methods) != len(res.Methods) {
		t.Errorf("methods = %d, want %d", len(res2.Methods), len(res.Methods))
	}
	// The reloaded result reassembles to the same bytes, with the
	// dual-path advancedLeak.
	f, _, err := reassembler.Reassemble(res2)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := reassembler.Reassemble(res)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := want.Write()
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := f.Write()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Errorf("reloaded result reassembles to %d bytes that differ from the original's %d", len(gotBytes), len(wantBytes))
	}
	em := f.FindMethod("Lcom/test/Main;", "advancedLeak", "()V")
	if em == nil {
		t.Fatal("advancedLeak missing after file round trip")
	}
	prog := bytecode.Predecode(em.Code.Insns)
	placed := prog.Insts()
	if err := prog.Err(); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, pl := range placed {
		if pl.Inst.Op.IsInvoke() {
			names[f.MethodAt(pl.Inst.Index).Name] = true
		}
	}
	if !names["normal"] || !names["sink"] {
		t.Errorf("calls after file round trip = %v", names)
	}
}

func TestStaticValuesPreserved(t *testing.T) {
	p := dexgen.New()
	main := p.Class("Lsv/Main;", "Landroid/app/Activity;")
	main.StaticString("PHONE", "800-123-456")
	main.StaticInt("LIMIT", 99)
	main.Ctor("Landroid/app/Activity;", nil)
	main.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.SGetObject(0, "Lsv/Main;", "PHONE", "Ljava/lang/String;")
		a.LogLeak("sv", 0, 1)
		a.ReturnVoid()
	})
	pkg, err := p.BuildAPK("sv", "1.0", "Lsv/Main;")
	if err != nil {
		t.Fatal(err)
	}
	res := collectApp(t, pkg, nil, func(rt *art.Runtime) { launch(t, rt) })
	_, _, f := revealAndReload(t, pkg, res, nil)
	cd := f.FindClass("Lsv/Main;")
	if cd == nil {
		t.Fatal("class missing")
	}
	found := map[string]bool{}
	for i, ef := range cd.StaticFields {
		ref := f.FieldAt(ef.Field)
		v := cd.StaticValues[i]
		switch ref.Name {
		case "PHONE":
			if v.Kind == dex.ValueString && f.String(v.Index) == "800-123-456" {
				found["PHONE"] = true
			}
		case "LIMIT":
			if v.Int == 99 {
				found["LIMIT"] = true
			}
		}
	}
	if !found["PHONE"] || !found["LIMIT"] {
		t.Errorf("static values not preserved: %v", found)
	}
}
