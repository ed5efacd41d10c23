package art_test

import (
	"errors"
	"strings"
	"testing"

	"dexlego/internal/apimodel"
	"dexlego/internal/art"
	"dexlego/internal/bytecode"
	"dexlego/internal/dex"
	"dexlego/internal/dexgen"
)

// buildLeakApp builds an activity that reads the IMEI and logs it.
func buildLeakApp(t *testing.T) *art.Runtime {
	t.Helper()
	p := dexgen.New()
	main := p.Class("Lcom/leak/Main;", "Landroid/app/Activity;")
	main.Ctor("Landroid/app/Activity;", nil)
	main.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.GetIMEI(0, 1)
		a.LogLeak("LEAK", 0, 2)
		a.ReturnVoid()
	})
	pkg, err := p.BuildAPK("com.leak", "1.0", "Lcom/leak/Main;")
	if err != nil {
		t.Fatal(err)
	}
	rt := art.NewRuntime(art.DefaultPhone())
	if err := rt.LoadAPK(pkg); err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestLaunchLeakApp(t *testing.T) {
	rt := buildLeakApp(t)
	if _, err := rt.LaunchActivity(); err != nil {
		t.Fatal(err)
	}
	sinks := rt.Sinks()
	if len(sinks) != 1 {
		t.Fatalf("got %d sink events, want 1", len(sinks))
	}
	ev := sinks[0]
	if ev.Sink != apimodel.SinkLog {
		t.Errorf("sink kind = %v", ev.Sink)
	}
	if !ev.Taint.Has(apimodel.TaintIMEI) {
		t.Errorf("sink taint = %v, want IMEI", ev.Taint)
	}
	if !ev.Leaky() {
		t.Error("event should be leaky")
	}
	if ev.Caller != "Lcom/leak/Main;->onCreate(Landroid/os/Bundle;)V" {
		t.Errorf("caller = %q", ev.Caller)
	}
	if len(ev.Args) != 2 || ev.Args[1] != art.DefaultPhone().IMEI {
		t.Errorf("args = %v", ev.Args)
	}
}

func TestArithmeticAndLoops(t *testing.T) {
	p := dexgen.New()
	cls := p.Class("Lcalc/C;", "")
	// sum of 0..n-1
	cls.Static("sum", "I", []string{"I"}, func(a *dexgen.Asm) {
		a.Const(0, 0) // acc
		a.Const(1, 0) // i
		a.Label("loop")
		a.If(bytecode.OpIfGe, 1, a.P(0), "done")
		a.Binop(bytecode.OpAddInt, 0, 0, 1)
		a.AddLit(1, 1, 1)
		a.Goto("loop")
		a.Label("done")
		a.Return(0)
	})
	cls.Static("mixed", "I", []string{"I", "I"}, func(a *dexgen.Asm) {
		a.Binop(bytecode.OpMulInt, 0, a.P(0), a.P(1))
		a.Binop(bytecode.OpXorInt, 0, 0, a.P(0))
		a.BinopLit8(bytecode.OpShlIntLit8, 0, 0, 2)
		a.Binop(bytecode.OpRemInt, 0, 0, a.P(1))
		a.Return(0)
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rt := art.NewRuntime(art.DefaultPhone())
	if _, err := rt.LoadDex(f); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Call("Lcalc/C;", "sum", "(I)I", nil, []art.Value{art.IntVal(10)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Int != 45 {
		t.Errorf("sum(10) = %d, want 45", res.Int)
	}
	want := int64(int32((7*9 ^ 7) << 2 % 9))
	res, err = rt.Call("Lcalc/C;", "mixed", "(II)I", nil, []art.Value{art.IntVal(7), art.IntVal(9)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Int != want {
		t.Errorf("mixed(7,9) = %d, want %d", res.Int, want)
	}
}

type Value = art.Value

func TestExceptionHandling(t *testing.T) {
	p := dexgen.New()
	cls := p.Class("Lex/E;", "")
	// safeDiv returns a/b, or -1 on ArithmeticException.
	cls.Method(dexgen.MethodSpec{Name: "safeDiv", Ret: "I", Params: []string{"I", "I"}, Static: true}, func(a *dexgen.Asm) {
		a.Label("try_start")
		a.Binop(bytecode.OpDivInt, 0, a.P(0), a.P(1))
		a.Label("try_end")
		a.Return(0)
		a.Label("handler")
		a.MoveException(1)
		a.Const(0, -1)
		a.Return(0)
		a.Catch("try_start", "try_end", "Ljava/lang/ArithmeticException;", "handler")
	})
	// boom always throws an uncaught exception.
	cls.Static("boom", "V", nil, func(a *dexgen.Asm) {
		a.NewInstance(0, "Ljava/lang/RuntimeException;")
		a.ConstString(1, "kaboom")
		a.InvokeDirect("Ljava/lang/RuntimeException;", "<init>", "(Ljava/lang/String;)V", 0, 1)
		a.Throw(0)
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rt := art.NewRuntime(art.DefaultPhone())
	if _, err := rt.LoadDex(f); err != nil {
		t.Fatal(err)
	}

	res, err := rt.Call("Lex/E;", "safeDiv", "(II)I", nil, []art.Value{art.IntVal(12), art.IntVal(3)})
	if err != nil || res.Int != 4 {
		t.Errorf("safeDiv(12,3) = %v, %v", res, err)
	}
	res, err = rt.Call("Lex/E;", "safeDiv", "(II)I", nil, []art.Value{art.IntVal(12), art.IntVal(0)})
	if err != nil || res.Int != -1 {
		t.Errorf("safeDiv(12,0) = %v, %v; want -1 via handler", res, err)
	}

	_, err = rt.Call("Lex/E;", "boom", "()V", nil, nil)
	var thrown *art.ThrownError
	if !errors.As(err, &thrown) {
		t.Fatalf("boom: got %v, want ThrownError", err)
	}
	if thrown.Obj.Class.Descriptor != "Ljava/lang/RuntimeException;" {
		t.Errorf("exception class = %s", thrown.Obj.Class.Descriptor)
	}
	if !strings.Contains(thrown.Error(), "kaboom") {
		t.Errorf("error message = %q", thrown.Error())
	}

	// With an Unhandled hook that clears, the exception is tolerated.
	cleared := 0
	rt.AddHooks(&art.Hooks{
		Unhandled: func(m *art.Method, pc int, ex *art.Object) bool {
			cleared++
			return true
		},
	})
	if _, err := rt.Call("Lex/E;", "boom", "()V", nil, nil); err != nil {
		t.Errorf("boom with clearing hook: %v", err)
	}
	if cleared != 1 {
		t.Errorf("cleared = %d, want 1", cleared)
	}
}

// TestSelfModifyingCode reproduces the paper's Code 1: a native method
// rewrites the bytecode of advancedLeak between loop iterations, swapping a
// call to normal() for a call to sink().
func TestSelfModifyingCode(t *testing.T) {
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
		a.Label("callsite")
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

	rt := art.NewRuntime(art.DefaultPhone())
	// The JNI tamper function: swap the method index at the normal()
	// call site between normal and sink.
	rt.RegisterNative("Lcom/test/Main;->bytecodeTamper(I)V",
		func(env *art.Env, recv *art.Object, args []art.Value) (art.Value, error) {
			i := args[0].Int
			err := env.TamperMethod("Lcom/test/Main;", "advancedLeak",
				func(insns []uint16) []uint16 {
					// Find the invoke-virtual {this, v0} call site for
					// normal/sink and flip its method index.
					for pc := 0; pc < len(insns); {
						in, w, derr := bytecode.Decode(insns, pc)
						if derr != nil {
							t.Fatalf("tamper decode: %v", derr)
						}
						if in.Op == bytecode.OpInvokeVirtual {
							ref := refOfIndex(t, env, in.Index)
							if i == 0 && ref == "normal" {
								insns[pc+1] = methodIdxOf(t, env, "sink")
								return nil
							}
							if i == 1 && ref == "sink" {
								insns[pc+1] = methodIdxOf(t, env, "normal")
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
			return art.Value{}, err
		})
	if err := rt.LoadAPK(pkg); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.LaunchActivity(); err != nil {
		t.Fatal(err)
	}
	// Exactly one SMS leak must have occurred (second loop iteration runs
	// the tampered call to sink with the already-fetched IMEI).
	var smsLeaks int
	for _, ev := range rt.Sinks() {
		if ev.Sink == apimodel.SinkSMS && ev.Taint.Has(apimodel.TaintIMEI) {
			smsLeaks++
		}
	}
	if smsLeaks != 1 {
		t.Fatalf("sms leaks = %d, want exactly 1 (self-modifying flow)", smsLeaks)
	}
}

// refOfIndex resolves a method index to its bare name in the app dex.
func refOfIndex(t *testing.T, env *art.Env, idx uint32) string {
	t.Helper()
	dexes := env.Runtime().LoadedDexes()
	return dexes[0].MethodAt(idx).Name
}

// methodIdxOf finds the method index with the given name in the app dex.
func methodIdxOf(t *testing.T, env *art.Env, name string) uint16 {
	t.Helper()
	f := env.Runtime().LoadedDexes()[0]
	for i := range f.Methods {
		if f.MethodAt(uint32(i)).Name == name {
			return uint16(i)
		}
	}
	t.Fatalf("method %s not found", name)
	return 0
}

func TestReflectionInvoke(t *testing.T) {
	p := dexgen.New()
	cls := p.Class("Lrefl/R;", "Landroid/app/Activity;")
	cls.Ctor("Landroid/app/Activity;", nil)
	cls.Virtual("secret", "Ljava/lang/String;", nil, func(a *dexgen.Asm) {
		a.ConstString(0, "secret-value")
		a.ReturnObj(0)
	})
	cls.Virtual("callViaReflection", "Ljava/lang/String;", nil, func(a *dexgen.Asm) {
		a.ConstString(0, "refl.R")
		a.InvokeStatic("Ljava/lang/Class;", "forName", "(Ljava/lang/String;)Ljava/lang/Class;", 0)
		a.MoveResultObject(0)
		a.ConstString(1, "secret")
		a.InvokeVirtual("Ljava/lang/Class;", "getMethod",
			"(Ljava/lang/String;)Ljava/lang/reflect/Method;", 0, 1)
		a.MoveResultObject(1)
		a.Const(2, 0) // null args array
		a.InvokeVirtual("Ljava/lang/reflect/Method;", "invoke",
			"(Ljava/lang/Object;[Ljava/lang/Object;)Ljava/lang/Object;", 1, a.This(), 2)
		a.MoveResultObject(0)
		a.CheckCast(0, "Ljava/lang/String;")
		a.ReturnObj(0)
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rt := art.NewRuntime(art.DefaultPhone())
	if _, err := rt.LoadDex(f); err != nil {
		t.Fatal(err)
	}
	var reflTargets []string
	rt.AddHooks(&art.Hooks{
		ReflectiveCall: func(caller *art.Method, pc int, target *art.Method) {
			reflTargets = append(reflTargets, target.Key())
		},
	})
	obj := rt.NewInstance(mustClass(t, rt, "Lrefl/R;"))
	res, err := rt.Call("Lrefl/R;", "callViaReflection", "()Ljava/lang/String;", obj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ref == nil || res.Ref.Str != "secret-value" {
		t.Errorf("reflective result = %v", res)
	}
	if len(reflTargets) != 1 || reflTargets[0] != "Lrefl/R;->secret()Ljava/lang/String;" {
		t.Errorf("reflective targets = %v", reflTargets)
	}
}

func mustClass(t *testing.T, rt *art.Runtime, desc string) *art.Class {
	t.Helper()
	c, err := rt.FindClass(desc)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDynamicDexLoading(t *testing.T) {
	// Payload dex with one class.
	payload := dexgen.New()
	payload.Class("Ldyn/Payload;", "").Static("magic", "I", nil, func(a *dexgen.Asm) {
		a.Const(0, 1234)
		a.Return(0)
	})
	payloadBytes, err := payload.Bytes()
	if err != nil {
		t.Fatal(err)
	}

	// Host app loads it through DexClassLoader.
	p := dexgen.New()
	host := p.Class("Lhost/Main;", "Landroid/app/Activity;")
	host.Ctor("Landroid/app/Activity;", nil)
	host.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.NewInstance(0, "Ldalvik/system/DexClassLoader;")
		a.ConstString(1, "payload.dex")
		a.InvokeDirect("Ldalvik/system/DexClassLoader;", "<init>", "(Ljava/lang/String;)V", 0, 1)
		a.InvokeStatic("Ldyn/Payload;", "magic", "()I")
		a.MoveResult(2)
		a.InvokeStatic("Ljava/lang/String;", "valueOf", "(I)Ljava/lang/String;", 2)
		a.MoveResultObject(3)
		a.LogLeak("dyn", 3, 4)
		a.ReturnVoid()
	})
	pkg, err := p.BuildAPK("com.host", "1.0", "Lhost/Main;")
	if err != nil {
		t.Fatal(err)
	}
	pkg.AddAsset("payload.dex", payloadBytes)

	rt := art.NewRuntime(art.DefaultPhone())
	if err := rt.LoadAPK(pkg); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.LaunchActivity(); err != nil {
		t.Fatal(err)
	}
	sinks := rt.Sinks()
	if len(sinks) != 1 || sinks[0].Args[1] != "1234" {
		t.Fatalf("sinks = %+v", sinks)
	}
	if n := len(rt.LoadedDexes()); n != 2 {
		t.Errorf("loaded %d DEX files, want 2 (the APK's and the payload)", n)
	}
}

func TestBranchOverride(t *testing.T) {
	p := dexgen.New()
	p.Class("Lfx/F;", "").Static("gated", "I", []string{"I"}, func(a *dexgen.Asm) {
		a.IfZ(bytecode.OpIfNez, a.P(0), "taken")
		a.Const(0, 111)
		a.Return(0)
		a.Label("taken")
		a.Const(0, 222)
		a.Return(0)
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rt := art.NewRuntime(art.DefaultPhone())
	if _, err := rt.LoadDex(f); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Call("Lfx/F;", "gated", "(I)I", nil, []art.Value{art.IntVal(0)})
	if err != nil || res.Int != 111 {
		t.Fatalf("gated(0) = %v, %v", res, err)
	}
	// Force the branch.
	rt.AddHooks(&art.Hooks{
		Branch: func(m *art.Method, pc int, taken bool) (bool, bool) {
			return true, true
		},
	})
	res, err = rt.Call("Lfx/F;", "gated", "(I)I", nil, []art.Value{art.IntVal(0)})
	if err != nil || res.Int != 222 {
		t.Fatalf("forced gated(0) = %v, %v; want 222", res, err)
	}
}

func TestSwitchDispatch(t *testing.T) {
	p := dexgen.New()
	p.Class("Lsw/S;", "").Static("pick", "I", []string{"I"}, func(a *dexgen.Asm) {
		a.SparseSwitch(a.P(0), []int32{1, 5, 100}, []string{"one", "five", "hundred"})
		a.Const(0, -1)
		a.Return(0)
		a.Label("one")
		a.Const(0, 10)
		a.Return(0)
		a.Label("five")
		a.Const(0, 50)
		a.Return(0)
		a.Label("hundred")
		a.Const(0, 1000)
		a.Return(0)
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rt := art.NewRuntime(art.DefaultPhone())
	if _, err := rt.LoadDex(f); err != nil {
		t.Fatal(err)
	}
	for in, want := range map[int64]int64{1: 10, 5: 50, 100: 1000, 7: -1} {
		res, err := rt.Call("Lsw/S;", "pick", "(I)I", nil, []art.Value{art.IntVal(in)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Int != want {
			t.Errorf("pick(%d) = %d, want %d", in, res.Int, want)
		}
	}
}

func TestViewsAndClicks(t *testing.T) {
	p := dexgen.New()
	listener := p.Class("Lui/L;", "", "Landroid/view/View$OnClickListener;")
	listener.Ctor("Ljava/lang/Object;", nil)
	listener.Virtual("onClick", "V", []string{"Landroid/view/View;"}, func(a *dexgen.Asm) {
		a.ConstString(0, "clicked")
		a.LogLeak("ui", 0, 1)
		a.ReturnVoid()
	})
	main := p.Class("Lui/Main;", "Landroid/app/Activity;")
	main.Ctor("Landroid/app/Activity;", nil)
	main.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.Const(0, 42)
		a.InvokeVirtual("Landroid/app/Activity;", "findViewById", "(I)Landroid/view/View;", a.This(), 0)
		a.MoveResultObject(1)
		a.NewInstance(2, "Lui/L;")
		a.InvokeDirect("Lui/L;", "<init>", "()V", 2)
		a.InvokeVirtual("Landroid/view/View;", "setOnClickListener",
			"(Landroid/view/View$OnClickListener;)V", 1, 2)
		a.ReturnVoid()
	})
	pkg, err := p.BuildAPK("com.ui", "1.0", "Lui/Main;")
	if err != nil {
		t.Fatal(err)
	}
	rt := art.NewRuntime(art.DefaultPhone())
	if err := rt.LoadAPK(pkg); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.LaunchActivity(); err != nil {
		t.Fatal(err)
	}
	clickables := rt.Clickables()
	if len(clickables) != 1 || clickables[0] != 42 {
		t.Fatalf("clickables = %v", clickables)
	}
	if err := rt.PerformClick(42); err != nil {
		t.Fatal(err)
	}
	if sinks := rt.Sinks(); len(sinks) != 1 || sinks[0].Args[1] != "clicked" {
		t.Fatalf("sinks = %+v", sinks)
	}
	if err := rt.PerformClick(99); err == nil {
		t.Error("PerformClick(99): want error")
	}
}

func TestStepBudget(t *testing.T) {
	p := dexgen.New()
	p.Class("Lloop/L;", "").Static("forever", "V", nil, func(a *dexgen.Asm) {
		a.Label("spin")
		a.Goto("spin")
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rt := art.NewRuntime(art.DefaultPhone())
	rt.MaxSteps = 10_000
	if _, err := rt.LoadDex(f); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Call("Lloop/L;", "forever", "()V", nil, nil); !errors.Is(err, art.ErrStepBudget) {
		t.Errorf("got %v, want ErrStepBudget", err)
	}
}

func TestStaticInitAndClinit(t *testing.T) {
	p := dexgen.New()
	cls := p.Class("Lstat/S;", "")
	cls.StaticString("GREETING", "hello")
	cls.StaticInt("BASE", 30)
	cls.StaticField("computed", "I")
	cls.Method(dexgen.MethodSpec{Name: "<clinit>", Ret: "V", Static: true}, func(a *dexgen.Asm) {
		a.SGetInt(0, "Lstat/S;", "BASE")
		a.BinopLit8(bytecode.OpMulIntLit8, 0, 0, 3)
		a.SPutInt(0, "Lstat/S;", "computed")
		a.ReturnVoid()
	})
	cls.Static("get", "I", nil, func(a *dexgen.Asm) {
		a.SGetInt(0, "Lstat/S;", "computed")
		a.Return(0)
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rt := art.NewRuntime(art.DefaultPhone())
	if _, err := rt.LoadDex(f); err != nil {
		t.Fatal(err)
	}
	var inits []string
	rt.AddHooks(&art.Hooks{
		ClassInitialized: func(c *art.Class) { inits = append(inits, c.Descriptor) },
	})
	res, err := rt.Call("Lstat/S;", "get", "()I", nil, nil)
	if err != nil || res.Int != 90 {
		t.Fatalf("get() = %v, %v; want 90", res, err)
	}
	if len(inits) != 1 || inits[0] != "Lstat/S;" {
		t.Errorf("inits = %v", inits)
	}
	c := mustClass(t, rt, "Lstat/S;")
	v, err := c.StaticValue("GREETING")
	if err != nil || v.Ref == nil || v.Ref.Str != "hello" {
		t.Errorf("GREETING = %v, %v", v, err)
	}
}

func TestStringAndTaintPropagation(t *testing.T) {
	p := dexgen.New()
	cls := p.Class("Lstr/S;", "Landroid/app/Activity;")
	cls.Ctor("Landroid/app/Activity;", nil)
	cls.Virtual("build", "Ljava/lang/String;", nil, func(a *dexgen.Asm) {
		a.GetIMEI(0, 1)
		a.NewInstance(1, "Ljava/lang/StringBuilder;")
		a.InvokeDirect("Ljava/lang/StringBuilder;", "<init>", "()V", 1)
		a.ConstString(2, "id=")
		a.InvokeVirtual("Ljava/lang/StringBuilder;", "append",
			"(Ljava/lang/String;)Ljava/lang/StringBuilder;", 1, 2)
		a.MoveResultObject(1)
		a.InvokeVirtual("Ljava/lang/StringBuilder;", "append",
			"(Ljava/lang/String;)Ljava/lang/StringBuilder;", 1, 0)
		a.MoveResultObject(1)
		a.InvokeVirtual("Ljava/lang/StringBuilder;", "toString", "()Ljava/lang/String;", 1)
		a.MoveResultObject(0)
		a.ReturnObj(0)
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rt := art.NewRuntime(art.DefaultPhone())
	if _, err := rt.LoadDex(f); err != nil {
		t.Fatal(err)
	}
	obj := rt.NewInstance(mustClass(t, rt, "Lstr/S;"))
	res, err := rt.Call("Lstr/S;", "build", "()Ljava/lang/String;", obj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := "id=" + art.DefaultPhone().IMEI; res.Ref.Str != want {
		t.Errorf("build() = %q, want %q", res.Ref.Str, want)
	}
	if !res.EffectiveTaint().Has(apimodel.TaintIMEI) {
		t.Error("taint lost through StringBuilder")
	}
}

func TestArraysAndBounds(t *testing.T) {
	p := dexgen.New()
	cls := p.Class("Larr/A;", "")
	cls.Static("rev", "I", []string{"I"}, func(a *dexgen.Asm) {
		a.Const(0, 3)
		a.NewArray(1, 0, "[I")
		a.Const(2, 0)
		a.Const(3, 7)
		a.APut(bytecode.OpAPut, 3, 1, 2)
		a.AGet(bytecode.OpAGet, 4, 1, a.P(0)) // may throw OOB
		a.Return(4)
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rt := art.NewRuntime(art.DefaultPhone())
	if _, err := rt.LoadDex(f); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Call("Larr/A;", "rev", "(I)I", nil, []art.Value{art.IntVal(0)})
	if err != nil || res.Int != 7 {
		t.Fatalf("rev(0) = %v, %v", res, err)
	}
	_, err = rt.Call("Larr/A;", "rev", "(I)I", nil, []art.Value{art.IntVal(9)})
	var thrown *art.ThrownError
	if !errors.As(err, &thrown) ||
		thrown.Obj.Class.Descriptor != "Ljava/lang/ArrayIndexOutOfBoundsException;" {
		t.Errorf("rev(9): got %v, want ArrayIndexOutOfBoundsException", err)
	}
}

func TestCheckCastFailure(t *testing.T) {
	p := dexgen.New()
	p.Class("Lcast/C;", "").Static("bad", "V", nil, func(a *dexgen.Asm) {
		a.ConstString(0, "hello")
		a.CheckCast(0, "Landroid/view/View;")
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
	_, err = rt.Call("Lcast/C;", "bad", "()V", nil, nil)
	var thrown *art.ThrownError
	if !errors.As(err, &thrown) ||
		thrown.Obj.Class.Descriptor != "Ljava/lang/ClassCastException;" {
		t.Errorf("got %v, want ClassCastException", err)
	}
}

func TestEmulatorAndTabletEnvironments(t *testing.T) {
	build := func(rt *art.Runtime) string {
		c := mustClass(t, rt, "Landroid/os/Build;")
		v, err := c.StaticValue("HARDWARE")
		if err != nil {
			t.Fatal(err)
		}
		return v.Ref.Str
	}
	if hw := build(art.NewRuntime(art.DefaultPhone())); hw != "bullhead" {
		t.Errorf("phone hardware = %q", hw)
	}
	if hw := build(art.NewRuntime(art.EmulatorDevice())); hw != "goldfish" {
		t.Errorf("emulator hardware = %q", hw)
	}
	if d := art.TabletDevice(); !d.Tablet {
		t.Error("tablet device not tablet")
	}
}

func TestInstructionHookSeesLiveBytecode(t *testing.T) {
	rt := buildLeakApp(t)
	count := 0
	rt.AddHooks(&art.Hooks{
		Instruction: func(m *art.Method, pc int, insns []uint16, in *bytecode.Inst) {
			count++
			if pc >= len(insns) {
				t.Errorf("pc %d out of bounds %d", pc, len(insns))
			}
		},
	})
	if _, err := rt.LaunchActivity(); err != nil {
		t.Fatal(err)
	}
	if count < 5 {
		t.Errorf("instruction hook fired %d times", count)
	}
}

func TestIntentExtras(t *testing.T) {
	p := dexgen.New()
	cls := p.Class("Lin/I;", "Landroid/app/Activity;")
	cls.Ctor("Landroid/app/Activity;", nil)
	cls.Virtual("read", "Ljava/lang/String;", nil, func(a *dexgen.Asm) {
		a.InvokeVirtual("Landroid/app/Activity;", "getIntent", "()Landroid/content/Intent;", a.This())
		a.MoveResultObject(0)
		a.ConstString(1, "cmd")
		a.InvokeVirtual("Landroid/content/Intent;", "getStringExtra",
			"(Ljava/lang/String;)Ljava/lang/String;", 0, 1)
		a.MoveResultObject(0)
		a.ReturnObj(0)
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rt := art.NewRuntime(art.DefaultPhone())
	if _, err := rt.LoadDex(f); err != nil {
		t.Fatal(err)
	}
	rt.SetIntentExtras(map[string]string{"cmd": "go"})
	obj := rt.NewInstance(mustClass(t, rt, "Lin/I;"))
	res, err := rt.Call("Lin/I;", "read", "()Ljava/lang/String;", obj, nil)
	if err != nil || res.Ref == nil || res.Ref.Str != "go" {
		t.Errorf("read() = %v, %v", res, err)
	}
}

func TestExternalFileRoundTripSeversTaint(t *testing.T) {
	p := dexgen.New()
	cls := p.Class("Lfile/F;", "Landroid/app/Activity;")
	cls.Ctor("Landroid/app/Activity;", nil)
	cls.Virtual("roundTrip", "V", nil, func(a *dexgen.Asm) {
		a.GetIMEI(0, 1)
		a.ConstString(1, "/sdcard/x.txt")
		a.InvokeStatic("Ljava/io/FileUtil;", "writeExternal",
			"(Ljava/lang/String;Ljava/lang/String;)V", 1, 0)
		a.InvokeStatic("Ljava/io/FileUtil;", "readExternal",
			"(Ljava/lang/String;)Ljava/lang/String;", 1)
		a.MoveResultObject(2)
		a.LogLeak("file", 2, 3)
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
	obj := rt.NewInstance(mustClass(t, rt, "Lfile/F;"))
	if _, err := rt.Call("Lfile/F;", "roundTrip", "()V", obj, nil); err != nil {
		t.Fatal(err)
	}
	sinks := rt.Sinks()
	// Two events: the tainted file write and the untainted log of the
	// read-back copy.
	if len(sinks) != 2 {
		t.Fatalf("sinks = %+v", sinks)
	}
	if !sinks[0].Leaky() || sinks[0].Sink != apimodel.SinkFile {
		t.Errorf("file write event = %+v", sinks[0])
	}
	if sinks[1].Leaky() {
		t.Errorf("log of file-read content should be untainted: %+v", sinks[1])
	}
	if content, ok := rt.ExternalFileContents("/sdcard/x.txt"); !ok ||
		content != art.DefaultPhone().IMEI {
		t.Errorf("external file = %q, %v", content, ok)
	}
}
