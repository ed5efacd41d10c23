package taint_test

import (
	"testing"

	"dexlego/internal/apimodel"
	"dexlego/internal/art"
	"dexlego/internal/bytecode"
	"dexlego/internal/dex"
	"dexlego/internal/dexgen"
	"dexlego/internal/taint"
)

// verdicts runs all three tool profiles and returns leaky-or-not per tool.
func verdicts(t *testing.T, files ...*dex.File) map[string]bool {
	t.Helper()
	out := make(map[string]bool, 3)
	for _, p := range taint.Profiles() {
		res, err := taint.Analyze(files, p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		out[p.Name] = res.Leaky()
	}
	return out
}

func expect(t *testing.T, got map[string]bool, fd, ds, hd bool) {
	t.Helper()
	want := map[string]bool{"FlowDroid": fd, "DroidSafe": ds, "HornDroid": hd}
	for tool, w := range want {
		if got[tool] != w {
			t.Errorf("%s = %v, want %v", tool, got[tool], w)
		}
	}
}

// activity starts a standard activity class with a constructor.
func activity(p *dexgen.Program, desc string) *dexgen.Class {
	cls := p.Class(desc, "Landroid/app/Activity;")
	cls.Ctor("Landroid/app/Activity;", nil)
	return cls
}

func finish(t *testing.T, p *dexgen.Program) *dex.File {
	t.Helper()
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestPlainFlowDetectedByAll(t *testing.T) {
	p := dexgen.New()
	activity(p, "La/Main;").Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.GetIMEI(0, 1)
		a.LogLeak("t", 0, 2)
		a.ReturnVoid()
	})
	expect(t, verdicts(t, finish(t, p)), true, true, true)
}

func TestBenignDetectedByNone(t *testing.T) {
	p := dexgen.New()
	activity(p, "Lb/Main;").Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.ConstString(0, "harmless")
		a.LogLeak("t", 0, 2)
		a.ReturnVoid()
	})
	expect(t, verdicts(t, finish(t, p)), false, false, false)
}

func TestInterproceduralFlow(t *testing.T) {
	p := dexgen.New()
	cls := activity(p, "Lc/Main;")
	cls.Virtual("fetch", "Ljava/lang/String;", nil, func(a *dexgen.Asm) {
		a.GetIMEI(0, 1)
		a.ReturnObj(0)
	})
	cls.Virtual("send", "V", []string{"Ljava/lang/String;"}, func(a *dexgen.Asm) {
		a.LogLeak("t", a.P(0), 1)
		a.ReturnVoid()
	})
	cls.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.InvokeVirtual("Lc/Main;", "fetch", "()Ljava/lang/String;", a.This())
		a.MoveResultObject(0)
		a.InvokeVirtual("Lc/Main;", "send", "(Ljava/lang/String;)V", a.This(), 0)
		a.ReturnVoid()
	})
	expect(t, verdicts(t, finish(t, p)), true, true, true)
}

func TestFieldFlowAcrossLifecycle(t *testing.T) {
	p := dexgen.New()
	cls := activity(p, "Ld/Main;")
	cls.Field("stash", "Ljava/lang/String;")
	cls.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.GetIMEI(0, 1)
		a.IPutObject(0, a.This(), "Ld/Main;", "stash", "Ljava/lang/String;")
		a.ReturnVoid()
	})
	cls.Virtual("onResume", "V", nil, func(a *dexgen.Asm) {
		a.IGetObject(0, a.This(), "Ld/Main;", "stash", "Ljava/lang/String;")
		a.LogLeak("t", 0, 1)
		a.ReturnVoid()
	})
	expect(t, verdicts(t, finish(t, p)), true, true, true)
}

func TestImplicitFlowOnlyHornDroid(t *testing.T) {
	p := dexgen.New()
	// if (imei.startsWith("3")) Log("1") else Log("0") — classic implicit.
	activity(p, "Le/Main;").Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.GetIMEI(0, 1)
		a.ConstString(1, "3")
		a.InvokeVirtual("Ljava/lang/String;", "startsWith", "(Ljava/lang/String;)Z", 0, 1)
		a.MoveResult(2)
		a.IfZ(bytecode.OpIfEqz, 2, "zero")
		a.ConstString(3, "1")
		a.LogLeak("t", 3, 4)
		a.ReturnVoid()
		a.Label("zero")
		a.ConstString(3, "0")
		a.LogLeak("t", 3, 4)
		a.ReturnVoid()
	})
	expect(t, verdicts(t, finish(t, p)), false, false, true)
}

func TestDeepFrameworkFlow(t *testing.T) {
	p := dexgen.New()
	// Taint through one TextView's state: shallow model loses it.
	activity(p, "Lf/Main;").Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.NewInstance(0, "Landroid/widget/TextView;")
		a.InvokeDirect("Landroid/widget/TextView;", "<init>", "()V", 0)
		a.GetIMEI(1, 2)
		a.InvokeVirtual("Landroid/widget/TextView;", "setText", "(Ljava/lang/String;)V", 0, 1)
		a.InvokeVirtual("Landroid/widget/TextView;", "getText", "()Ljava/lang/String;", 0)
		a.MoveResultObject(3)
		a.LogLeak("t", 3, 4)
		a.ReturnVoid()
	})
	expect(t, verdicts(t, finish(t, p)), false, true, true)
}

func TestContainerFalsePositiveOnlyDroidSafe(t *testing.T) {
	p := dexgen.New()
	// Taint into view A, sink from view B: deep-but-object-insensitive
	// models conflate the two.
	activity(p, "Lg/Main;").Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.NewInstance(0, "Landroid/widget/TextView;")
		a.InvokeDirect("Landroid/widget/TextView;", "<init>", "()V", 0)
		a.NewInstance(1, "Landroid/widget/TextView;")
		a.InvokeDirect("Landroid/widget/TextView;", "<init>", "()V", 1)
		a.GetIMEI(2, 3)
		a.InvokeVirtual("Landroid/widget/TextView;", "setText", "(Ljava/lang/String;)V", 0, 2)
		a.ConstString(4, "clean")
		a.InvokeVirtual("Landroid/widget/TextView;", "setText", "(Ljava/lang/String;)V", 1, 4)
		a.InvokeVirtual("Landroid/widget/TextView;", "getText", "()Ljava/lang/String;", 1)
		a.MoveResultObject(5)
		a.LogLeak("t", 5, 4)
		a.ReturnVoid()
	})
	expect(t, verdicts(t, finish(t, p)), false, true, false)
}

func TestAliasFalsePositiveNotHornDroid(t *testing.T) {
	p := dexgen.New()
	holder := p.Class("Lh/Holder;", "")
	holder.Ctor("Ljava/lang/Object;", nil)
	holder.Field("data", "Ljava/lang/String;")
	activity(p, "Lh/Main;").Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.NewInstance(0, "Lh/Holder;")
		a.InvokeDirect("Lh/Holder;", "<init>", "()V", 0)
		a.NewInstance(1, "Lh/Holder;")
		a.InvokeDirect("Lh/Holder;", "<init>", "()V", 1)
		a.GetIMEI(2, 3)
		a.IPutObject(2, 0, "Lh/Holder;", "data", "Ljava/lang/String;")
		a.IGetObject(4, 1, "Lh/Holder;", "data", "Ljava/lang/String;")
		a.LogLeak("t", 4, 3)
		a.ReturnVoid()
	})
	expect(t, verdicts(t, finish(t, p)), true, true, false)
}

func TestImplicitBenignFPOnlyHornDroid(t *testing.T) {
	p := dexgen.New()
	// Condition is tainted, but only a constant ever reaches the sink and
	// the data flow is clean: implicit tracking over-approximates.
	activity(p, "Li/Main;").Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.GetIMEI(0, 1)
		a.InvokeVirtual("Ljava/lang/String;", "length", "()I", 0)
		a.MoveResult(2)
		a.IfZ(bytecode.OpIfLez, 2, "skip")
		a.ConstString(3, "present")
		a.LogLeak("t", 3, 4)
		a.Label("skip")
		a.ReturnVoid()
	})
	expect(t, verdicts(t, finish(t, p)), false, false, true)
}

func reflectionApp(t *testing.T, build func(cls *dexgen.Class)) *dex.File {
	t.Helper()
	p := dexgen.New()
	cls := activity(p, "Lr/Main;")
	cls.Virtual("secretSource", "Ljava/lang/String;", nil, func(a *dexgen.Asm) {
		a.GetIMEI(0, 1)
		a.ReturnObj(0)
	})
	build(cls)
	return finish(t, p)
}

// emitReflectiveLeak emits forName(classReg)+getMethod(nameReg)+invoke+log.
func emitReflectiveLeak(a *dexgen.Asm, clsNameReg, methNameReg int32) {
	a.InvokeStatic("Ljava/lang/Class;", "forName",
		"(Ljava/lang/String;)Ljava/lang/Class;", clsNameReg)
	a.MoveResultObject(clsNameReg)
	a.InvokeVirtual("Ljava/lang/Class;", "getMethod",
		"(Ljava/lang/String;)Ljava/lang/reflect/Method;", clsNameReg, methNameReg)
	a.MoveResultObject(methNameReg)
	a.Const(4, 0)
	a.InvokeVirtual("Ljava/lang/reflect/Method;", "invoke",
		"(Ljava/lang/Object;[Ljava/lang/Object;)Ljava/lang/Object;", methNameReg, a.This(), 4)
	a.MoveResultObject(5)
	a.LogLeak("t", 5, 4)
}

func TestReflectionConstResolvedByAll(t *testing.T) {
	f := reflectionApp(t, func(cls *dexgen.Class) {
		cls.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
			a.ConstString(0, "r.Main")
			a.ConstString(1, "secretSource")
			emitReflectiveLeak(a, 0, 1)
			a.ReturnVoid()
		})
	})
	expect(t, verdicts(t, f), true, true, true)
}

func TestReflectionNameViaParam(t *testing.T) {
	f := reflectionApp(t, func(cls *dexgen.Class) {
		cls.Virtual("helper", "V", []string{"Ljava/lang/String;"}, func(a *dexgen.Asm) {
			a.ConstString(0, "r.Main")
			a.MoveObject(1, a.P(0))
			emitReflectiveLeak(a, 0, 1)
			a.ReturnVoid()
		})
		cls.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
			a.ConstString(0, "secretSource")
			a.InvokeVirtual("Lr/Main;", "helper", "(Ljava/lang/String;)V", a.This(), 0)
			a.ReturnVoid()
		})
	})
	expect(t, verdicts(t, f), false, true, true)
}

func TestReflectionNameViaField(t *testing.T) {
	f := reflectionApp(t, func(cls *dexgen.Class) {
		cls.Field("mName", "Ljava/lang/String;")
		cls.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
			a.ConstString(0, "secretSource")
			a.IPutObject(0, a.This(), "Lr/Main;", "mName", "Ljava/lang/String;")
			a.ReturnVoid()
		})
		cls.Virtual("onResume", "V", nil, func(a *dexgen.Asm) {
			a.ConstString(0, "r.Main")
			a.IGetObject(1, a.This(), "Lr/Main;", "mName", "Ljava/lang/String;")
			emitReflectiveLeak(a, 0, 1)
			a.ReturnVoid()
		})
	})
	expect(t, verdicts(t, f), false, false, true)
}

func TestReflectionNoStringUnresolvable(t *testing.T) {
	f := reflectionApp(t, func(cls *dexgen.Class) {
		cls.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
			// getDeclaredMethods()[0].invoke(this, null): no name string.
			a.ConstString(0, "r.Main")
			a.InvokeStatic("Ljava/lang/Class;", "forName",
				"(Ljava/lang/String;)Ljava/lang/Class;", 0)
			a.MoveResultObject(0)
			a.InvokeVirtual("Ljava/lang/Class;", "getDeclaredMethods",
				"()[Ljava/lang/reflect/Method;", 0)
			a.MoveResultObject(1)
			a.Const(2, 0)
			a.AGet(bytecode.OpAGetObject, 3, 1, 2)
			a.Const(4, 0)
			a.InvokeVirtual("Ljava/lang/reflect/Method;", "invoke",
				"(Ljava/lang/Object;[Ljava/lang/Object;)Ljava/lang/Object;", 3, a.This(), 4)
			a.MoveResultObject(5)
			a.LogLeak("t", 5, 4)
			a.ReturnVoid()
		})
	})
	expect(t, verdicts(t, f), false, false, false)
}

func TestExtraLifecycleOnlyFlowDroid(t *testing.T) {
	p := dexgen.New()
	activity(p, "Ll/Main;").Virtual("onLowMemory", "V", nil, func(a *dexgen.Asm) {
		a.GetIMEI(0, 1)
		a.LogLeak("t", 0, 2)
		a.ReturnVoid()
	})
	expect(t, verdicts(t, finish(t, p)), true, false, false)
}

func TestDeadBranchFlowFlaggedByAll(t *testing.T) {
	p := dexgen.New()
	activity(p, "Lm/Main;").Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.GetIMEI(0, 1)
		a.Const(2, 0)
		a.IfZ(bytecode.OpIfEqz, 2, "skip") // always taken at runtime
		a.LogLeak("t", 0, 3)
		a.Label("skip")
		a.ReturnVoid()
	})
	expect(t, verdicts(t, finish(t, p)), true, true, true)
}

// TestHandlerSeesFactsBeforeThrowingInstruction: the IMEI sits in v0 and
// the only instruction in the try, aget-object into v0, throws on a null
// array. The handler therefore runs with v0 still holding the IMEI and logs
// it — a leak the runtime records — so every tool must see the handler
// entered with the facts from before the throwing instruction's write.
func TestHandlerSeesFactsBeforeThrowingInstruction(t *testing.T) {
	p := dexgen.New()
	activity(p, "Lq/Main;").Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.GetIMEI(0, 1)
		a.Const(3, 0) // null array
		a.Const(4, 0)
		a.Label("ts")
		a.AGet(bytecode.OpAGetObject, 0, 3, 4)
		a.Label("te")
		a.ReturnVoid()
		a.Label("h")
		a.MoveException(5)
		a.LogLeak("t", 0, 1)
		a.ReturnVoid()
		a.Catch("ts", "te", "Ljava/lang/NullPointerException;", "h")
	})
	pkg, err := p.BuildAPK("q", "1.0", "Lq/Main;")
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
	if sinks := rt.Sinks(); len(sinks) != 1 || !sinks[0].Leaky() {
		t.Fatalf("runtime sinks %+v, want one IMEI leak", sinks)
	}
	data, err := pkg.Dex()
	if err != nil {
		t.Fatal(err)
	}
	f, err := dex.Read(data)
	if err != nil {
		t.Fatal(err)
	}
	expect(t, verdicts(t, f), true, true, true)
}

func TestCallbackFlow(t *testing.T) {
	p := dexgen.New()
	listener := p.Class("Ln/L;", "", "Landroid/view/View$OnClickListener;")
	listener.Ctor("Ljava/lang/Object;", nil)
	listener.Virtual("onClick", "V", []string{"Landroid/view/View;"}, func(a *dexgen.Asm) {
		a.GetIMEI(0, 1)
		a.LogLeak("t", 0, 2)
		a.ReturnVoid()
	})
	// onClick calls getSystemService on `this`, which is not an Activity —
	// but the framework summary keys on the method, so it still sources.
	expect(t, verdicts(t, finish(t, p)), true, true, true)
}

func TestFileRoundTripSeversFlow(t *testing.T) {
	p := dexgen.New()
	activity(p, "Lo/Main;").Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.GetIMEI(0, 1)
		a.ConstString(1, "/sdcard/x")
		a.InvokeStatic("Ljava/io/FileUtil;", "writeExternal",
			"(Ljava/lang/String;Ljava/lang/String;)V", 1, 0)
		a.InvokeStatic("Ljava/io/FileUtil;", "readExternal",
			"(Ljava/lang/String;)Ljava/lang/String;", 1)
		a.MoveResultObject(2)
		a.SendSMS("555", 2, 3) // needs regs 3..8; locals default 6 → up to v8? ensure
		a.ReturnVoid()
	})
	got := map[string]bool{}
	f := finish(t, p)
	for _, prof := range taint.Profiles() {
		res, err := taint.Analyze([]*dex.File{f}, prof)
		if err != nil {
			t.Fatal(err)
		}
		// The write itself is a FILE sink carrying taint; the SMS of the
		// read-back data must NOT appear.
		smsLeak := false
		for _, fl := range res.Flows {
			if fl.Sink == apimodel.SinkSMS {
				smsLeak = true
			}
		}
		got[prof.Name] = smsLeak
	}
	for tool, leak := range got {
		if leak {
			t.Errorf("%s tracked taint through the file round trip", tool)
		}
	}
}

func TestDynamicallyLoadedCodeVisibleOnlyWithPayload(t *testing.T) {
	host := dexgen.New()
	activity(host, "Lp/Main;").Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.NewInstance(0, "Ldalvik/system/DexClassLoader;")
		a.ConstString(1, "payload.dex")
		a.InvokeDirect("Ldalvik/system/DexClassLoader;", "<init>", "(Ljava/lang/String;)V", 0, 1)
		a.ReturnVoid()
	})
	hostFile := finish(t, host)

	payload := dexgen.New()
	activity(payload, "Lq/Evil;").Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.GetIMEI(0, 1)
		a.LogLeak("t", 0, 2)
		a.ReturnVoid()
	})
	payloadFile := finish(t, payload)

	expect(t, verdicts(t, hostFile), false, false, false)
	expect(t, verdicts(t, hostFile, payloadFile), true, true, true)
}

func TestFlowCountingDistinctSinks(t *testing.T) {
	p := dexgen.New()
	activity(p, "Ls/Main;").Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.GetIMEI(0, 1)
		a.LogLeak("a", 0, 2)
		a.LogLeak("b", 0, 2)
		a.SendSMS("555", 0, 2)
		a.ReturnVoid()
	})
	res, err := taint.Analyze([]*dex.File{finish(t, p)}, taint.FlowDroid())
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 3 {
		t.Errorf("flow count = %d, want 3 (distinct call sites)", res.Count())
	}
}
