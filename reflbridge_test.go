package dexlego_test

import (
	"testing"

	root "dexlego"
	"dexlego/internal/apk"
	"dexlego/internal/bytecode"
	"dexlego/internal/dexgen"
)

// wideReflectionApp builds an activity whose onCreate makes two reflective
// calls: one to an instance target taking a String and eight ints (ten
// argument words with the receiver), one to a static (J)V target. Each
// target logs what it was passed, so a misplaced argument shows in the
// sink trace.
func wideReflectionApp(t *testing.T) *apk.APK {
	t.Helper()
	const desc = "Lrefl/Wide;"
	p := dexgen.New()
	cls := p.Class(desc, "Landroid/app/Activity;")
	cls.Ctor("Landroid/app/Activity;", nil)
	nine := []string{"Ljava/lang/String;", "I", "I", "I", "I", "I", "I", "I", "I"}
	cls.Method(dexgen.MethodSpec{Name: "nine", Ret: "V", Params: nine, Locals: 2}, func(a *dexgen.Asm) {
		a.NewInstance(0, "Ljava/lang/StringBuilder;")
		a.InvokeDirect("Ljava/lang/StringBuilder;", "<init>", "()V", 0)
		a.InvokeVirtual("Ljava/lang/StringBuilder;", "append",
			"(Ljava/lang/String;)Ljava/lang/StringBuilder;", 0, a.P(0))
		for i := 1; i < len(nine); i++ {
			a.InvokeVirtual("Ljava/lang/StringBuilder;", "append",
				"(I)Ljava/lang/StringBuilder;", 0, a.P(i))
		}
		a.InvokeVirtual("Ljava/lang/StringBuilder;", "toString", "()Ljava/lang/String;", 0)
		a.MoveResultObject(0)
		a.LogLeak("nine", 0, 1)
		a.ReturnVoid()
	})
	cls.Static("wide", "V", []string{"J"}, func(a *dexgen.Asm) {
		a.ConstString(0, "called")
		a.LogLeak("wide", 0, 1)
		a.ReturnVoid()
	})
	cls.Method(dexgen.MethodSpec{Name: "onCreate", Ret: "V", Params: []string{"Landroid/os/Bundle;"}, Locals: 10},
		func(a *dexgen.Asm) {
			// v1 = new Object[]{imei, 10, 20, ..., 80}
			a.Const(0, int64(len(nine)))
			a.NewArray(1, 0, "[Ljava/lang/Object;")
			a.GetIMEI(2, 3)
			a.Const(3, 0)
			a.APut(bytecode.OpAPutObject, 2, 1, 3)
			for i := 1; i < len(nine); i++ {
				a.Const(2, int64(10*i))
				a.InvokeStatic("Ljava/lang/Integer;", "valueOf", "(I)Ljava/lang/Integer;", 2)
				a.MoveResultObject(2)
				a.Const(3, int64(i))
				a.APut(bytecode.OpAPutObject, 2, 1, 3)
			}
			a.ConstString(4, "refl.Wide")
			a.InvokeStatic("Ljava/lang/Class;", "forName", "(Ljava/lang/String;)Ljava/lang/Class;", 4)
			a.MoveResultObject(4)
			a.ConstString(7, "nine")
			a.InvokeVirtual("Ljava/lang/Class;", "getMethod",
				"(Ljava/lang/String;)Ljava/lang/reflect/Method;", 4, 7)
			a.MoveResultObject(7)
			a.InvokeVirtual("Ljava/lang/reflect/Method;", "invoke",
				"(Ljava/lang/Object;[Ljava/lang/Object;)Ljava/lang/Object;", 7, a.This(), 1)
			// wide(7L) through Method.invoke with a null receiver.
			a.Const(0, 1)
			a.NewArray(1, 0, "[Ljava/lang/Object;")
			a.Const(2, 7)
			a.InvokeStatic("Ljava/lang/Integer;", "valueOf", "(I)Ljava/lang/Integer;", 2)
			a.MoveResultObject(2)
			a.Const(3, 0)
			a.APut(bytecode.OpAPutObject, 2, 1, 3)
			a.ConstString(7, "wide")
			a.InvokeVirtual("Ljava/lang/Class;", "getMethod",
				"(Ljava/lang/String;)Ljava/lang/reflect/Method;", 4, 7)
			a.MoveResultObject(7)
			a.InvokeVirtual("Ljava/lang/reflect/Method;", "invoke",
				"(Ljava/lang/Object;[Ljava/lang/Object;)Ljava/lang/Object;", 7, 3, 1)
			a.ReturnVoid()
		})
	pkg, err := p.BuildAPK("refl.wide", "1.0", desc)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// TestReflectionBridgeKeepsBehaviour: the 9-parameter target's call site is
// bridged, the (J)V one keeps its Method.invoke, and the revealed APK logs
// what the input logs.
func TestReflectionBridgeKeepsBehaviour(t *testing.T) {
	pkg := wideReflectionApp(t)
	want, ok := sinkTrace(pkg, root.Options{})
	if !ok || len(want) != 2 {
		t.Fatalf("input sink trace (completed %v): %+v, want two log events", ok, want)
	}
	for _, force := range []bool{false, true} {
		checkReveal(t, pkg, root.Options{ForceExecution: force, Workers: 1})
	}
	res, err := root.Reveal(pkg, root.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ReflectionRewrites != 1 {
		t.Errorf("reflection rewrites = %d, want 1 (the 9-parameter site, not the (J)V one)", res.Stats.ReflectionRewrites)
	}
}
