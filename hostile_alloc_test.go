package dexlego_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	root "dexlego"
	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/dexgen"
)

// hugeArrayApp builds an activity whose onCreate is
// const v0, 0x7fffffff; new-array v1, v0, [I; return-void.
func hugeArrayApp(t *testing.T) *apk.APK {
	t.Helper()
	const desc = "Lhuge/Main;"
	p := dexgen.New()
	cls := p.Class(desc, "Landroid/app/Activity;")
	cls.Ctor("Landroid/app/Activity;", nil)
	cls.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.Const(0, 0x7fffffff)
		a.NewArray(1, 0, "[I")
		a.ReturnVoid()
	})
	pkg, err := p.BuildAPK("huge", "1.0", desc)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// TestHugeNewArrayThrows reveals an app that asks for a 2^31-1 element
// array, force off and on: the launch throws OutOfMemoryError instead of
// asking Go for a 64 GiB block that kills the process, and the reveal gives
// an error or a verified DEX that behaves as the input. The array limit is
// checked first with a length whose array costs 32 MiB, so a missing check
// fails the test before the probe can allocate.
func TestHugeNewArrayThrows(t *testing.T) {
	rt := art.NewRuntime(art.DefaultPhone())
	var thrown *art.ThrownError
	if _, err := rt.NewArray("[I", art.MaxArrayLength+1); !errors.As(err, &thrown) ||
		thrown.Obj.Class.Descriptor != "Ljava/lang/OutOfMemoryError;" {
		t.Fatalf("NewArray past the limit = %v, want OutOfMemoryError; not running the probe", err)
	}

	pkg := hugeArrayApp(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rt = art.NewRuntime(art.DefaultPhone())
	if err := rt.LoadAPK(pkg); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.LaunchActivity(); !errors.As(err, &thrown) ||
		thrown.Obj.Class.Descriptor != "Ljava/lang/OutOfMemoryError;" {
		t.Errorf("launch = %v, want an uncaught OutOfMemoryError", err)
	}
	for _, force := range []bool{false, true} {
		checkReveal(t, pkg, root.Options{ForceExecution: force, Workers: 1})
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<30 {
		t.Errorf("the probe allocated %d MiB", grown>>20)
	}
}

// stringDoublingApp builds an activity whose onCreate doubles a string
// forever: s = "a"; loop: s = s.concat(s); goto loop.
func stringDoublingApp(t *testing.T) *apk.APK {
	t.Helper()
	const desc = "Lhuge/Strings;"
	p := dexgen.New()
	cls := p.Class(desc, "Landroid/app/Activity;")
	cls.Ctor("Landroid/app/Activity;", nil)
	cls.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.ConstString(0, "a")
		a.Label("loop")
		a.InvokeVirtual("Ljava/lang/String;", "concat", "(Ljava/lang/String;)Ljava/lang/String;", 0, 0)
		a.MoveResultObject(0)
		a.Goto("loop")
	})
	pkg, err := p.BuildAPK("hugestr", "1.0", desc)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// TestHugeStringThrows bounds strings as arrays are bounded: String.concat
// and each StringBuilder.append throw OutOfMemoryError, before building the
// result, when it would pass MaxArrayLength chars. Each limit is checked
// first, so a missing check fails the test before the probe can allocate.
// The probe is an app that doubles a string until the bound stops it,
// launched and then revealed force off and on.
func TestHugeStringThrows(t *testing.T) {
	rt := art.NewRuntime(art.DefaultPhone())
	sb, err := rt.FindClass("Ljava/lang/StringBuilder;")
	if err != nil {
		t.Fatal(err)
	}
	full := strings.Repeat("a", art.MaxArrayLength)
	for _, tc := range []struct {
		class, name, sig string
		recv             *art.Object
		arg              art.Value
	}{
		{"Ljava/lang/String;", "concat", "(Ljava/lang/String;)Ljava/lang/String;", rt.NewString(full), art.RefVal(rt.NewString("a"))},
		{"Ljava/lang/StringBuilder;", "append", "(Ljava/lang/String;)Ljava/lang/StringBuilder;", &art.Object{Class: sb, Str: full}, art.RefVal(rt.NewString("a"))},
		{"Ljava/lang/StringBuilder;", "append", "(I)Ljava/lang/StringBuilder;", &art.Object{Class: sb, Str: full}, art.IntVal(7)},
		{"Ljava/lang/StringBuilder;", "append", "(C)Ljava/lang/StringBuilder;", &art.Object{Class: sb, Str: full}, art.IntVal('b')},
	} {
		var thrown *art.ThrownError
		if _, err := rt.Call(tc.class, tc.name, tc.sig, tc.recv, []art.Value{tc.arg}); !errors.As(err, &thrown) ||
			thrown.Obj.Class.Descriptor != "Ljava/lang/OutOfMemoryError;" {
			t.Fatalf("%s->%s%s past the limit = %v, want OutOfMemoryError; not running the probe", tc.class, tc.name, tc.sig, err)
		}
		if len(tc.recv.Str) != art.MaxArrayLength {
			t.Fatalf("%s->%s%s changed its receiver before throwing", tc.class, tc.name, tc.sig)
		}
	}
	// A string exactly at the limit is still built.
	if v, err := rt.Call("Ljava/lang/String;", "concat", "(Ljava/lang/String;)Ljava/lang/String;",
		rt.NewString(full[1:]), []art.Value{art.RefVal(rt.NewString("a"))}); err != nil || len(v.Ref.Str) != art.MaxArrayLength {
		t.Fatalf("concat to exactly the limit = %v", err)
	}

	pkg := stringDoublingApp(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rt = art.NewRuntime(art.DefaultPhone())
	if err := rt.LoadAPK(pkg); err != nil {
		t.Fatal(err)
	}
	var thrown *art.ThrownError
	if _, err := rt.LaunchActivity(); !errors.As(err, &thrown) ||
		thrown.Obj.Class.Descriptor != "Ljava/lang/OutOfMemoryError;" {
		t.Errorf("launch = %v, want an uncaught OutOfMemoryError", err)
	}
	for _, force := range []bool{false, true} {
		checkReveal(t, pkg, root.Options{ForceExecution: force, Workers: 1})
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<30 {
		t.Errorf("the probe allocated %d MiB", grown>>20)
	}
}
