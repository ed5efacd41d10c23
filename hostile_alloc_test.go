package dexlego_test

import (
	"errors"
	"runtime"
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
