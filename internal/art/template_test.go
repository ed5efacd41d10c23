package art_test

import (
	"sync"
	"testing"

	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/dexgen"
)

// buildModelApp builds an activity with static setModel, which writes
// "patched" to Build.MODEL, and model, which reads it back.
func buildModelApp(t *testing.T) *apk.APK {
	t.Helper()
	const desc = "Ltpl/Main;"
	p := dexgen.New()
	c := p.Class(desc, "Landroid/app/Activity;")
	c.Ctor("Landroid/app/Activity;", nil)
	c.Static("setModel", "V", nil, func(a *dexgen.Asm) {
		a.ConstString(0, "patched")
		a.SPutObject(0, "Landroid/os/Build;", "MODEL", "Ljava/lang/String;")
		a.ReturnVoid()
	})
	c.Static("model", "Ljava/lang/String;", nil, func(a *dexgen.Asm) {
		a.SGetObject(0, "Landroid/os/Build;", "MODEL", "Ljava/lang/String;")
		a.ReturnObj(0)
	})
	pkg, err := p.BuildAPK("tpl", "1.0", desc)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func findClass(t *testing.T, rt *art.Runtime, desc string) *art.Class {
	t.Helper()
	c, err := rt.FindClass(desc)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func model(t *testing.T, rt *art.Runtime) *art.Object {
	t.Helper()
	v, err := rt.Call("Ltpl/Main;", "model", "()Ljava/lang/String;", nil, nil)
	if err != nil || v.Ref == nil {
		t.Fatalf("model() = %v, %v", v, err)
	}
	return v.Ref
}

// TestFrameworkStampsAreIsolated covers the framework side of the class
// template: two runtimes on one device stamp Build from the same template,
// yet a static written in one is not seen by the other, and each stamped
// static string is an object of its own runtime's String class.
func TestFrameworkStampsAreIsolated(t *testing.T) {
	pkg := buildModelApp(t)
	device := art.DefaultPhone()
	a, b := art.NewRuntime(device), art.NewRuntime(device)
	for _, rt := range []*art.Runtime{a, b} {
		if err := rt.LoadAPK(pkg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Call("Ltpl/Main;", "setModel", "()V", nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := model(t, a).Str; got != "patched" {
		t.Fatalf("Build.MODEL after sput-object = %q, want \"patched\"", got)
	}
	got := model(t, b)
	if got.Str != device.Model {
		t.Errorf("second runtime reads Build.MODEL = %q, want %q", got.Str, device.Model)
	}
	if own := findClass(t, b, "Ljava/lang/String;"); got.Class != own {
		t.Error("a stamped framework static is not of its runtime's own String class")
	}
	if findClass(t, a, "Ljava/lang/String;") == findClass(t, b, "Ljava/lang/String;") {
		t.Error("two runtimes share the String class shell")
	}
}

// TestAppStampLinksOwnFramework stamps an app class from an AppTemplate and
// requires its Super to be this runtime's own Activity shell.
func TestAppStampLinksOwnFramework(t *testing.T) {
	tmpl, err := art.NewAppTemplate(art.DefaultPhone(), buildModelApp(t))
	if err != nil {
		t.Fatal(err)
	}
	a, b := cloneOf(t, tmpl), cloneOf(t, tmpl)
	ma, mb := findClass(t, a, "Ltpl/Main;"), findClass(t, b, "Ltpl/Main;")
	if ma.Super != findClass(t, a, "Landroid/app/Activity;") || mb.Super != findClass(t, b, "Landroid/app/Activity;") {
		t.Fatal("a stamped app class's Super is not its runtime's own Activity")
	}
	if ma.Super == mb.Super {
		t.Fatal("two runtimes share the Activity class shell")
	}
}

// TestConcurrentStamping stamps from one framework template and one app
// template on two goroutines at once; under -race it checks that stamping
// only reads the shared templates.
func TestConcurrentStamping(t *testing.T) {
	tmpl, err := art.NewAppTemplate(art.DefaultPhone(), buildModelApp(t))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt := art.NewRuntime(art.DefaultPhone())
			if errs[i] = rt.LoadTemplate(tmpl); errs[i] != nil {
				return
			}
			if _, errs[i] = rt.Call("Ltpl/Main;", "setModel", "()V", nil, nil); errs[i] != nil {
				return
			}
			_, errs[i] = rt.LaunchActivity()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
