package art_test

import (
	"errors"
	"slices"
	"testing"

	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/dexgen"
)

// buildCounterApp builds a class with a static counter that bump() raises
// by one and returns, and a subclass that inherits it.
func buildCounterApp(t *testing.T) *apk.APK {
	t.Helper()
	p := dexgen.New()
	c := p.Class("Ltpl/C;", "")
	c.StaticInt("n", 7)
	c.Static("bump", "I", nil, func(a *dexgen.Asm) {
		a.SGetInt(0, "Ltpl/C;", "n")
		a.AddLit(0, 0, 1)
		a.SPutInt(0, "Ltpl/C;", "n")
		a.Return(0)
	})
	d := p.Class("Ltpl/D;", "Ltpl/C;")
	d.Static("two", "I", nil, func(a *dexgen.Asm) {
		a.Const(0, 2)
		a.Return(0)
	})
	pkg, err := p.BuildAPK("tpl", "1.0", "")
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// cloneOf returns a runtime loaded from the template.
func cloneOf(t *testing.T, tmpl *art.AppTemplate) *art.Runtime {
	t.Helper()
	rt := art.NewRuntime(art.DefaultPhone())
	if err := rt.LoadTemplate(tmpl); err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestAppTemplateClonesAreIsolated runs two clones of one template: a
// static written and a method tampered in one leave the other clone, the
// template and the input DEX unchanged.
func TestAppTemplateClonesAreIsolated(t *testing.T) {
	pkg := buildCounterApp(t)
	f, err := pkg.DexFile()
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := art.NewAppTemplate(art.DefaultPhone(), pkg)
	if err != nil {
		t.Fatal(err)
	}
	body := f.FindMethod("Ltpl/C;", "bump", "()I")
	if body == nil || body.Code == nil {
		t.Fatal("bump has no body in the input DEX")
	}
	want := slices.Clone(body.Code.Insns)

	a, b := cloneOf(t, tmpl), cloneOf(t, tmpl)
	ca, err := a.FindClass("Ltpl/C;")
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.FindClass("Ltpl/C;")
	if err != nil {
		t.Fatal(err)
	}
	if ca == cb || ca.Methods[0] == cb.Methods[0] {
		t.Fatal("two clones share a class shell or a method")
	}
	if m := ca.FindMethod("bump", ""); m.Class != ca || m.Key() != "Ltpl/C;->bump()I" {
		t.Fatalf("cloned method points at %v, key %q", m.Class, m.Key())
	}
	if d, err := a.FindClass("Ltpl/D;"); err != nil || d.Super != ca {
		t.Fatalf("subclass clone's super = %v (err %v), want this runtime's Ltpl/C;", d.Super, err)
	}
	if obj, err := a.FindClass("Ljava/lang/Object;"); err != nil || ca.Super != nil && ca.Super != obj {
		t.Fatalf("app class super %v is not this runtime's framework class", ca.Super)
	}

	for want := int64(8); want <= 9; want++ {
		v, err := a.Call("Ltpl/C;", "bump", "()I", nil, nil)
		if err != nil || v.Int != want {
			t.Fatalf("clone a bump = %v, %v; want %d", v.Int, err, want)
		}
	}
	// Tamper a's bump into "return 0" through a native.
	env := envOf(t, a)
	if err := env.TamperMethod("Ltpl/C;", "bump", func(insns []uint16) []uint16 {
		for i := range insns {
			insns[i] = 0 // nop
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(body.Code.Insns, want) {
		t.Fatal("a tamper wrote into the input DEX's units")
	}
	if got := cb.FindMethod("bump", "").Insns; !slices.Equal(got, want) {
		t.Fatalf("a sibling clone's units changed: %v", got)
	}
	if v, _ := cb.StaticValue("n"); v.Kind != 0 {
		t.Fatalf("clone b sees static n = %v before its own initialization", v)
	}
	if v, err := b.Call("Ltpl/C;", "bump", "()I", nil, nil); err != nil || v.Int != 8 {
		t.Fatalf("clone b bump = %v, %v; want 8 (its own static, its own code)", v.Int, err)
	}
	// A third clone, made after both ran, still starts from the template.
	c := cloneOf(t, tmpl)
	if v, err := c.Call("Ltpl/C;", "bump", "()I", nil, nil); err != nil || v.Int != 8 {
		t.Fatalf("late clone bump = %v, %v; want 8", v.Int, err)
	}
}

// envOf returns an Env for rt through a native call.
func envOf(t *testing.T, rt *art.Runtime) *art.Env {
	t.Helper()
	p := dexgen.New()
	n := p.Class("Ltpl/N;", "")
	n.Native("grab", "V")
	pkg, err := p.BuildAPK("tpl.n", "1.0", "")
	if err != nil {
		t.Fatal(err)
	}
	f, err := pkg.DexFile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.LoadDex(f); err != nil {
		t.Fatal(err)
	}
	var env *art.Env
	rt.RegisterNative("Ltpl/N;->grab()V", func(e *art.Env, _ *art.Object, _ []art.Value) (art.Value, error) {
		env = e
		return art.Value{}, nil
	})
	if _, err := rt.Call("Ltpl/N;", "grab", "()V", nil, nil); err != nil {
		t.Fatal(err)
	}
	return env
}

// TestLoadTemplateChecksRuntime rejects a template linked for another
// device and a runtime that already linked a DEX.
func TestLoadTemplateChecksRuntime(t *testing.T) {
	pkg := buildCounterApp(t)
	tmpl, err := art.NewAppTemplate(art.DefaultPhone(), pkg)
	if err != nil {
		t.Fatal(err)
	}
	if err := art.NewRuntime(art.EmulatorDevice()).LoadTemplate(tmpl); err == nil {
		t.Error("a template linked for the phone loaded into an emulator runtime")
	}
	rt := art.NewRuntime(art.DefaultPhone())
	if err := rt.LoadAPK(pkg); err != nil {
		t.Fatal(err)
	}
	if err := rt.LoadTemplate(tmpl); err == nil {
		t.Error("a template loaded into a runtime that already linked the app")
	}
}

// TestNewArrayLimits throws NegativeArraySizeException for a negative
// length and OutOfMemoryError past MaxArrayLength, both before allocating:
// a length one past the cap would cost 32 MiB if the check were missing.
func TestNewArrayLimits(t *testing.T) {
	rt := art.NewRuntime(art.DefaultPhone())
	for _, tc := range []struct {
		n    int
		want string
	}{
		{-1, "Ljava/lang/NegativeArraySizeException;"},
		{art.MaxArrayLength + 1, "Ljava/lang/OutOfMemoryError;"},
	} {
		_, err := rt.NewArray("[I", tc.n)
		var thrown *art.ThrownError
		if !errors.As(err, &thrown) || thrown.Obj.Class.Descriptor != tc.want {
			t.Errorf("NewArray(%d) = %v, want a thrown %s", tc.n, err, tc.want)
		}
	}
	if arr, err := rt.NewArray("[I", 3); err != nil || len(arr.Elems) != 3 {
		t.Errorf("NewArray(3) = %v, %v", arr, err)
	}
	// The exceptions are framework classes an app can catch by type.
	for _, desc := range []string{"Ljava/lang/NegativeArraySizeException;", "Ljava/lang/OutOfMemoryError;"} {
		c, err := rt.FindClass(desc)
		if err != nil {
			t.Fatal(err)
		}
		want := "Ljava/lang/RuntimeException;"
		if desc == "Ljava/lang/OutOfMemoryError;" {
			want = "Ljava/lang/Error;"
		}
		if sup, _ := rt.FindClass(want); !c.IsSubclassOf(sup) {
			t.Errorf("%s is not a %s", desc, want)
		}
	}
}
