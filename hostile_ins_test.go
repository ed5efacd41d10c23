package dexlego_test

import (
	"errors"
	"strings"
	"testing"

	root "dexlego"
	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/dex"
	"dexlego/internal/dexgen"
)

// shortInsApp builds an activity whose onCreate calls a static wide(JI)V
// that logs, then sets wide's ins_size to 1, below the 3 words its
// prototype takes. It returns the APK and its DEX.
func shortInsApp(t *testing.T) (*apk.APK, *dex.File) {
	t.Helper()
	const desc = "Lshort/Main;"
	p := dexgen.New()
	cls := p.Class(desc, "Landroid/app/Activity;")
	cls.Ctor("Landroid/app/Activity;", nil)
	cls.Static("wide", "V", []string{"J", "I"}, func(a *dexgen.Asm) {
		a.ConstString(0, "called")
		a.LogLeak("wide", 0, 1)
		a.ReturnVoid()
	})
	cls.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.Const(0, 7)
		a.Const(1, 0)
		a.Const(2, 5)
		a.InvokeStatic(desc, "wide", "(JI)V", 0, 1, 2)
		a.ReturnVoid()
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f.FindMethod(desc, "wide", "(JI)V").Code.InsSize = 1
	data, err := f.Write()
	if err != nil {
		t.Fatal(err)
	}
	pkg := apk.New("short", "1.0", desc)
	pkg.SetDex(data)
	return pkg, f
}

// TestShortInsSize: a code item whose ins_size is below its prototype's
// words is reported by dex.Verify, throws VerifyError when invoked instead
// of receiving misplaced arguments, and reveals, forced or not, to an error
// or to a DEX that verifies and behaves as the input.
func TestShortInsSize(t *testing.T) {
	pkg, f := shortInsApp(t)
	const want = "dex: verify Lshort/Main;->wide(JI)V: ins 1, but its prototype takes 3"
	var got []string
	for _, err := range dex.Verify(f) {
		got = append(got, err.Error())
	}
	if len(got) != 1 || got[0] != want {
		t.Errorf("verify defects %q, want [%q]", got, want)
	}

	rt := art.NewRuntime(art.DefaultPhone())
	if err := rt.LoadAPK(pkg); err != nil {
		t.Fatal(err)
	}
	_, err := rt.Call("Lshort/Main;", "wide", "(JI)V", nil, []art.Value{art.IntVal(7), art.IntVal(0), art.IntVal(5)})
	var thrown *art.ThrownError
	if !errors.As(err, &thrown) || thrown.Obj.Class.Descriptor != "Ljava/lang/VerifyError;" ||
		!strings.Contains(err.Error(), "declares ins 1, its prototype takes 3") {
		t.Errorf("invoking wide: got %v, want a VerifyError naming its ins", err)
	}
	if sinks := rt.Sinks(); len(sinks) != 0 {
		t.Errorf("wide ran and logged %+v", sinks)
	}

	for _, force := range []bool{false, true} {
		checkReveal(t, pkg, root.Options{ForceExecution: force, Workers: 1})
	}
}
