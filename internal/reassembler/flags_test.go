package reassembler_test

import (
	"testing"

	"dexlego/internal/dex"
	"dexlego/internal/dexgen"

	root "dexlego"
)

// TestRevealKeepsBodylessFlags: natives and abstract methods are declared
// with the access flags collected from the input, which also place them,
// so a private static native stays in direct_methods and a protected
// abstract method stays protected.
func TestRevealKeepsBodylessFlags(t *testing.T) {
	const (
		native   = dex.AccPrivate | dex.AccStatic | dex.AccNative
		abstract = dex.AccProtected | dex.AccAbstract
	)
	p := dexgen.New()
	base := p.ClassWithFlags("Lflags/Base;", dex.AccPublic|dex.AccAbstract, "Landroid/app/Activity;")
	base.Ctor("Landroid/app/Activity;", nil)
	base.Bodyless("value", "I", nil, abstract)
	main := p.Class("Lflags/Main;", "Lflags/Base;")
	main.Ctor("Lflags/Base;", nil)
	main.Bodyless("probe", "V", []string{"I"}, native)
	main.Virtual("value", "I", nil, func(a *dexgen.Asm) {
		a.Const(0, 1)
		a.Return(0)
	})
	main.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.InvokeVirtual("Lflags/Base;", "value", "()I", a.This())
		a.ReturnVoid()
	})
	pkg, err := p.BuildAPK("flags", "1.0", "Lflags/Main;")
	if err != nil {
		t.Fatal(err)
	}
	res, err := root.Reveal(pkg, root.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := res.RevealedDex
	find := func(class, name string) (*dex.EncodedMethod, bool) {
		cd := f.FindClass(class)
		for mi := range cd.NumMethods() {
			if em := cd.Method(mi); f.MethodAt(em.Method).Name == name {
				return em, mi < len(cd.DirectMeths)
			}
		}
		t.Fatalf("%s->%s missing from the revealed DEX", class, name)
		return nil, false
	}
	for _, tc := range []struct {
		class, name string
		flags       uint32
		direct      bool
	}{
		{"Lflags/Main;", "probe", native, true},
		{"Lflags/Base;", "value", abstract, false},
	} {
		em, direct := find(tc.class, tc.name)
		if em.AccessFlags != tc.flags || direct != tc.direct || em.Code != nil {
			t.Errorf("%s->%s: flags %#x in %s (code %v), want %#x in %s without code", tc.class, tc.name,
				em.AccessFlags, dex.MethodTable[direct], em.Code != nil, tc.flags, dex.MethodTable[tc.direct])
		}
	}
}

// TestRevealStubKeepsPrototypeIns: a never-executed method is emitted as a
// stub whose ins_size its prototype sizes, J and D taking two words each,
// so a static never(JD)V keeps ins 4 and an instance m(J)V keeps ins 3,
// and the revealed DEX passes dex.Verify.
func TestRevealStubKeepsPrototypeIns(t *testing.T) {
	p := dexgen.New()
	main := p.Class("Lstub/Main;", "Landroid/app/Activity;")
	main.Ctor("Landroid/app/Activity;", nil)
	main.Static("never", "V", []string{"J", "D"}, func(a *dexgen.Asm) { a.ReturnVoid() })
	main.Virtual("m", "V", []string{"J"}, func(a *dexgen.Asm) { a.ReturnVoid() })
	main.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) { a.ReturnVoid() })
	pkg, err := p.BuildAPK("stub", "1.0", "Lstub/Main;")
	if err != nil {
		t.Fatal(err)
	}
	res, err := root.Reveal(pkg, root.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := res.RevealedDex
	if errs := dex.Verify(f); len(errs) != 0 {
		t.Fatalf("revealed DEX fails verify: %v", errs)
	}
	for _, tc := range []struct {
		name, sig string
		ins       uint16
	}{
		{"never", "(JD)V", 4},
		{"m", "(J)V", 3},
	} {
		em := f.FindMethod("Lstub/Main;", tc.name, tc.sig)
		if em == nil || em.Code == nil {
			t.Fatalf("%s%s has no code in the revealed DEX", tc.name, tc.sig)
		}
		if em.Code.InsSize != tc.ins {
			t.Errorf("%s%s: ins %d, want %d", tc.name, tc.sig, em.Code.InsSize, tc.ins)
		}
	}
	if res.Stats.Stubs < 2 {
		t.Errorf("stubs = %d, want never and m emitted as stubs", res.Stats.Stubs)
	}
}
