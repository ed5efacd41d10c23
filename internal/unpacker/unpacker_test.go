package unpacker_test

import (
	"testing"

	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/bytecode"
	"dexlego/internal/dex"
	"dexlego/internal/dexgen"
	"dexlego/internal/packer"
	"dexlego/internal/unpacker"
)

func buildVictim(t *testing.T) *apk.APK {
	t.Helper()
	p := dexgen.New()
	main := p.Class("Lvic/Main;", "Landroid/app/Activity;")
	main.Ctor("Landroid/app/Activity;", nil)
	main.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.GetIMEI(0, 1)
		a.LogLeak("vic", 0, 2)
		a.ReturnVoid()
	})
	pkg, err := p.BuildAPK("vic", "1.0", "Lvic/Main;")
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func findDumpedClass(files []*dex.File, desc string) *dex.File {
	for _, f := range files {
		if f.FindClass(desc) != nil {
			return f
		}
	}
	return nil
}

func TestDexHunterRecoversWholeDexPackers(t *testing.T) {
	for _, name := range []string{"360", "Alibaba", "Baidu"} {
		t.Run(name, func(t *testing.T) {
			pk, err := packer.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			packed, err := pk.Pack(buildVictim(t))
			if err != nil {
				t.Fatal(err)
			}
			files, err := unpacker.DexHunter().Unpack(packed, pk.InstallNatives, nil)
			if err != nil {
				t.Fatal(err)
			}
			f := findDumpedClass(files, "Lvic/Main;")
			if f == nil {
				t.Fatal("dump does not contain the original class")
			}
			em := f.FindMethod("Lvic/Main;", "onCreate", "(Landroid/os/Bundle;)V")
			if em == nil || em.Code == nil || len(em.Code.Insns) < 6 {
				t.Fatal("dumped onCreate has no recovered body")
			}
		})
	}
}

func TestDumperDefeatedByBangcle(t *testing.T) {
	pk, err := packer.ByName("Bangcle")
	if err != nil {
		t.Fatal(err)
	}
	packed, err := pk.Pack(buildVictim(t))
	if err != nil {
		t.Fatal(err)
	}
	files, err := unpacker.AppSpear().Unpack(packed, pk.InstallNatives, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := findDumpedClass(files, "Lvic/Main;")
	if f == nil {
		t.Fatal("structure should still be visible")
	}
	em := f.FindMethod("Lvic/Main;", "onCreate", "(Landroid/os/Bundle;)V")
	if em == nil {
		t.Fatal("onCreate missing")
	}
	if len(em.Code.Insns) > 2 {
		t.Errorf("dump recovered %d units; Bangcle should have re-scrambled them", len(em.Code.Insns))
	}
}

// TestDumperMissesSelfModifyingFlow shows the method-level blindness: the
// dump contains only the final (restored) state of the tampered method.
func TestDumperMissesSelfModifyingFlow(t *testing.T) {
	p := dexgen.New()
	main := p.Class("Lsm/Main;", "Landroid/app/Activity;")
	main.Ctor("Landroid/app/Activity;", nil)
	main.Bodyless("tamper", "V", nil, dex.AccPublic|dex.AccNative)
	main.Virtual("mark", "V", nil, func(a *dexgen.Asm) { a.ReturnVoid() })
	main.Virtual("evil", "V", nil, func(a *dexgen.Asm) { a.ReturnVoid() })
	main.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.Label("site")
		a.InvokeVirtual("Lsm/Main;", "mark", "()V", a.This())
		a.InvokeVirtual("Lsm/Main;", "tamper", "()V", a.This())
		a.ReturnVoid()
	})
	pkg, err := p.BuildAPK("sm", "1.0", "Lsm/Main;")
	if err != nil {
		t.Fatal(err)
	}
	// The tamper native swaps the already-executed mark() call for evil():
	// the live array afterwards shows evil(), but it never ran.
	install := func(rt *art.Runtime) {
		rt.RegisterNative("Lsm/Main;->tamper()V",
			func(env *art.Env, recv *art.Object, args []art.Value) (art.Value, error) {
				return art.Value{}, env.TamperMethod("Lsm/Main;", "onCreate",
					func(insns []uint16) []uint16 {
						f := env.Runtime().LoadedDexes()[0]
						for pc := 0; pc < len(insns); {
							in, w, err := bytecode.Decode(insns, pc)
							if err != nil {
								return nil
							}
							if in.Op == bytecode.OpInvokeVirtual &&
								f.MethodAt(in.Index).Name == "mark" {
								for mi := range f.Methods {
									if f.MethodAt(uint32(mi)).Name == "evil" {
										insns[pc+1] = uint16(mi)
									}
								}
								return nil
							}
							pc += w
						}
						return nil
					})
			})
	}
	files, err := unpacker.DexHunter().Unpack(pkg, install, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := findDumpedClass(files, "Lsm/Main;")
	em := f.FindMethod("Lsm/Main;", "onCreate", "(Landroid/os/Bundle;)V")
	prog := bytecode.Predecode(em.Code.Insns)
	placed := prog.Insts()
	if err := prog.Err(); err != nil {
		t.Fatal(err)
	}
	sawMark, sawEvil := false, false
	for _, pl := range placed {
		if !pl.Inst.Op.IsInvoke() {
			continue
		}
		switch f.MethodAt(pl.Inst.Index).Name {
		case "mark":
			sawMark = true
		case "evil":
			sawEvil = true
		}
	}
	// The dump holds exactly one state: the post-modification one. The
	// executed mark() call is gone — the method-level blind spot.
	if sawMark || !sawEvil {
		t.Errorf("dump state: mark=%v evil=%v; want only the tampered state", sawMark, sawEvil)
	}
}

func TestDumpCapturesDynamicallyLoadedDex(t *testing.T) {
	payload := dexgen.New()
	payload.Class("Ldynp/P;", "").Static("f", "I", nil, func(a *dexgen.Asm) {
		a.Const(0, 5)
		a.Return(0)
	})
	payloadBytes, err := payload.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	p := dexgen.New()
	host := p.Class("Ldynh/Main;", "Landroid/app/Activity;")
	host.Ctor("Landroid/app/Activity;", nil)
	host.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.NewInstance(0, "Ldalvik/system/DexClassLoader;")
		a.ConstString(1, "p.dex")
		a.InvokeDirect("Ldalvik/system/DexClassLoader;", "<init>", "(Ljava/lang/String;)V", 0, 1)
		a.InvokeStatic("Ldynp/P;", "f", "()I")
		a.ReturnVoid()
	})
	pkg, err := p.BuildAPK("dynh", "1.0", "Ldynh/Main;")
	if err != nil {
		t.Fatal(err)
	}
	pkg.AddAsset("p.dex", payloadBytes)
	files, err := unpacker.DexHunter().Unpack(pkg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 2 {
		t.Fatalf("dumped %d dex files, want host + dynamically loaded payload", len(files))
	}
	if findDumpedClass(files, "Ldynp/P;") == nil {
		t.Error("dynamically loaded class not captured by the dump")
	}
}
