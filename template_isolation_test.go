package dexlego_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	root "dexlego"
	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/bytecode"
	"dexlego/internal/dex"
	"dexlego/internal/dexgen"
	"dexlego/internal/droidbench"
)

// TestForcedRunsIsolated reveals tampering apps with force execution at
// each DEXLEGO_GOLDEN_WORKERS count. Every runtime of a campaign clones one
// linked template that shares the input DEX's units, and each app tampers
// a method in every run. A tamper must reach neither the input nor another
// run: the package's DEX units are byte-identical after the reveal, every
// runtime first enters the tampered method with the input's units, and an
// app static one run writes is absent when any other run first enters the
// method. The DEX is compared after every tamper and after the reveal.
// SelfModifying1 is the paper's Code 1; its campaign is the
// baseline alone, so a second app adds a branch the baseline never takes,
// which forces sibling runs.
func TestForcedRunsIsolated(t *testing.T) {
	if testing.Short() {
		t.Skip("forced reveals are slow under -short")
	}
	s := droidbench.ByName("SelfModifying1")
	if s == nil {
		t.Fatal("sample SelfModifying1 missing")
	}
	for _, workers := range goldenWorkers(t) {
		t.Run(fmt.Sprintf("SelfModifying1/workers=%d", workers), func(t *testing.T) {
			pkg, err := s.Build()
			if err != nil {
				t.Fatal(err)
			}
			checkIsolated(t, pkg, s.Natives(), "Lde/droidbench/SelfModifying1;", "advancedLeak", "()V", workers, 1)
		})
		t.Run(fmt.Sprintf("branching/workers=%d", workers), func(t *testing.T) {
			pkg, natives := tamperBranchApp(t)
			checkIsolated(t, pkg, natives, "Liso/Main;", "pick", "()I", workers, 2)
		})
	}
}

// tamperBranchApp builds an activity whose onCreate calls pick(), then a
// native that rewrites pick's const/4 v0, 1 into const/4 v0, 2, then
// branches on a static the baseline never sets.
func tamperBranchApp(t *testing.T) (*apk.APK, map[string]art.NativeFunc) {
	t.Helper()
	const desc = "Liso/Main;"
	p := dexgen.New()
	cls := p.Class(desc, "Landroid/app/Activity;")
	cls.Ctor("Landroid/app/Activity;", nil)
	cls.StaticInt("flag", 0)
	cls.Bodyless("tamper", "V", nil, dex.AccPublic|dex.AccNative)
	cls.Virtual("pick", "I", nil, func(a *dexgen.Asm) {
		a.Const(0, 1)
		a.Return(0)
	})
	cls.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.InvokeVirtual(desc, "pick", "()I", a.This())
		a.InvokeVirtual(desc, "tamper", "()V", a.This())
		a.SGetInt(0, desc, "flag")
		a.IfZ(bytecode.OpIfEqz, 0, "end")
		a.ConstString(1, "forced")
		a.LogLeak("iso", 1, 2)
		a.Label("end")
		a.ReturnVoid()
	})
	pkg, err := p.BuildAPK("iso", "1.0", desc)
	if err != nil {
		t.Fatal(err)
	}
	natives := map[string]art.NativeFunc{
		desc + "->tamper()V": func(env *art.Env, _ *art.Object, _ []art.Value) (art.Value, error) {
			return art.Value{}, env.TamperMethod(desc, "pick", func(insns []uint16) []uint16 {
				if in, _, err := bytecode.Decode(insns, 0); err != nil || in.Op != bytecode.OpConst4 {
					t.Errorf("pick starts with %v (%v), want const/4", in.Op, err)
					return nil
				}
				insns[0] = insns[0]&0x0fff | 2<<12
				return nil
			})
		},
	}
	return pkg, natives
}

// checkIsolated runs one forced reveal of pkg and checks that no run saw
// another run's tamper of desc->method(sig) or its write of an app static,
// and that the package's DEX is unchanged. The campaign must make at least
// minRuntimes runtimes and tamper in each.
func checkIsolated(t *testing.T, pkg *apk.APK, natives map[string]art.NativeFunc, desc, method, sig string, workers, minRuntimes int) {
	t.Helper()
	const probe = "isolationProbe"
	f, err := pkg.DexFile()
	if err != nil {
		t.Fatal(err)
	}
	units := func(f *dex.File) [][]uint16 {
		var out [][]uint16
		for ci := range f.Classes {
			cd := &f.Classes[ci]
			for mi := range cd.NumMethods() {
				if code := cd.Method(mi).Code; code != nil {
					out = append(out, slices.Clone(code.Insns))
				}
			}
		}
		return out
	}
	before := units(f)
	em := f.FindMethod(desc, method, sig)
	if em == nil || em.Code == nil {
		t.Fatalf("%s->%s%s has no body", desc, method, sig)
	}
	body := em.Code
	want := slices.Clone(body.Insns)

	var mu sync.Mutex
	var runtimes, tampers int
	var faults []string
	fault := func(format string, args ...any) {
		mu.Lock()
		faults = append(faults, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	install := func(rt *art.Runtime) {
		mu.Lock()
		runtimes++
		id := runtimes
		mu.Unlock()
		entered := false
		rt.AddHooks(&art.Hooks{
			MethodEntered: func(m *art.Method) {
				if entered || m.Class.Descriptor != desc || m.Name != method {
					return
				}
				entered = true
				if !slices.Equal(m.Insns, want) {
					fault("runtime %d first entered %s with another run's units %v", id, method, m.Insns)
				}
				if v, ok := m.Class.Statics[probe]; ok {
					fault("runtime %d sees static %s = %d written by another run", id, probe, v.Int)
				}
				m.Class.Statics[probe] = art.IntVal(int64(id))
			},
			CodeWritten: func(*art.Method, int) {
				mu.Lock()
				tampers++
				mu.Unlock()
				// SelfModifying1 tampers twice and restores its units, so
				// the DEX is checked after every tamper, not only at the end.
				if !slices.Equal(body.Insns, want) {
					fault("runtime %d's tamper reached the package's DEX", id)
				}
			},
		})
	}
	res, err := root.Reveal(pkg, root.Options{
		Natives:        natives,
		InstallNatives: install,
		ForceExecution: true,
		Workers:        workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if errs := dex.Verify(res.RevealedDex); len(errs) != 0 {
		t.Errorf("revealed DEX fails verify: %v", errs)
	}
	for _, f := range faults {
		t.Error(f)
	}
	if runtimes < minRuntimes || tampers < runtimes {
		t.Fatalf("%d runtimes and %d tampers, want at least %d runtimes each tampering",
			runtimes, tampers, minRuntimes)
	}
	after, err := pkg.DexFile()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(before, units(after), slices.Equal) {
		t.Error("the package's DEX units changed during the reveal")
	}
}
