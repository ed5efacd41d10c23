package dexlego_test

import (
	"os"
	"path/filepath"
	"testing"

	root "dexlego"
	"dexlego/internal/apimodel"
	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/bytecode"
	"dexlego/internal/collector"
	"dexlego/internal/dexgen"
)

func buildGatedLeakAPK(t *testing.T) *apk.APK {
	t.Helper()
	p := dexgen.New()
	cls := p.Class("Lapi/Main;", "Landroid/app/Activity;")
	cls.Ctor("Landroid/app/Activity;", nil)
	cls.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.GetIMEI(0, 1)
		a.LogLeak("api", 0, 2)
		// A second leak behind a never-true branch: only force execution
		// collects it.
		a.Const(3, 0)
		a.IfZ(bytecode.OpIfEqz, 3, "skip")
		a.SendSMS("555", 0, 0)
		a.Label("skip")
		a.ReturnVoid()
	})
	pkg, err := p.BuildAPK("api", "1.0", "Lapi/Main;")
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func TestRevealWritesCollectionFiles(t *testing.T) {
	pkg := buildGatedLeakAPK(t)
	dir := t.TempDir()
	res, err := root.Reveal(pkg, root.Options{CollectDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		collector.ClassDataFile, collector.StaticValuesFile,
		collector.MethodDataFile, collector.FieldDataFile, collector.BytecodeFile,
	} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("collection file %s missing: %v", name, err)
		}
	}
	if len(res.Sinks) == 0 {
		t.Error("no sink events recorded")
	}
	reloaded, err := collector.ReadFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(reloaded.Methods) != len(res.Collection.Methods) {
		t.Errorf("reloaded %d methods, want %d",
			len(reloaded.Methods), len(res.Collection.Methods))
	}
}

func TestRevealWithForceExecutionCoversGatedLeak(t *testing.T) {
	pkg := buildGatedLeakAPK(t)
	plain, err := root.Reveal(pkg, root.Options{})
	if err != nil {
		t.Fatal(err)
	}
	forced, err := root.Reveal(pkg, root.Options{ForceExecution: true})
	if err != nil {
		t.Fatal(err)
	}
	countSMS := func(res *root.Result) int {
		n := 0
		em := res.RevealedDex.FindMethod("Lapi/Main;", "onCreate", "")
		prog := bytecode.Predecode(em.Code.Insns)
		placed := prog.Insts()
		if err := prog.Err(); err != nil {
			t.Fatal(err)
		}
		for _, pl := range placed {
			if pl.Inst.Op.IsInvoke() &&
				res.RevealedDex.MethodAt(pl.Inst.Index).Name == "sendTextMessage" {
				n++
			}
		}
		return n
	}
	if got := countSMS(plain); got != 0 {
		t.Errorf("plain reveal contains %d SMS calls, want 0 (gated code not executed)", got)
	}
	if got := countSMS(forced); got == 0 {
		t.Error("forced reveal lost the gated SMS call")
	}
	if forced.Coverage == nil || forced.Coverage.Instruction.Percent() <
		float64(80) {
		t.Errorf("forced coverage = %+v", forced.Coverage)
	}
}

func TestRevealWithFuzz(t *testing.T) {
	pkg := buildGatedLeakAPK(t)
	res, err := root.Reveal(pkg, root.Options{Fuzz: true, FuzzSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ExecutedMethods == 0 {
		t.Error("nothing executed under fuzzing")
	}
}

func TestRevealCustomDeviceAndDriver(t *testing.T) {
	pkg := buildGatedLeakAPK(t)
	dev := art.EmulatorDevice()
	driven := false
	res, err := root.Reveal(pkg, root.Options{
		Device: &dev,
		Driver: func(rt *art.Runtime) error {
			driven = true
			_, err := rt.LaunchActivity()
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !driven {
		t.Error("custom driver not used")
	}
	for _, ev := range res.Sinks {
		if ev.Taint.Has(apimodel.TaintIMEI) && ev.Args[1] != art.EmulatorDevice().IMEI {
			t.Errorf("device not applied: leaked %q", ev.Args[1])
		}
	}
}

func TestRevealErrors(t *testing.T) {
	empty := apk.New("x", "1", "LMain;")
	if _, err := root.Reveal(empty, root.Options{}); err == nil {
		t.Error("reveal of dexless APK must fail")
	}
	bad := apk.New("x", "1", "LMain;")
	bad.SetDex([]byte("garbage"))
	if _, err := root.Reveal(bad, root.Options{ForceExecution: true}); err == nil {
		t.Error("force execution on unparsable dex must fail")
	}
}

// TestRevealKeepsSwitchPayloadVariants rewrites a packed-switch payload
// between two calls that take the same case. The two executions differ
// only in the untaken case's target, which Inst.Equal sees, so the
// revealed record must hold both trees instead of dropping the second as a
// fingerprint duplicate.
func TestRevealKeepsSwitchPayloadVariants(t *testing.T) {
	const cls, key = "Lsw/S;", "Lsw/S;->pick(I)I"
	p := dexgen.New()
	c := p.Class(cls, "")
	c.Native("retarget", "V")
	c.Static("pick", "I", []string{"I"}, func(a *dexgen.Asm) {
		a.PackedSwitch(a.P(0), 0, []string{"c0", "c1"})
		a.Const(0, -1)
		a.Return(0)
		a.Label("c0")
		a.Const(0, 10)
		a.Return(0)
		a.Label("c1")
		a.Const(0, 11)
		a.Return(0)
	})
	data, err := p.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	pkg := apk.New("sw", "1", "")
	pkg.SetDex(data)

	natives := map[string]art.NativeFunc{
		cls + "->retarget()V": func(env *art.Env, recv *art.Object, args []art.Value) (art.Value, error) {
			return art.Value{}, env.TamperMethod(cls, "pick", func(insns []uint16) []uint16 {
				in, _, err := bytecode.Decode(insns, 0)
				if err != nil || in.Op != bytecode.OpPackedSwitch {
					t.Fatalf("pc 0 is %v (%v), want packed-switch", in.Op, err)
				}
				in.Targets[1] = in.Targets[0] // case 1 now jumps where case 0 does
				units, err := bytecode.EncodePayload(&in)
				if err != nil {
					t.Fatal(err)
				}
				copy(insns[in.Off:], units)
				return nil
			})
		},
	}
	pick := func(rt *art.Runtime) error {
		r, err := rt.Call(cls, "pick", "(I)I", nil, []art.Value{art.IntVal(0)})
		if err == nil && r.Int != 10 {
			t.Errorf("pick(0) = %d, want 10", r.Int)
		}
		return err
	}
	res, err := root.Reveal(pkg, root.Options{
		Natives: natives,
		Driver: func(rt *art.Runtime) error {
			if err := pick(rt); err != nil {
				return err
			}
			if _, err := rt.Call(cls, "retarget", "()V", nil, nil); err != nil {
				return err
			}
			return pick(rt)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Collection.Methods[key]
	if rec == nil {
		t.Fatalf("%s was not collected", key)
	}
	if len(rec.Trees) != 2 {
		t.Fatalf("%s holds %d trees, want 2 (one per switch payload)", key, len(rec.Trees))
	}
	a, b := rec.Trees[0].IL[0].Inst, rec.Trees[1].IL[0].Inst
	if a.Equal(b) {
		t.Errorf("both trees carry the same switch: %v", a.Targets)
	}
}
