package dexlego_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	root "dexlego"
	"dexlego/internal/apk"
	"dexlego/internal/bytecode"
	"dexlego/internal/dex"
	"dexlego/internal/dexgen"
	"dexlego/internal/droidbench"
)

// junkUnits is a body no decoder accepts: an unknown opcode at pc 0. Packers
// and self-modifying shells ship such bodies and rewrite them at run time.
var junkUnits = []uint16{0xffff, 0xffff, 0x000e}

// junkBodyApp builds an activity whose onCreate branches on a constant and
// whose static never()V is never called and has the junk body. The builder
// rejects undecodable bodies, so the junk units replace a placeholder after
// Finish.
func junkBodyApp(t *testing.T) *apk.APK {
	t.Helper()
	const desc = "Lx/Main;"
	p := dexgen.New()
	cls := p.Class(desc, "Landroid/app/Activity;")
	cls.Ctor("Landroid/app/Activity;", nil)
	cls.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.Const(0, 0)
		a.IfZ(bytecode.OpIfNez, 0, "skip")
		a.Const(0, 1)
		a.Label("skip")
		a.ReturnVoid()
	})
	cls.Static("never", "V", nil, func(a *dexgen.Asm) {
		a.Const(0, 0)
		a.Const(0, 0)
		a.ReturnVoid()
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	patched := false
	for ci := range f.Classes {
		for mi := range f.Classes[ci].DirectMeths {
			em := &f.Classes[ci].DirectMeths[mi]
			if f.MethodAt(em.Method).Name == "never" {
				em.Code.Insns = slices.Clone(junkUnits)
				patched = true
			}
		}
	}
	if !patched {
		t.Fatal("never()V not found")
	}
	data, err := f.Write()
	if err != nil {
		t.Fatal(err)
	}
	pkg := apk.New("x.junk", "1.0", desc)
	pkg.SetDex(data)
	return pkg
}

// TestForcedRevealToleratesUndecodableBody reveals the junk-body app with
// force execution at every golden worker count. The reveal must succeed, and
// the coverage totals must count never()V as a method with no instructions:
// coverage counts the stream the interpreter can run, which for the junk body
// is empty.
func TestForcedRevealToleratesUndecodableBody(t *testing.T) {
	pkg := junkBodyApp(t)
	f, err := pkg.DexFile()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range goldenWorkers(t) {
		res, err := root.Reveal(pkg, root.Options{ForceExecution: true, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		cov := res.Coverage
		if cov == nil {
			t.Fatalf("workers=%d: forced reveal returned no coverage", workers)
		}
		// <init>, onCreate and never: three methods; the first two hold
		// 2 + 4 instructions, never()V holds none.
		if cov.Method.Total != 3 || cov.Method.Total != f.MethodCount() {
			t.Errorf("workers=%d: method total %d, want 3 (file declares %d)",
				workers, cov.Method.Total, f.MethodCount())
		}
		if cov.Instruction.Total != 6 || cov.Instruction.Total != f.InstructionCount() {
			t.Errorf("workers=%d: instruction total %d, want 6 (file counts %d)",
				workers, cov.Instruction.Total, f.InstructionCount())
		}
		if cov.Instruction.Covered != cov.Instruction.Total {
			t.Errorf("workers=%d: forced reveal covered %v instructions, want all", workers, cov.Instruction)
		}
	}
}

// methodFPPin is the SHA-256 over the sorted method fingerprints of the
// pinned apps. Persisted method-cache keys are built from these bytes, so a
// change here invalidates every stored entry: it needs a methodfp version
// bump, not a new pin.
const methodFPPin = "370c1a9371e8107dba605d3666f6e7539ceeb9623f22caa866589fb705192cc0"

// TestMethodFingerprintsPinned pins the methodfp/v1 encoding over a few
// golden-corpus samples, one with a switch and one with try/catch among
// them, and the junk-body app, whose never()V takes the raw-units path.
func TestMethodFingerprintsPinned(t *testing.T) {
	var files []*dex.File
	for _, name := range []string{"DirectLeak1", "SwitchFlow1", "CatchFlow1", "Reflection3", "SelfModifying1"} {
		s := droidbench.ByName(name)
		if s == nil {
			t.Fatalf("sample %q missing", name)
		}
		pkg, err := s.Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f, err := pkg.DexFile()
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	f, err := junkBodyApp(t).DexFile()
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, f)

	h := sha256.New()
	for i, f := range files {
		fps := root.MethodFingerprints(f)
		keys := make([]string, 0, len(fps))
		for key := range fps {
			keys = append(keys, key)
		}
		slices.Sort(keys)
		for _, key := range keys {
			fmt.Fprintf(h, "%d|%s=%s\n", i, key, fps[key])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != methodFPPin {
		t.Errorf("method fingerprint digest %s, want %s", got, methodFPPin)
	}
}
