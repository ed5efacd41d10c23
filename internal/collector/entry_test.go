package collector_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/bytecode"
	"dexlego/internal/collector"
	"dexlego/internal/droidbench"
)

// TestEntrySize pins the collection-tree entry at a dex_pc, an instruction
// pointer and a symbol pointer: collecting an instruction copies nothing.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(collector.Entry{}); got != 24 {
		t.Errorf("unsafe.Sizeof(collector.Entry{}) = %d, want 24", got)
	}
}

// collectSamples runs a slice of the DroidBench suite (no self-modifying
// sample) with the given predecode mode and calls check with each app
// method's record and its runtime method.
func collectSamples(t *testing.T, predecode bool, check func(rec *collector.MethodRecord, m *art.Method)) {
	t.Helper()
	checked := 0
	for i, s := range droidbench.Suite() {
		if i%8 != 0 || strings.HasPrefix(s.Name, "SelfModifying") {
			continue
		}
		pkg, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		rt := art.NewRuntime(art.DefaultPhone())
		rt.SetPredecode(predecode)
		for key, fn := range s.Natives() {
			rt.RegisterNative(key, fn)
		}
		s.InstallNatives(rt)
		col := collector.New()
		rt.AddHooks(col.Hooks())
		if err := rt.LoadAPK(pkg); err != nil {
			t.Fatal(err)
		}
		if activity, err := rt.LaunchActivity(); err == nil {
			for _, id := range rt.Clickables() {
				_ = rt.PerformClick(id)
			}
			_ = rt.FinishActivity(activity)
		}
		for _, rec := range col.Result().Methods {
			if rec.Written || !rec.Executed() {
				continue
			}
			cl, err := rt.FindClass(rec.Class)
			if err != nil {
				t.Fatal(err)
			}
			m := cl.FindMethod(rec.Name, rec.Signature)
			if m == nil {
				t.Fatalf("%s: no runtime method", rec.Key())
			}
			check(rec, m)
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no method was collected")
	}
}

// TestEntriesPointIntoProgram: with predecode on, every root-layer entry is
// the process program's own instruction at its dex_pc, not a copy.
func TestEntriesPointIntoProgram(t *testing.T) {
	collectSamples(t, true, func(rec *collector.MethodRecord, m *art.Method) {
		prog := bytecode.Cached(m.Insns)
		for _, tr := range rec.Trees {
			for _, e := range tr.IL {
				d := prog.Lookup(e.DexPC)
				if d == nil || e.Inst != &d.Inst {
					t.Fatalf("%s pc %d: entry does not point at the predecoded instruction", rec.Key(), e.DexPC)
				}
			}
		}
	})
}

// TestEntriesCopyLiveDecodes: with predecode off, the interpreter hands the
// collector its decode scratch, so every entry is a distinct heap copy equal
// to a fresh decode at its dex_pc.
func TestEntriesCopyLiveDecodes(t *testing.T) {
	seen := make(map[*bytecode.Inst]bool)
	collectSamples(t, false, func(rec *collector.MethodRecord, m *art.Method) {
		prog := bytecode.Cached(m.Insns)
		for _, tr := range rec.Trees {
			for _, e := range tr.IL {
				if seen[e.Inst] {
					t.Fatalf("%s pc %d: entry shares its instruction", rec.Key(), e.DexPC)
				}
				seen[e.Inst] = true
				if d := prog.Lookup(e.DexPC); d != nil && e.Inst == &d.Inst {
					t.Fatalf("%s pc %d: entry points into a program with predecode off", rec.Key(), e.DexPC)
				}
				want, _, err := bytecode.Decode(m.Insns, e.DexPC)
				if err != nil || !e.Inst.Equal(&want) {
					t.Fatalf("%s pc %d: entry %v, decode %v (%v)", rec.Key(), e.DexPC, e.Inst, want, err)
				}
			}
		}
	})
}

// TestTamperKeepsCollectedLayer: entries collected before TamperMethod keep
// the instructions that ran, in both modes. With predecode on, the mutated
// instruction's root entry points into the program of the original units,
// which the tamper leaves intact.
func TestTamperKeepsCollectedLayer(t *testing.T) {
	p, natives := selfModProgram()
	data, err := p.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	pkg := apk.New("sm", "1", "")
	pkg.SetDex(data)
	for _, predecode := range []bool{true, false} {
		rt := art.NewRuntime(art.DefaultPhone())
		rt.SetPredecode(predecode)
		for k, fn := range natives {
			rt.RegisterNative(k, fn)
		}
		col := collector.New()
		rt.AddHooks(col.Hooks())
		if err := rt.LoadAPK(pkg); err != nil {
			t.Fatal(err)
		}
		cl, err := rt.FindClass("Lsm/P;")
		if err != nil {
			t.Fatal(err)
		}
		orig := append([]uint16(nil), cl.FindMethod("h", "()I").Insns...)
		if _, err := rt.Call("Lsm/P;", "h", "()I", nil, nil); err != nil {
			t.Fatal(err)
		}
		rec := col.Result().Methods["Lsm/P;->h()I"]
		if rec == nil || len(rec.Trees) != 1 || len(rec.Trees[0].Children) == 0 {
			t.Fatalf("predecode %v: want one forked tree, got %+v", predecode, rec)
		}
		root := rec.Trees[0]
		prog := bytecode.Cached(orig)
		sawMutated := false
		for _, e := range root.IL {
			want, _, err := bytecode.Decode(orig, e.DexPC)
			if err != nil || !e.Inst.Equal(&want) {
				t.Errorf("predecode %v pc %d: root entry %v, original %v", predecode, e.DexPC, e.Inst, want)
			}
			if e.Inst.Op == bytecode.OpAddIntLit8 && e.Inst.A == 2 {
				// The accumulator, collected before the first tamper: with
				// predecode on it points into the original program, which
				// still holds #1.
				sawMutated = true
				if e.Inst.Lit != 1 {
					t.Errorf("predecode %v: root add-int/lit8 holds #%d, want the original #1", predecode, e.Inst.Lit)
				}
				if predecode && e.Inst != &prog.Lookup(e.DexPC).Inst {
					t.Errorf("pc %d: root add-int/lit8 does not point into the original program", e.DexPC)
				}
			}
		}
		if !sawMutated {
			t.Errorf("predecode %v: the root layer lacks the mutated instruction", predecode)
		}
	}
}

// TestReadFilesRejectsEntryWithoutInst: bytecode.json is parsed from disk,
// and an entry whose "inst" is null or absent has nothing to reassemble.
func TestReadFilesRejectsEntryWithoutInst(t *testing.T) {
	res := &collector.Result{
		Classes: []collector.ClassRecord{{Descriptor: "Lx/Y;"}},
		Methods: map[string]*collector.MethodRecord{},
	}
	rec := handBuiltRecord()
	res.Methods[rec.Key()] = rec
	for _, mode := range []string{"null", "absent"} {
		dir := t.TempDir()
		if err := res.WriteFiles(dir); err != nil {
			t.Fatal(err)
		}
		if _, err := collector.ReadFiles(dir); err != nil {
			t.Fatalf("unedited files do not load: %v", err)
		}
		path := filepath.Join(dir, collector.BytecodeFile)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var codes []map[string]any
		if err := json.Unmarshal(raw, &codes); err != nil {
			t.Fatal(err)
		}
		entry := codes[0]["trees"].([]any)[0].(map[string]any)["il"].([]any)[0].(map[string]any)
		if mode == "null" {
			entry["inst"] = nil
		} else {
			delete(entry, "inst")
		}
		if raw, err = json.Marshal(codes); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := collector.ReadFiles(dir); err == nil {
			t.Errorf("inst %s: ReadFiles loaded an entry with no instruction", mode)
		}
	}
}
