package collector_test

import (
	"encoding/json"
	"sync"
	"testing"

	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/bytecode"
	"dexlego/internal/collector"
	"dexlego/internal/dexgen"
)

// selfModProgram builds a method that overwrites its own units mid-execution:
// a three-pass loop whose accumulate instruction is rewritten by a native
// between passes, so every pass observes different bytecode at the recorded
// dex_pc and Algorithm 1 forks a divergence child.
func selfModProgram() (*dexgen.Program, map[string]art.NativeFunc) {
	p := dexgen.New()
	cls := p.Class("Lsm/P;", "")
	cls.Native("step", "V", "I")
	cls.Static("h", "I", nil, func(a *dexgen.Asm) {
		a.Const(3, 0) // i
		a.Const(2, 0) // acc
		a.Label("loop")
		a.Const(4, 3)
		a.If(bytecode.OpIfGe, 3, 4, "end")
		a.BinopLit8(bytecode.OpAddIntLit8, 2, 2, 1) // mutated between passes
		a.InvokeStatic("Lsm/P;", "step", "(I)V", 3)
		a.AddLit(3, 3, 1)
		a.Goto("loop")
		a.Label("end")
		a.Return(2)
	})
	natives := map[string]art.NativeFunc{
		"Lsm/P;->step(I)V": func(env *art.Env, recv *art.Object, args []art.Value) (art.Value, error) {
			iter := args[0].Int
			return art.Value{}, env.TamperMethod("Lsm/P;", "h", func(insns []uint16) []uint16 {
				for pc := 0; pc < len(insns); {
					in, w, err := bytecode.Decode(insns, pc)
					if err != nil {
						return nil
					}
					if in.Op == bytecode.OpAddIntLit8 && in.A == 2 && in.B == 2 {
						in.Lit = iter + 2
						units, err := bytecode.Encode(&in)
						if err != nil {
							return nil
						}
						copy(insns[pc:], units)
						return nil
					}
					pc += w
				}
				return nil
			})
		},
	}
	return p, natives
}

// collectSelfMod runs the self-modifying workload on a fresh runtime with
// the given predecode mode, returning the collected trees of the mutated
// method (canonical JSON) and the number of code writes into it the runtime
// reported.
func collectSelfMod(t *testing.T, pkg *apk.APK, natives map[string]art.NativeFunc,
	predecode bool) ([]byte, int) {
	t.Helper()
	rt := art.NewRuntime(art.DefaultPhone())
	rt.SetPredecode(predecode)
	for k, fn := range natives {
		rt.RegisterNative(k, fn)
	}
	col := collector.New()
	rt.AddHooks(col.Hooks())
	writes := 0
	rt.AddHooks(&art.Hooks{
		CodeWritten: func(m *art.Method, pc int) {
			if m.Key() == "Lsm/P;->h()I" {
				writes++
			}
		},
	})
	if err := rt.LoadAPK(pkg); err != nil {
		t.Fatal(err)
	}
	r, err := rt.Call("Lsm/P;", "h", "()I", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Int != 6 { // passes accumulate 1, 2, 3
		t.Fatalf("h() = %d, want 6", r.Int)
	}
	rec := col.Result().Methods["Lsm/P;->h()I"]
	if rec == nil {
		t.Fatal("no record for the self-modifying method")
	}
	trees, err := json.Marshal(rec.Trees)
	if err != nil {
		t.Fatal(err)
	}
	return trees, writes
}

// TestSelfModificationInvalidatesAndMatchesReference is the differential
// self-modification test of the predecoded interpreter: a method that
// overwrites its own units mid-execution must (1) report the same code
// writes in both modes — each one drops the predecoded stream — and (2) fork
// the exact same collection tree the reference decode-per-step interpreter
// produces.
func TestSelfModificationInvalidatesAndMatchesReference(t *testing.T) {
	p, natives := selfModProgram()
	data, err := p.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	pkg := apk.New("sm", "1", "")
	pkg.SetDex(data)

	ref, refWrites := collectSelfMod(t, pkg, natives, false)
	fast, writes := collectSelfMod(t, pkg, natives, true)
	if refWrites == 0 || writes != refWrites {
		t.Errorf("code writes: reference %d, predecoded %d; want equal and non-zero", refWrites, writes)
	}
	if string(ref) != string(fast) {
		t.Errorf("collection trees diverge between interpreters:\n ref:  %s\n fast: %s", ref, fast)
	}
}

// TestSelfModificationSharedCacheParallel runs the same self-modifying
// workload on several runtimes concurrently, all resolving through the
// runtime's process-wide program cache — the worker-shard configuration of
// force execution (Options.Workers > 1). Every shard must observe its own
// code writes and collect the reference tree; run under -race this also
// proves the cache sharing is sound while methods are being tampered.
func TestSelfModificationSharedCacheParallel(t *testing.T) {
	p, natives := selfModProgram()
	data, err := p.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	pkg := apk.New("sm", "1", "")
	pkg.SetDex(data)
	ref, refWrites := collectSelfMod(t, pkg, natives, false)

	const shards = 4
	results := make([][]byte, shards)
	writes := make([]int, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], writes[i] = collectSelfMod(t, pkg, natives, true)
		}(i)
	}
	wg.Wait()
	for i := 0; i < shards; i++ {
		if writes[i] == 0 || writes[i] != refWrites {
			t.Errorf("shard %d saw %d code writes, want %d", i, writes[i], refWrites)
		}
		if string(results[i]) != string(ref) {
			t.Errorf("shard %d trees diverge from the reference interpreter", i)
		}
	}
}
