package coverage_test

import (
	"reflect"
	"testing"

	"dexlego/internal/art"
	"dexlego/internal/bytecode"
	"dexlego/internal/coverage"
	"dexlego/internal/dex"
	"dexlego/internal/dexgen"
)

// readNonce makes every body of a read-through test new to the process, also
// when the test repeats under -count.
var readNonce int64

// TestNewTrackerReadsThroughProgramCache checks that NewTracker decodes
// through the process program cache without filling it, and that trackers
// built on a cold and on a warm cache give the same totals, Reports and
// uncovered branch and handler lists after the same run.
func TestNewTrackerReadsThroughProgramCache(t *testing.T) {
	readNonce++
	n := 0x1234 + readNonce
	p := dexgen.New()
	cls := p.Class("Lrt/C;", "")
	cls.Static("f", "I", []string{"I"}, func(a *dexgen.Asm) {
		a.Const(0, n)
		a.Label("ts")
		a.IfZ(bytecode.OpIfLtz, a.P(0), "neg")
		a.SparseSwitch(a.P(0), []int32{1, 7}, []string{"one", "seven"})
		a.Label("te")
		a.Return(0)
		a.Label("one")
		a.Const(0, 1)
		a.Return(0)
		a.Label("seven")
		a.Const(0, 7)
		a.Return(0)
		a.Label("neg")
		a.Const(0, -1)
		a.Return(0)
		a.Label("h")
		a.MoveException(1)
		a.Return(0)
		a.Catch("ts", "te", "Ljava/lang/ArithmeticException;", "h")
	})
	cls.Static("unused", "V", nil, func(a *dexgen.Asm) {
		a.Const(0, n)
		a.ReturnVoid()
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]uint16
	for _, em := range f.Classes[0].DirectMeths {
		if bytecode.Read(em.Code.Insns) == bytecode.Read(em.Code.Insns) {
			t.Fatalf("body of %s is already in the process cache", f.MethodAt(em.Method).Key())
		}
		bodies = append(bodies, em.Code.Insns)
	}

	before := bytecode.CachedPrograms()
	cold, err := coverage.NewTracker([]*dex.File{f})
	if err != nil {
		t.Fatal(err)
	}
	if got := bytecode.CachedPrograms(); got != before {
		t.Fatalf("cold NewTracker changed the process cache size from %d to %d", before, got)
	}
	for _, insns := range bodies {
		bytecode.Cached(insns)
	}
	warm, err := coverage.NewTracker([]*dex.File{f})
	if err != nil {
		t.Fatal(err)
	}

	same := func(when string) {
		t.Helper()
		if c, w := cold.Report(), warm.Report(); c != w {
			t.Errorf("%s: cold Report %+v, warm %+v", when, c, w)
		}
		if c, w := cold.UncoveredBranches(), warm.UncoveredBranches(); !reflect.DeepEqual(c, w) {
			t.Errorf("%s: cold UCBs %v, warm %v", when, c, w)
		}
		if c, w := cold.UncoveredHandlers(), warm.UncoveredHandlers(); !reflect.DeepEqual(c, w) {
			t.Errorf("%s: cold handlers %v, warm %v", when, c, w)
		}
	}
	same("fresh")
	if got := cold.Report(); got.Branch.Total != 2 || got.Method.Total != 2 {
		t.Fatalf("totals %+v, want 2 branch edges over 2 methods", got)
	}

	rt := art.NewRuntime(art.DefaultPhone())
	rt.AddHooks(cold.Hooks())
	rt.AddHooks(warm.Hooks())
	if _, err := rt.LoadDex(f); err != nil {
		t.Fatal(err)
	}
	for _, arg := range []int64{7, -3} {
		if _, err := rt.Call("Lrt/C;", "f", "(I)I", nil, []art.Value{art.IntVal(arg)}); err != nil {
			t.Fatal(err)
		}
	}
	same("after f(7) and f(-3)")
	if got := cold.Report(); got.Branch.Covered != 2 || got.Method.Covered != 1 || got.Class.Covered != 1 {
		t.Errorf("after the runs Report %+v, want both edges, one method, one class", got)
	}
}
