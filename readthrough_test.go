package dexlego_test

import (
	"maps"
	"testing"

	root "dexlego"
	"dexlego/internal/bytecode"
	"dexlego/internal/dexgen"
)

// readNonce makes every body of a read-through test new to the process, also
// when the test repeats under -count.
var readNonce int64

// TestMethodFingerprintsReadThroughProgramCache checks that MethodFingerprints
// decodes through the process program cache without filling it, and gives the
// same fingerprints on a cold and a warm cache, an undecodable body included.
func TestMethodFingerprintsReadThroughProgramCache(t *testing.T) {
	readNonce++
	n := 0x2468 + readNonce
	p := dexgen.New()
	cls := p.Class("Lrt/Fp;", "")
	cls.Static("a", "V", nil, func(a *dexgen.Asm) {
		a.Const(0, n)
		a.InvokeStatic("Lrt/Fp;", "b", "()V")
		a.ReturnVoid()
	})
	cls.Static("b", "V", nil, func(a *dexgen.Asm) {
		a.Const(0, n)
		a.InvokeStatic("Lrt/Fp;", "a", "()V")
		a.ReturnVoid()
	})
	cls.Static("junk", "V", nil, func(a *dexgen.Asm) {
		a.Const(0, n)
		a.ReturnVoid()
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	junk := f.Classes[0].DirectMeths[2].Code
	junk.Insns = append(junk.Insns[:len(junk.Insns)-1], 0xffff, 0x000e) // undecodable tail
	var bodies [][]uint16
	for _, em := range f.Classes[0].DirectMeths {
		if bytecode.Read(em.Code.Insns) == bytecode.Read(em.Code.Insns) {
			t.Fatalf("body of %s is already in the process cache", f.MethodAt(em.Method).Key())
		}
		bodies = append(bodies, em.Code.Insns)
	}

	before := bytecode.CachedPrograms()
	cold := root.MethodFingerprints(f)
	if got := bytecode.CachedPrograms(); got != before {
		t.Fatalf("cold MethodFingerprints changed the process cache size from %d to %d", before, got)
	}
	if len(cold) != 3 {
		t.Fatalf("%d fingerprints, want 3", len(cold))
	}
	for _, insns := range bodies {
		bytecode.Cached(insns)
	}
	if warm := root.MethodFingerprints(f); !maps.Equal(cold, warm) {
		t.Errorf("cold and warm caches differ:\ncold %v\nwarm %v", cold, warm)
	}
}
