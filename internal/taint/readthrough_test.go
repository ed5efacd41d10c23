package taint_test

import (
	"reflect"
	"testing"

	"dexlego/internal/bytecode"
	"dexlego/internal/dex"
	"dexlego/internal/dexgen"
	"dexlego/internal/taint"
)

// readNonce makes every body of a read-through test new to the process, also
// when the test repeats under -count.
var readNonce int64

// TestAnalyzeReadsThroughProgramCache checks that the taint model decodes
// through the process program cache without filling it, and that every
// profile finds the same flows on a cold and a warm cache.
func TestAnalyzeReadsThroughProgramCache(t *testing.T) {
	readNonce++
	p := dexgen.New()
	cls := p.Class("Lrt/Main;", "Landroid/app/Activity;")
	cls.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.Const(3, 0x4321+readNonce)
		a.GetIMEI(0, 1)
		a.InvokeStatic("Lrt/Main;", "leak", "(Ljava/lang/String;)V", 0)
		a.ReturnVoid()
	})
	cls.Static("leak", "V", []string{"Ljava/lang/String;"}, func(a *dexgen.Asm) {
		a.Const(3, 0x4321+readNonce)
		a.LogLeak("t", a.P(0), 2)
		a.ReturnVoid()
	})
	f := finish(t, p)
	var bodies [][]uint16
	for _, list := range [][]dex.EncodedMethod{f.Classes[0].DirectMeths, f.Classes[0].VirtualMeths} {
		for _, em := range list {
			if bytecode.Read(em.Code.Insns) == bytecode.Read(em.Code.Insns) {
				t.Fatalf("body of %s is already in the process cache", f.MethodAt(em.Method).Key())
			}
			bodies = append(bodies, em.Code.Insns)
		}
	}
	analyze := func() []*taint.Result {
		var out []*taint.Result
		for _, prof := range taint.Profiles() {
			res, err := taint.Analyze([]*dex.File{f}, prof)
			if err != nil {
				t.Fatalf("%s: %v", prof.Name, err)
			}
			out = append(out, res)
		}
		return out
	}

	before := bytecode.CachedPrograms()
	cold := analyze()
	if got := bytecode.CachedPrograms(); got != before {
		t.Fatalf("cold Analyze changed the process cache size from %d to %d", before, got)
	}
	for _, res := range cold {
		if !res.Leaky() {
			t.Fatalf("%s found no flow on the cold cache", res.Tool)
		}
	}
	for _, insns := range bodies {
		bytecode.Cached(insns)
	}
	if warm := analyze(); !reflect.DeepEqual(cold, warm) {
		t.Errorf("cold and warm caches differ:\ncold %+v\nwarm %+v", cold, warm)
	}
}
