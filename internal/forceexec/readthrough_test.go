package forceexec

import (
	"reflect"
	"testing"

	"dexlego/internal/bytecode"
	"dexlego/internal/dex"
)

// readNonce makes every body of a read-through test new to the process, also
// when the test repeats under -count.
var readNonce uint16

// TestBuildPathsReadsThroughProgramCache checks that path building decodes
// through the process program cache without filling it, and builds the same
// paths on a cold and a warm cache.
func TestBuildPathsReadsThroughProgramCache(t *testing.T) {
	readNonce++
	codes := []*dex.Code{
		{Insns: []uint16{
			0x0013, readNonce, // const/16 v0, n
			0x0038, 4, // if-eqz v0, +4
			0x0039, 3, // if-nez v0, +3
			0x000e, // return-void
			0xff28, // goto -1
		}},
		{Insns: []uint16{0x0013, readNonce, 0xffff, 0x000e}}, // undecodable at pc 2
	}
	for i, c := range codes {
		if bytecode.Read(c.Insns) == bytecode.Read(c.Insns) {
			t.Fatalf("body %d is already in the process cache", i)
		}
	}
	before := bytecode.CachedPrograms()
	var cold []*methodPaths
	for _, c := range codes {
		cold = append(cold, buildPaths(c))
	}
	if got := bytecode.CachedPrograms(); got != before {
		t.Fatalf("cold buildPaths changed the process cache size from %d to %d", before, got)
	}
	if cold[0] == nil || len(cold[0].order) != 5 || cold[1] != nil {
		t.Fatalf("cold paths %+v, want 5 steps and nil for the undecodable body", cold)
	}
	for i, c := range codes {
		bytecode.Cached(c.Insns)
		if warm := buildPaths(c); !reflect.DeepEqual(warm, cold[i]) {
			t.Errorf("body %d: cold paths %+v, warm %+v", i, cold[i], warm)
		}
	}
}
