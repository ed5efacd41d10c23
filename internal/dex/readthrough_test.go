package dex

import (
	"reflect"
	"testing"

	"dexlego/internal/bytecode"
)

// readNonce makes every body of a read-through test new to the process, also
// when the test repeats under -count.
var readNonce uint16

// TestVerifyReadsThroughProgramCache checks that Verify and InstructionCount
// decode through the process program cache without filling it, and report
// the same on a cold and a warm cache: clean, undecodable and
// unsorted-sparse-switch bodies.
func TestVerifyReadsThroughProgramCache(t *testing.T) {
	readNonce++
	n := readNonce
	bodies := [][]uint16{
		{0x0013, n, 0x000e}, // const/16 v0, n; return-void
		{0x0013, n, 0xffff, 0xffff, 0x000e},
		{
			0x0013, n, // const/16 v0, n
			0x002c, 4, 0, // sparse-switch v0, payload at +4
			0x000e,                            // return-void at pc 5
			0x0200, 2, 5, 0, 5, 0, 3, 0, 3, 0, // payload: keys 5, 5 -> +3, +3
		},
	}
	files := make([]*File, len(bodies))
	for i, insns := range bodies {
		if bytecode.Read(insns) == bytecode.Read(insns) {
			t.Fatalf("body %d is already in the process cache", i)
		}
		files[i] = rawFile(t, &Code{RegistersSize: 1, Insns: []uint16{0x000e}})
		files[i].Classes[0].DirectMeths[0].Code = &Code{RegistersSize: 1, Insns: insns}
	}
	report := func() (defects [][]string, counts []int) {
		for _, f := range files {
			var got []string
			for _, err := range Verify(f) {
				got = append(got, err.Error())
			}
			defects = append(defects, got)
			counts = append(counts, f.InstructionCount())
		}
		return defects, counts
	}

	before := bytecode.CachedPrograms()
	coldDefects, coldCounts := report()
	if got := bytecode.CachedPrograms(); got != before {
		t.Fatalf("cold Verify changed the process cache size from %d to %d", before, got)
	}
	if len(coldDefects[0]) != 0 || len(coldDefects[1]) != 1 || len(coldDefects[2]) != 1 {
		t.Fatalf("cold defects %q, want none, undecodable body, unsorted keys", coldDefects)
	}
	for _, insns := range bodies {
		bytecode.Cached(insns)
	}
	warmDefects, warmCounts := report()
	if !reflect.DeepEqual(coldDefects, warmDefects) || !reflect.DeepEqual(coldCounts, warmCounts) {
		t.Errorf("cold and warm caches differ:\ncold %q %v\nwarm %q %v", coldDefects, coldCounts, warmDefects, warmCounts)
	}
}
