package coverage

import (
	"math/rand/v2"
	"testing"
)

// TestBitsetNextMatchesScan checks next against a bit-by-bit scan over
// random sets, for ranges that start and end inside and across words.
func TestBitsetNextMatchesScan(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for round := 0; round < 200; round++ {
		n := 1 + r.IntN(300)
		b := newBitset(n)
		for i := 0; i < n; i++ {
			if r.IntN(7) == 0 {
				b.set(i)
			}
		}
		start, end := r.IntN(n+1), r.IntN(n+1)
		if start > end {
			start, end = end, start
		}
		var want, got []int
		for i := start; i < end; i++ {
			if b.has(i) {
				want = append(want, i)
			}
		}
		for i := b.next(start, end); i < end; i = b.next(i+1, end) {
			got = append(got, i)
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d [%d,%d): next found %v, scan %v", n, start, end, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d [%d,%d): next found %v, scan %v", n, start, end, got, want)
			}
		}
	}
}
