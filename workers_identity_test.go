package dexlego_test

import (
	"bytes"
	"os"
	"testing"

	root "dexlego"
	"dexlego/internal/droidbench"
)

// TestForcedRevealByteIdenticalAcrossWorkers is the acceptance spine of
// parallel intra-reveal collection: a force-execution reveal over the full
// corpus must produce byte-identical DEX output at every worker count. The
// DEXLEGO_GOLDEN_WORKERS env var (comma-separated counts) narrows the
// matrix for CI legs; the default exercises 1, 2, 4 and GOMAXPROCS.
func TestForcedRevealByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("forced reveals are slow under -short")
	}
	counts := []int{1, 2, 4, 0}
	if os.Getenv("DEXLEGO_GOLDEN_WORKERS") != "" {
		counts = goldenWorkers(t)
	}
	for _, name := range droidbench.CorpusNames {
		t.Run(name, func(t *testing.T) {
			s := droidbench.ByName(name)
			if s == nil {
				t.Fatalf("corpus sample %q does not exist", name)
			}
			reveal := func(workers int) []byte {
				pkg, err := s.Build()
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				res, err := root.Reveal(pkg, root.Options{
					Natives:        s.Natives(),
					ForceExecution: true,
					Workers:        workers,
				})
				if err != nil {
					t.Fatalf("forced reveal (workers=%d): %v", workers, err)
				}
				if res.Coverage == nil {
					t.Fatalf("forced reveal (workers=%d) reported no coverage", workers)
				}
				data, err := res.Revealed.Dex()
				if err != nil {
					t.Fatalf("dex (workers=%d): %v", workers, err)
				}
				return data
			}
			serial := reveal(1)
			for _, workers := range counts {
				if workers == 1 {
					continue // the baseline itself
				}
				if got := reveal(workers); !bytes.Equal(serial, got) {
					t.Errorf("workers=%d forced output differs from serial: %d vs %d bytes",
						workers, len(got), len(serial))
				}
			}
		})
	}
}
