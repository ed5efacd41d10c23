package dexlego_test

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"

	root "dexlego"
	"dexlego/internal/droidbench"
)

// TestSerialParallelByteIdentical is the golden test for the parallel
// reassembly path: for every corpus sample, revealing with Workers: 1
// (forced serial), Workers: 4 and Workers: 0 (GOMAXPROCS) must produce
// byte-identical DEX output. Run under -race in CI, this also exercises the
// worker pool for data races on the shared Builder.
func TestSerialParallelByteIdentical(t *testing.T) {
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
					Natives: s.Natives(),
					Workers: workers,
				})
				if err != nil {
					t.Fatalf("reveal (workers=%d): %v", workers, err)
				}
				data, err := res.Revealed.Dex()
				if err != nil {
					t.Fatalf("dex (workers=%d): %v", workers, err)
				}
				return data
			}
			serial := reveal(1)
			for _, workers := range []int{4, 0} {
				if got := reveal(workers); !bytes.Equal(serial, got) {
					t.Errorf("workers=%d output differs from serial: %d vs %d bytes",
						workers, len(got), len(serial))
				}
			}
		})
	}
}

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
	if env := os.Getenv("DEXLEGO_GOLDEN_WORKERS"); env != "" {
		counts = nil
		for _, field := range strings.Split(env, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(field))
			if err != nil {
				t.Fatalf("DEXLEGO_GOLDEN_WORKERS %q: %v", env, err)
			}
			counts = append(counts, n)
		}
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
