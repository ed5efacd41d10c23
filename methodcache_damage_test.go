package dexlego_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	root "dexlego"
	"dexlego/internal/store"
	"dexlego/internal/workload"
)

// TestMethodCacheDamagedRecordsAreMisses persists the method records of a
// forced incremental reveal, then flips each byte of each record file in
// turn, digest and payload alike, and reveals again from a fresh cache over
// the directory. No flip fails the reveal or changes its output: every
// reveal is byte-identical to the full path. The damaged key counts once in
// Corrupt, and the reveal's store-back repairs it, so a fresh cache then
// serves the record intact. Under -short only every 7th byte is flipped.
func TestMethodCacheDamagedRecordsAreMisses(t *testing.T) {
	apps, err := workload.VersionChain(workload.ChainConfig{Methods: 12, Links: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	app := apps[0]
	full := root.Options{ForceExecution: true, Workers: 1}
	ref, _ := revealTraced(t, app.APK, full)

	dir := t.TempDir()
	warm, err := store.OpenMethodCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	incr := full
	incr.MethodCache = warm
	revealTraced(t, app.APK, incr)
	paths, err := filepath.Glob(filepath.Join(dir, "*", "*.rec"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("persisted records = %v, %v; want some", paths, err)
	}

	stride := 1
	if testing.Short() {
		stride = 7
	}
	flips := 0
	for _, path := range paths {
		key := strings.TrimSuffix(filepath.Base(path), ".rec")
		intact, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(intact); i += stride {
			damaged := bytes.Clone(intact)
			damaged[i] ^= 0x01
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			mc, err := store.OpenMethodCache(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			incr.MethodCache = mc
			res, err := root.Reveal(app.APK, incr)
			if err != nil {
				t.Fatalf("%s byte %d flipped: reveal failed: %v", key[:8], i, err)
			}
			got, err := res.Revealed.Dex()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ref, got) {
				t.Fatalf("%s byte %d flipped: reveal differs from full (%d vs %d bytes)", key[:8], i, len(ref), len(got))
			}
			if mc.Corrupt() != 1 {
				t.Fatalf("%s byte %d flipped: Corrupt() = %d, want 1", key[:8], i, mc.Corrupt())
			}
			fresh, err := store.OpenMethodCache(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := fresh.Get(key); !ok || fresh.Corrupt() != 0 {
				t.Fatalf("%s byte %d flipped: store-back did not repair the record (hit %t, Corrupt() = %d)",
					key[:8], i, ok, fresh.Corrupt())
			}
			flips++
		}
	}
	t.Logf("%d flips over %d records", flips, len(paths))
}
