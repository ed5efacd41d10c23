package dexlego_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	root "dexlego"
	"dexlego/internal/collector"
	"dexlego/internal/store"
	"dexlego/internal/workload"
)

// TestMethodCacheForeignEntriesAreMisses plants, at the disk path of every
// cacheable method's key, bytes that are not a record in the current
// format: the method's v1 JSON record, its binary record cut in half, or
// garbage with and without the format tag. Every planted entry is read and
// is a miss: the reveal neither fails nor panics, re-executes every
// method, and stays byte-identical to the full path. Its store-back
// replaces the planted bytes, so the next reveal splices.
func TestMethodCacheForeignEntriesAreMisses(t *testing.T) {
	apps, err := workload.VersionChain(workload.ChainConfig{Methods: 12, Links: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	app := apps[0]
	full := root.Options{ForceExecution: true, Workers: 1}
	ref, refRes := revealTraced(t, app.APK, full)
	f, err := app.APK.DexFile()
	if err != nil {
		t.Fatal(err)
	}
	fps := root.MethodFingerprints(f)
	optsFP := full.Fingerprint()

	rng := rand.New(rand.NewSource(1))
	garbage := func(prefix string) []byte {
		b := []byte(prefix)
		for i := 0; i < 200; i++ {
			b = append(b, byte(rng.Intn(256)))
		}
		return b
	}
	plants := []struct {
		name  string
		bytes func(rec *collector.MethodRecord) []byte
	}{
		{"v1-json", func(rec *collector.MethodRecord) []byte {
			data, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}},
		{"truncated", func(rec *collector.MethodRecord) []byte {
			data, err := collector.EncodeRecord(rec)
			if err != nil {
				t.Fatal(err)
			}
			return data[:len(data)/2]
		}},
		{"garbage", func(*collector.MethodRecord) []byte { return garbage("") }},
		{"tagged-garbage", func(*collector.MethodRecord) []byte { return garbage("R2") }},
	}
	for _, plant := range plants {
		t.Run(plant.name, func(t *testing.T) {
			dir := t.TempDir()
			planted := 0
			for key, fp := range fps {
				rec := refRes.Collection.Methods[key]
				if rec == nil || !rec.Cacheable() {
					continue
				}
				mk := store.MethodKeyFor(optsFP, fp)
				path := filepath.Join(dir, mk[:2], mk+".rec")
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, plant.bytes(rec), 0o644); err != nil {
					t.Fatal(err)
				}
				planted++
			}
			if planted == 0 {
				t.Fatal("no cacheable method to plant under")
			}
			mc, err := store.OpenMethodCache(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			incr := full
			incr.MethodCache = mc

			got, res := revealTraced(t, app.APK, incr)
			if !bytes.Equal(ref, got) {
				t.Errorf("reveal over planted entries differs from full (%d vs %d bytes)", len(ref), len(got))
			}
			if mc.Hits() != int64(planted) {
				t.Errorf("%d planted entries, %d read", planted, mc.Hits())
			}
			if res.Metrics.MethodsCached != 0 {
				t.Errorf("%d methods spliced from planted entries", res.Metrics.MethodsCached)
			}

			again, res := revealTraced(t, app.APK, incr)
			if !bytes.Equal(ref, again) {
				t.Errorf("reveal after store-back differs from full (%d vs %d bytes)", len(ref), len(again))
			}
			if res.Metrics.MethodsCached == 0 {
				t.Errorf("store-back did not replace the planted entries: nothing spliced")
			}
		})
	}
}
