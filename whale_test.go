package dexlego_test

import (
	"bytes"
	"testing"

	root "dexlego"
	"dexlego/internal/obs"
	"dexlego/internal/pipeline"
	"dexlego/internal/store"
	"dexlego/internal/workload"
)

// The memory-budget property suite: displacing method records to the spill
// tier and emitting the DEX through the streaming writer must never be
// observable in the output, even when the spill cache is so small that
// every entry is evicted before reassembly reads it back.

// testWhale builds a whale sized for test time rather than for benchmarks:
// wide enough that many records cross the spill threshold, with giants big
// enough to dominate the result's heap.
func testWhale(t *testing.T) *workload.App {
	t.Helper()
	app, err := workload.Whale(workload.WhaleConfig{
		Classes:         10,
		MethodsPerClass: 4,
		InsnsPerMethod:  96,
		GiantMethods:    2,
		GiantInsns:      8000,
		Seed:            42,
	})
	if err != nil {
		t.Fatalf("build whale: %v", err)
	}
	return &app
}

func TestWhaleSpillByteIdentity(t *testing.T) {
	app := testWhale(t)

	ref, refRes := revealTraced(t, app.APK, root.Options{Workers: 1})

	sc, err := store.OpenMethodCache("", 0)
	if err != nil {
		t.Fatal(err)
	}
	spilled, res := revealTraced(t, app.APK, root.Options{Workers: 1, SpillCache: sc})
	if !bytes.Equal(ref, spilled) {
		t.Errorf("spilled reveal differs from all-resident (%d vs %d bytes)",
			len(ref), len(spilled))
	}
	if res.Metrics.MethodsSpilled == 0 {
		t.Fatalf("whale reveal spilled no methods")
	}
	if res.Metrics.SpilledBytes == 0 {
		t.Errorf("MethodsSpilled=%d but SpilledBytes=0", res.Metrics.MethodsSpilled)
	}
	// Spilled records leave the result map before the count is taken; the
	// banked instruction counts must keep the metric identical.
	if res.Metrics.ExecutedInsns != refRes.Metrics.ExecutedInsns {
		t.Errorf("ExecutedInsns %d with spill, %d without",
			res.Metrics.ExecutedInsns, refRes.Metrics.ExecutedInsns)
	}
	if err := res.Metrics.Validate(); err != nil {
		t.Errorf("spilled metrics invalid: %v", err)
	}
}

// TestWhaleSpillEvictionFallback forces the pathological cache: a
// memory-only spill tier with a capacity of one byte evicts almost every
// entry the moment the next one arrives, so nearly all reassembly fetches
// miss and must recover from the retained bytes. Output must still be
// byte-identical — the spill tier may slow a reveal, never fail it.
func TestWhaleSpillEvictionFallback(t *testing.T) {
	app := testWhale(t)

	ref, _ := revealTraced(t, app.APK, root.Options{Workers: 1})

	sc, err := store.OpenMethodCache("", 1)
	if err != nil {
		t.Fatal(err)
	}
	spilled, res := revealTraced(t, app.APK, root.Options{Workers: 1, SpillCache: sc})
	if !bytes.Equal(ref, spilled) {
		t.Errorf("eviction-fallback reveal differs from all-resident (%d vs %d bytes)",
			len(ref), len(spilled))
	}
	if res.Metrics.MethodsSpilled == 0 {
		t.Fatalf("whale reveal spilled no methods")
	}
	if sc.Evicted() == 0 {
		t.Errorf("one-byte cache evicted nothing — fallback path not exercised")
	}
}

// TestWhaleSpillWithIncremental combines the spill tier with the
// incremental method cache: spilled records must still be stored back after
// verify, so a later reveal splices them instead of re-executing.
func TestWhaleSpillWithIncremental(t *testing.T) {
	app := testWhale(t)

	ref, _ := revealTraced(t, app.APK, root.Options{Workers: 1})

	mc, err := store.OpenMethodCache("", 0)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := store.OpenMethodCache("", 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := root.Options{Workers: 1, MethodCache: mc, SpillCache: sc}
	warm, warmRes := revealTraced(t, app.APK, opts)
	if !bytes.Equal(ref, warm) {
		t.Errorf("cache-warming spilled reveal differs from full (%d vs %d bytes)",
			len(ref), len(warm))
	}
	if warmRes.Metrics.MethodsSpilled == 0 {
		t.Fatalf("warming reveal spilled no methods")
	}
	hot, hotRes := revealTraced(t, app.APK, opts)
	if !bytes.Equal(ref, hot) {
		t.Errorf("spliced spilled reveal differs from full (%d vs %d bytes)",
			len(ref), len(hot))
	}
	if hotRes.Metrics.MethodsCached == 0 {
		t.Errorf("second reveal spliced no methods — spilled records were not stored back")
	}
}

// TestWhaleHeapPeakCeiling is the memory-budget acceptance gate: a whale
// reveal through the spill tier and the streaming writer must stay under a
// heap-peak ceiling sized with generous margin. The ceiling is a
// regression tripwire for the output path's memory behavior, not a precise
// measurement — heap accounting is process-wide.
func TestWhaleHeapPeakCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement under -short")
	}
	app := testWhale(t)
	sc, err := store.OpenMethodCache("", 0)
	if err != nil {
		t.Fatal(err)
	}
	acct := pipeline.NewResourceAccountant()
	stop := acct.StartSampling(0)
	var buf bytes.Buffer
	tr := obs.New(obs.NewJSONLSink(&buf))
	res, err := root.Reveal(app.APK, root.Options{Workers: 1, SpillCache: sc, Tracer: tr})
	stop()
	if err != nil {
		t.Fatalf("reveal: %v", err)
	}
	if res.Metrics.MethodsSpilled == 0 {
		t.Fatalf("whale reveal spilled no methods")
	}
	const ceiling = 256 << 20
	if peak := acct.Finish(0, 0).HeapPeakBytes; peak > ceiling {
		t.Errorf("whale reveal heap peak %d bytes exceeds %d ceiling", peak, int64(ceiling))
	}
}
