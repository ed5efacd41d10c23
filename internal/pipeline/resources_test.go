package pipeline

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestResourceAccountantTracksAllocation(t *testing.T) {
	a := NewResourceAccountant()
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 16<<10))
	}
	alloc, peak := a.Finish()
	// The runtime's allocation counter is assembled from per-P caches and
	// may lag by a few slots, so assert a generous lower bound rather than
	// the exact volume.
	if alloc < 64*(16<<10)/2 {
		t.Errorf("run allocated ~1MiB but accountant saw only %d bytes", alloc)
	}
	_ = sink
	if peak < 0 {
		t.Errorf("negative heap peak %d", peak)
	}
}

func TestValidateResourceInvariants(t *testing.T) {
	m := AppMetrics{Name: "a", WallNS: int64(time.Second), AllocBytes: 1000, HeapPeakBytes: 10}
	m.AddStage(StageCollection, time.Millisecond)
	if err := m.Validate(); err != nil {
		t.Errorf("valid resources rejected: %v", err)
	}
	m.AllocBytes = -1
	if err := m.Validate(); err == nil {
		t.Error("negative allocation not caught")
	}
	m.AllocBytes, m.HeapPeakBytes = 1000, -1
	if err := m.Validate(); err == nil {
		t.Error("negative heap peak not caught")
	}
}

func TestBuildReportAggregatesResources(t *testing.T) {
	apps := []AppMetrics{
		{Name: "a", WallNS: 10, AllocBytes: 100, HeapPeakBytes: 30},
		{Name: "b", WallNS: 20, AllocBytes: 200, HeapPeakBytes: 80},
		{Name: "fail", Err: "boom", AllocBytes: 999, HeapPeakBytes: 999},
	}
	r := BuildReport(2, 30, apps)
	if r.TotalAllocBytes != 300 {
		t.Errorf("alloc total = %d, want 300", r.TotalAllocBytes)
	}
	if r.HeapPeakBytes != 80 {
		t.Errorf("peak heap = %d, want batch max 80", r.HeapPeakBytes)
	}
	if !strings.Contains(r.String(), "resources:") {
		t.Errorf("report text omits resources:\n%s", r.String())
	}

	// No app recorded resources -> no resources line fabricated.
	if r := BuildReport(1, 1, []AppMetrics{{Name: "x", WallNS: 1}}); strings.Contains(r.String(), "resources:") {
		t.Errorf("resources fabricated from nothing:\n%s", r.String())
	}
}

func TestReportRoundTripWithResources(t *testing.T) {
	apps := []AppMetrics{{
		Name:          "a",
		WallNS:        int64(time.Second),
		Stages:        []StageTiming{{Stage: StageCollection, WallNS: 1000}},
		AllocBytes:    128,
		HeapPeakBytes: 2,
	}}
	data, err := BuildReport(1, time.Second, apps).JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	got := back.Apps[0]
	if got.AllocBytes != 128 || got.HeapPeakBytes != 2 {
		t.Errorf("resources did not round trip: alloc %d, heap peak %d", got.AllocBytes, got.HeapPeakBytes)
	}
	if back.TotalAllocBytes != 128 || back.HeapPeakBytes != 2 {
		t.Errorf("report totals did not round trip: alloc %d, heap peak %d",
			back.TotalAllocBytes, back.HeapPeakBytes)
	}
}

func TestStartSamplingCatchesInStageBalloon(t *testing.T) {
	// A stage that balloons the heap and frees before returning leaves no
	// trace at its boundary; the sampling ticker must catch it anyway.
	a := NewResourceAccountant()
	stop := a.StartSampling(time.Millisecond)
	defer stop()

	const balloon = 32 << 20
	sink := make([]byte, balloon)
	for i := 0; i < len(sink); i += 4096 {
		sink[i] = byte(i)
	}
	// Hold the balloon across several ticker intervals.
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	runtime.KeepAlive(sink)
	sink = nil
	runtime.GC() // free before the boundary — the balloon is now invisible there
	stop()
	stop() // idempotent

	if _, peak := a.Finish(); peak < balloon/2 {
		t.Errorf("in-stage %dMiB balloon invisible to sampling: peak %d bytes",
			balloon>>20, peak)
	}
}

func TestSampleNowRaisesPeak(t *testing.T) {
	a := NewResourceAccountant()
	sink := make([]byte, 8<<20)
	for i := 0; i < len(sink); i += 4096 {
		sink[i] = 1
	}
	delta := a.SampleNow()
	runtime.KeepAlive(sink)
	if delta < 4<<20 {
		t.Errorf("SampleNow delta %d below half the held allocation", delta)
	}
	if _, peak := a.Finish(); peak < delta {
		t.Errorf("peak %d below observed sample %d", peak, delta)
	}
}
