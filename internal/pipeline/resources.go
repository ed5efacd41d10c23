package pipeline

import (
	runtimemetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// The two runtime/metrics series resource accounting is built on: a
// monotonic total of heap bytes ever allocated, and the live-heap
// occupancy. Both are process-wide, so deltas across a window include
// whatever else the process allocated in it: an upper bound when reveals
// share the process. Nor are they exact for one reveal at a time: the
// runtime counts a small-object span's bytes when a P's cache gives the
// span back, so a reading can be off by up to one span per size class per
// P. Over a large reveal that error is small; a small reveal can read 0.
const (
	allocsMetric = "/gc/heap/allocs:bytes"
	heapMetric   = "/memory/classes/heap/objects:bytes"
)

// MemSample is one point-in-time reading of the Go heap.
type MemSample struct {
	// AllocBytes is the monotonic total of heap bytes allocated by the
	// process; the difference of two samples is the allocation volume of
	// the window between them.
	AllocBytes int64
	// HeapBytes is the live heap occupancy at the sample.
	HeapBytes int64
}

// ReadMemSample reads the current heap counters. It is cheap (two
// runtime/metrics reads, no stop-the-world) and safe to call at stage
// boundaries on every job.
func ReadMemSample() MemSample {
	s := [2]runtimemetrics.Sample{{Name: allocsMetric}, {Name: heapMetric}}
	runtimemetrics.Read(s[:])
	var m MemSample
	if s[0].Value.Kind() == runtimemetrics.KindUint64 {
		m.AllocBytes = int64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == runtimemetrics.KindUint64 {
		m.HeapBytes = int64(s[1].Value.Uint64())
	}
	return m
}

// ResourceAccountant measures one Reveal's resource bill: the heap bytes
// allocated over the run window, and the largest live-heap growth observed
// at any sample. Stage boundaries sample through SampleNow; the peak is an
// atomic maximum, so a ticker started with StartSampling may fold in-stage
// readings into it concurrently. Boundary-only sampling systematically
// under-reports: a stage that balloons the heap and frees before returning
// (reassembly's tree flattening is exactly that shape) leaves no trace at
// its boundary.
type ResourceAccountant struct {
	start MemSample
	peak  atomic.Int64
}

// NewResourceAccountant starts accounting at the current heap state.
func NewResourceAccountant() *ResourceAccountant {
	return &ResourceAccountant{start: ReadMemSample()}
}

// maxPeak raises the peak to delta if larger (atomic, so the sampling
// ticker and the stage boundary path never lose an update to each other).
func (a *ResourceAccountant) maxPeak(delta int64) {
	for {
		cur := a.peak.Load()
		if delta <= cur || a.peak.CompareAndSwap(cur, delta) {
			return
		}
	}
}

// SampleNow folds an immediate heap reading into the peak, and returns the
// live-heap delta versus the run start.
func (a *ResourceAccountant) SampleNow() int64 {
	delta := ReadMemSample().HeapBytes - a.start.HeapBytes
	a.maxPeak(delta)
	return delta
}

// StartSampling launches a background ticker folding in-stage heap readings
// into the peak every interval (<= 0 selects 10ms), so HeapPeakBytes covers
// transient in-stage growth that stage boundaries never see. The returned
// stop function takes one final sample, ends the goroutine, and is safe to
// call more than once.
func (a *ResourceAccountant) StartSampling(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				a.SampleNow()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			a.SampleNow()
		})
	}
}

// Finish closes the accounting window and returns the reveal's resource
// bill: the heap bytes allocated since the accountant started, and the
// largest live-heap growth over the starting occupancy that any sample, or
// this final reading, observed (never negative; a run that only shrank the
// heap records 0).
func (a *ResourceAccountant) Finish() (allocBytes, heapPeakBytes int64) {
	end := ReadMemSample()
	allocBytes = max(end.AllocBytes-a.start.AllocBytes, 0)
	heapPeakBytes = max(a.peak.Load(), end.HeapBytes-a.start.HeapBytes, 0)
	return allocBytes, heapPeakBytes
}
