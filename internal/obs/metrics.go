package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// counterShards is the cell count of a sharded counter. Eight padded cells
// keep concurrent writers on distinct cache lines without a lookup table.
const counterShards = 8

// cell is one cache-line-padded counter slot.
type cell struct {
	n atomic.Int64
	_ [56]byte // pad to 64 bytes so neighboring cells never share a line
}

// shard picks a cell for the calling goroutine. Goroutine stacks live in
// distinct allocations, so the address of a local variable is a cheap,
// race-free shard key; the exact distribution does not matter, only that
// concurrent writers usually land on different cells.
func shard() int {
	var b byte
	return int(uintptr(unsafe.Pointer(&b)) >> 6 & (counterShards - 1))
}

// Counter is a lock-free, shardable event counter. The zero value is ready
// to use; Add never blocks and Load sums the cells.
type Counter struct {
	cells [counterShards]cell
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.cells[shard()].n.Add(d) }

// Load returns the current total.
func (c *Counter) Load() int64 {
	var total int64
	for i := range c.cells {
		total += c.cells[i].n.Load()
	}
	return total
}

// Gauge is an atomic instantaneous value with a monotonic Max helper.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Max raises the gauge to v if v is larger.
func (g *Gauge) Max(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets is the bucket count of a Histogram: one bucket per bit length
// of the observed value, i.e. power-of-two boundaries.
const histBuckets = 64

// Histogram is a lock-free log2-bucketed histogram of non-negative values
// (durations in nanoseconds, depths, counts). The zero value is ready to
// use.
type Histogram struct {
	count atomic.Int64
	sum   atomic.Int64
	b     [histBuckets]atomic.Int64
}

// Observe records v (clamped at 0).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.b[bits.Len64(uint64(v))&(histBuckets-1)].Add(1)
}

// HistBucket is one populated histogram bucket: Count values were <= LeNS.
type HistBucket struct {
	LeNS  int64 `json:"leNS"`
	Count int64 `json:"count"`
}

// HistSnapshot is the serializable state of a Histogram.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	SumNS   int64        `json:"sumNS"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

func bucketBound(i int) int64 {
	if i >= 63 {
		return math.MaxInt64
	}
	return (int64(1) << i) - 1
}

// Snapshot captures the histogram's populated buckets.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count.Load(), SumNS: h.sum.Load()}
	for i := range h.b {
		if n := h.b[i].Load(); n != 0 {
			s.Buckets = append(s.Buckets, HistBucket{LeNS: bucketBound(i), Count: n})
		}
	}
	return s
}

// Snapshot is the serializable aggregate of a tracer's metrics: event
// counts by type, the deepest collection tree seen, and dropped-line
// count. It rides inside pipeline.AppMetrics ("obs") and merges across
// apps into the batch report. Span durations are not repeated here: they
// are the span_end events of the trace and the AppMetrics stage timings.
type Snapshot struct {
	Events       map[string]int64 `json:"events,omitempty"`
	MaxTreeDepth int64            `json:"maxTreeDepth,omitempty"`
	Dropped      int64            `json:"dropped,omitempty"`
}

// Snapshot captures the tracer's metrics; nil on a nil tracer.
func (t *Tracer) Snapshot() *Snapshot {
	if t == nil {
		return nil
	}
	snap := &Snapshot{
		MaxTreeDepth: t.maxDepth.Load(),
		Dropped:      t.dropped.Load(),
	}
	for i := 0; i < int(numEventTypes); i++ {
		if v := t.counters[i].Load(); v != 0 {
			if snap.Events == nil {
				snap.Events = make(map[string]int64)
			}
			snap.Events[EventType(i).String()] = v
		}
	}
	return snap
}

// EventCount returns the recorded count of one event type.
func (s *Snapshot) EventCount(t EventType) int64 {
	if s == nil {
		return 0
	}
	return s.Events[t.String()]
}

// MergeSnapshots folds src into dst and returns the result, treating nil as
// empty on either side; dst is mutated when non-nil.
func MergeSnapshots(dst, src *Snapshot) *Snapshot {
	if src == nil {
		return dst
	}
	if dst == nil {
		dst = &Snapshot{}
	}
	for k, v := range src.Events {
		if dst.Events == nil {
			dst.Events = make(map[string]int64, len(src.Events))
		}
		dst.Events[k] += v
	}
	if src.MaxTreeDepth > dst.MaxTreeDepth {
		dst.MaxTreeDepth = src.MaxTreeDepth
	}
	dst.Dropped += src.Dropped
	return dst
}
