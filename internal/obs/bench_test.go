package obs

import (
	"io"
	"testing"
)

// The off path is the whole point of the obs design: hot loops in the
// collector and interpreter call span emitters unconditionally, so the off
// cost must stay at a few nanoseconds per event. BenchmarkNilSpanEvent (the
// default, and only, off state: no tracer configured) pins it; every
// benchmark here also runs in CI under -race with -benchtime=1x for the
// data-race dimension.

// BenchmarkNilSpanEvent measures the no-op default: a nil *Span, which is
// what every instrumented layer holds when no tracer was configured.
func BenchmarkNilSpanEvent(b *testing.B) {
	var s *Span
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.TreeFork("La;->m()V", i, 1)
	}
}

// BenchmarkMetricsOnlyEvent measures the nil-sink path: counters update,
// no line is encoded.
func BenchmarkMetricsOnlyEvent(b *testing.B) {
	tr := New(nil)
	s := tr.Start("bench", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TreeFork("La;->m()V", i, 1)
	}
}

// BenchmarkJSONLEvent measures the full enabled path: encode one event and
// write it through the sink.
func BenchmarkJSONLEvent(b *testing.B) {
	tr := New(NewJSONLSink(io.Discard))
	s := tr.Start("bench", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TreeFork("La;->m()V", i, 1)
	}
}

// BenchmarkFlightRecorderEmit measures the armed ring: claim a slot, one
// pointer store, no tee.
func BenchmarkFlightRecorderEmit(b *testing.B) {
	f := NewFlightRecorder(nil, 256)
	line := []byte(`{"t":"span_start","span":1}` + "\n")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Emit(line)
	}
}

// BenchmarkCounterAdd isolates the sharded counter.
func BenchmarkCounterAdd(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
	if c.Load() != int64(b.N) {
		b.Fatal("lost updates")
	}
}
