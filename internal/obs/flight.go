package obs

import (
	"io"
	"sync/atomic"
)

// defaultFlightEvents is the ring capacity when the caller passes a
// non-positive size.
const defaultFlightEvents = 256

// FlightRecorder is a bounded, lock-free Sink that remembers the most
// recent trace lines for one job. On the happy path the ring is simply
// discarded; when a job fails, panics, or blows its latency objective the
// ring is dumped as JSONL — a flight record of the last N events leading up
// to the incident, cheap enough to keep armed on every job.
//
// Emit never blocks and takes no locks: a monotonically increasing cursor
// claims a slot, and the line pointer is published with an atomic store.
// Lines are retained by reference; that is safe for lines produced by
// Tracer.emit, which allocates a fresh buffer per event, but callers
// feeding a FlightRecorder from elsewhere must not reuse line buffers.
//
// When next is non-nil every line is also forwarded to it (tee), so wiring
// a recorder in front of a JSONL sink keeps the full trace while arming
// the crash ring.
type FlightRecorder struct {
	next  Sink
	mask  uint64
	cur   atomic.Uint64 // total lines recorded; next slot is cur & mask
	slots []atomic.Pointer[flightLine]
}

// flightLine wraps a recorded line so a slot can be published with one
// pointer store.
type flightLine struct {
	line []byte
}

// NewFlightRecorder returns a recorder holding the last size lines
// (rounded up to a power of two; size <= 0 selects 256), forwarding every
// line to next when next is non-nil.
func NewFlightRecorder(next Sink, size int) *FlightRecorder {
	if size <= 0 {
		size = defaultFlightEvents
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &FlightRecorder{
		next:  next,
		mask:  uint64(n - 1),
		slots: make([]atomic.Pointer[flightLine], n),
	}
}

// Emit records line in the ring and forwards it to the tee target.
func (f *FlightRecorder) Emit(line []byte) error {
	idx := (f.cur.Add(1) - 1) & f.mask
	f.slots[idx].Store(&flightLine{line: line})
	if f.next != nil {
		return f.next.Emit(line)
	}
	return nil
}

// Len reports how many lines the ring currently holds (0 on nil).
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	n := f.cur.Load()
	if n > f.mask+1 {
		n = f.mask + 1
	}
	return int(n)
}

// Dump writes the recorded lines to w as JSONL, oldest first, and returns
// the number of lines written. Slots still in flight (claimed but not yet
// published by a concurrent Emit) are skipped rather than torn. Dump does
// not consume the ring.
func (f *FlightRecorder) Dump(w io.Writer) (int, error) {
	if f == nil {
		return 0, nil
	}
	end := f.cur.Load()
	size := f.mask + 1
	start := uint64(0)
	if end > size {
		start = end - size
	}
	written := 0
	for i := start; i < end; i++ {
		fl := f.slots[i&f.mask].Load()
		if fl == nil {
			continue
		}
		if _, err := w.Write(fl.line); err != nil {
			return written, err
		}
		written++
	}
	return written, nil
}
