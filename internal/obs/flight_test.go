package obs

import (
	"bytes"
	"fmt"
	"testing"
)

func TestFlightRecorderKeepsLastN(t *testing.T) {
	f := NewFlightRecorder(nil, 4)
	for i := 0; i < 10; i++ {
		if err := f.Emit([]byte(fmt.Sprintf("line%d\n", i))); err != nil {
			t.Fatal(err)
		}
	}
	if f.Len() != 4 {
		t.Errorf("Len = %d, want 4", f.Len())
	}
	var buf bytes.Buffer
	n, err := f.Dump(&buf)
	if err != nil || n != 4 {
		t.Fatalf("Dump = %d,%v want 4,nil", n, err)
	}
	want := "line6\nline7\nline8\nline9\n"
	if buf.String() != want {
		t.Errorf("Dump order = %q, want %q (oldest first)", buf.String(), want)
	}
}

func TestFlightRecorderCapacityRounding(t *testing.T) {
	f := NewFlightRecorder(nil, 5) // rounds up to 8
	for i := 0; i < 8; i++ {
		f.Emit([]byte("x\n"))
	}
	if f.Len() != 8 {
		t.Errorf("Len = %d, want 8 (5 rounded to next power of two)", f.Len())
	}
	if d := NewFlightRecorder(nil, 0); d.mask+1 != defaultFlightEvents {
		t.Errorf("default capacity = %d, want %d", d.mask+1, defaultFlightEvents)
	}
}

func TestFlightRecorderTee(t *testing.T) {
	var out bytes.Buffer
	f := NewFlightRecorder(NewJSONLSink(&out), 4)
	f.Emit([]byte("a\n"))
	f.Emit([]byte("b\n"))
	if out.String() != "a\nb\n" {
		t.Errorf("tee target saw %q, want both lines", out.String())
	}
	if f.Len() != 2 {
		t.Errorf("recorder holds %d lines, want 2", f.Len())
	}
}

func TestFlightRecorderNilSafety(t *testing.T) {
	var f *FlightRecorder
	if f.Len() != 0 {
		t.Error("nil recorder must report empty")
	}
	if n, err := f.Dump(&bytes.Buffer{}); n != 0 || err != nil {
		t.Errorf("nil Dump = %d,%v", n, err)
	}
}

// TestFlightRecorderDumpIsValidTrace drives a real tracer through a
// recorder and checks the dump replays through the schema-validating trace
// reader as a coherent span tree carrying the job's trace ID.
func TestFlightRecorderDumpIsValidTrace(t *testing.T) {
	f := NewFlightRecorder(nil, 64)
	tr := New(f)
	tr.SetTraceID("job123")
	root := tr.Start("reveal", "demo.apk")
	child := root.Start("collection")
	child.MethodCollected("m", 1, 3)
	child.End()
	root.End()

	var buf bytes.Buffer
	if _, err := f.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	trace, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("flight dump failed schema validation: %v", err)
	}
	if len(trace.Events) != 5 {
		t.Fatalf("got %d events, want 5", len(trace.Events))
	}
	for _, ev := range trace.Events {
		if ev.Trace != "job123" {
			t.Errorf("event %s missing trace id: %q", ev.Type, ev.Trace)
		}
	}
	ids := trace.TraceIDs()
	if len(ids) != 1 || ids[0] != "job123" {
		t.Errorf("TraceIDs = %v, want [job123]", ids)
	}
	if got := trace.FilterTrace("job123"); len(got.Events) != 5 {
		t.Errorf("FilterTrace kept %d events, want 5", len(got.Events))
	}
	if got := trace.FilterTrace("other"); len(got.Events) != 0 {
		t.Errorf("FilterTrace(other) kept %d events, want 0", len(got.Events))
	}
}

// TestObsOffPathZeroAlloc gates the fully disabled observability plane: a
// nil tracer and nil span must not allocate on any instrumented call site.
func TestObsOffPathZeroAlloc(t *testing.T) {
	var tr *Tracer
	var sp *Span
	n := testing.AllocsPerRun(1000, func() {
		s := tr.Start("reveal", "app")
		s.MethodCollected("m", 1, 0)
		sp.CacheHit("k")
		s.End()
	})
	if n != 0 {
		t.Errorf("disabled obs path allocates %v per op, want 0", n)
	}
}
