package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync"
	"testing"
)

func parseAll(t *testing.T, buf *bytes.Buffer) []*Event {
	t.Helper()
	tr, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	return tr.Events
}

func TestSpanHierarchyEmitsValidJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewJSONLSink(&buf))
	root := tr.Start("reveal", "app-a")
	stage := root.Start("stage.collection")
	stage.TreeFork("La;->m()V", 6, 1)
	stage.TreeConverge("La;->m()V", 10, 1)
	stage.MethodCollected("La;->m()V", 2, 17)
	stage.End()
	root.End()

	evs := parseAll(t, &buf)
	if len(evs) != 7 {
		t.Fatalf("got %d events, want 7", len(evs))
	}
	if evs[0].Type != EventSpanStart || evs[0].Parent != 0 || evs[0].App != "app-a" {
		t.Errorf("root span_start wrong: %+v", evs[0])
	}
	if evs[1].Type != EventSpanStart || evs[1].Parent != evs[0].Span {
		t.Errorf("child span not parented to root: %+v", evs[1])
	}
	if evs[2].Type != EventTreeFork || evs[2].Span != evs[1].Span || evs[2].PC != 6 {
		t.Errorf("tree_fork wrong: %+v", evs[2])
	}
	if evs[5].Type != EventSpanEnd || evs[5].Name != "stage.collection" || evs[5].DurNS < 0 {
		t.Errorf("stage span_end wrong: %+v", evs[5])
	}
	if evs[6].Type != EventSpanEnd || evs[6].Span != evs[0].Span {
		t.Errorf("root span_end wrong: %+v", evs[6])
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Errorf("timestamps not monotonic at %d: %d < %d", i, evs[i].TS, evs[i-1].TS)
		}
	}
}

// TestServiceEventEmitters drives the reveal-as-a-service emitters through
// a real sink and checks every line validates and counts.
func TestServiceEventEmitters(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewJSONLSink(&buf))
	root := tr.Start("server", "dexlego-serve")
	job := root.Start("job")
	job.QueueWait("job-1", 1500)
	job.CacheMiss("aa11")
	job.JobDone("job-1", 9000, true)
	job.CacheHit("aa11")
	job.JobDone("job-2", 100, false)
	job.End()
	root.End()

	evs := parseAll(t, &buf)
	snap := tr.Snapshot()
	for ty, want := range map[EventType]int64{
		EventQueueWait: 1, EventCacheMiss: 1, EventCacheHit: 1,
		EventJobDone: 2,
	} {
		if got := snap.EventCount(ty); got != want {
			t.Errorf("%s count = %d, want %d", ty, got, want)
		}
	}
	var sawOK, sawFailed bool
	for _, ev := range evs {
		if ev.Type != EventJobDone {
			continue
		}
		switch ev.Name {
		case JobOK:
			sawOK = true
		case JobFailed:
			sawFailed = true
		}
	}
	if !sawOK || !sawFailed {
		t.Errorf("job_done outcomes incomplete: ok=%t failed=%t", sawOK, sawFailed)
	}
}

func TestSpanEndIsIdempotent(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewJSONLSink(&buf))
	s := tr.Start("reveal", "")
	s.End()
	s.End()
	evs := parseAll(t, &buf)
	if len(evs) != 2 {
		t.Fatalf("double End emitted %d events, want 2", len(evs))
	}
}

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	s := tr.Start("reveal", "x")
	if s != nil {
		t.Fatal("nil tracer returned a live span")
	}
	// All of these must not panic.
	s.End()
	s.TreeFork("m", 0, 1)
	s.UCBFlip("m", 0, true, 0)
	s.ConcurrentEntry("d")
	if c := s.Start("child"); c != nil {
		t.Fatal("nil span returned a live child")
	}
	if tr.Snapshot() != nil {
		t.Fatal("nil tracer returned a snapshot")
	}
}

func TestMetricsOnlyTracer(t *testing.T) {
	tr := New(nil) // nil sink: metrics, no lines
	s := tr.Start("reveal", "x")
	s.TreeFork("m", 4, 2)
	s.TreeFork("m", 8, 3)
	s.StubEmitted("n")
	s.End()
	snap := tr.Snapshot()
	if got := snap.EventCount(EventTreeFork); got != 2 {
		t.Errorf("tree_fork count = %d, want 2", got)
	}
	if snap.MaxTreeDepth != 3 {
		t.Errorf("MaxTreeDepth = %d, want 3", snap.MaxTreeDepth)
	}
}

func TestEventTypeRoundTrip(t *testing.T) {
	for _, et := range EventTypes() {
		data, err := json.Marshal(et)
		if err != nil {
			t.Fatalf("%v: %v", et, err)
		}
		var back EventType
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%v: %v", et, err)
		}
		if back != et {
			t.Errorf("round trip %v -> %s -> %v", et, data, back)
		}
	}
	var bad EventType
	if err := json.Unmarshal([]byte(`"warp_core_breach"`), &bad); err == nil {
		t.Error("unknown event name must be rejected")
	}
	if _, err := EventType(200).MarshalText(); err == nil {
		t.Error("unknown event value must not marshal")
	}
}

func TestCounterConcurrentSum(t *testing.T) {
	var c Counter
	const workers, adds = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*adds {
		t.Errorf("counter = %d, want %d", got, workers*adds)
	}
}

func TestGaugeMax(t *testing.T) {
	var g Gauge
	g.Max(3)
	g.Max(1)
	g.Max(7)
	if got := g.Load(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
	g.Set(2)
	if got := g.Load(); got != 2 {
		t.Errorf("gauge after Set = %d, want 2", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(1)
	h.Observe(100)
	h.Observe(-5) // clamped to 0
	s := h.Snapshot()
	if s.Count != 4 || s.SumNS != 101 {
		t.Fatalf("count/sum = %d/%d, want 4/101", s.Count, s.SumNS)
	}
	total := int64(0)
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != 4 {
		t.Errorf("bucket counts sum to %d, want 4", total)
	}
	for i := 1; i < len(s.Buckets); i++ {
		if s.Buckets[i].LeNS <= s.Buckets[i-1].LeNS {
			t.Errorf("buckets not sorted: %+v", s.Buckets)
		}
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := &Snapshot{
		Events:       map[string]int64{"tree_fork": 2},
		MaxTreeDepth: 2,
	}
	b := &Snapshot{
		Events:       map[string]int64{"tree_fork": 1, "stub_emitted": 4},
		MaxTreeDepth: 5,
		Dropped:      1,
	}
	got := MergeSnapshots(a, b)
	if got.Events["tree_fork"] != 3 || got.Events["stub_emitted"] != 4 {
		t.Errorf("merged events wrong: %+v", got.Events)
	}
	if got.MaxTreeDepth != 5 || got.Dropped != 1 {
		t.Errorf("merged depth/dropped = %d/%d", got.MaxTreeDepth, got.Dropped)
	}
	if MergeSnapshots(nil, nil) != nil {
		t.Error("merging two nils must stay nil")
	}
	if m := MergeSnapshots(nil, b); m == nil || m.Events["stub_emitted"] != 4 {
		t.Error("merging into nil must copy src")
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	return 0, errors.New("disk full")
}

func TestSinkErrorCountsDropped(t *testing.T) {
	w := &failWriter{}
	sink := NewJSONLSink(w)
	tr := New(sink)
	s := tr.Start("reveal", "x")
	s.TreeFork("m", 0, 1)
	s.End()
	if tr.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3", tr.Dropped())
	}
	if sink.Err() == nil {
		t.Error("sink error not latched")
	}
	if w.n != 1 {
		t.Errorf("sink kept writing after error: %d writes", w.n)
	}
}

func TestConcurrentTracersSharedSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := New(sink)
			root := tr.Start("reveal", "app")
			for j := 0; j < 50; j++ {
				root.TreeFork("m", j, 1)
			}
			root.End()
		}(i)
	}
	wg.Wait()
	evs := parseAll(t, &buf)
	if len(evs) != 8*52 {
		t.Fatalf("got %d events, want %d", len(evs), 8*52)
	}
	seen := make(map[uint64]bool)
	for _, ev := range evs {
		if ev.Type == EventSpanStart {
			if seen[ev.Span] {
				t.Fatalf("span id %d reused across tracers", ev.Span)
			}
			seen[ev.Span] = true
		}
	}
}
