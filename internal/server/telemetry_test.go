package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	dexlego "dexlego"
	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/obs"
	"dexlego/internal/pipeline"
	"dexlego/internal/store"
	"dexlego/internal/workload"
)

// lockedBuffer is a concurrency-safe obs.Sink capturing the full trace.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Emit(line []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, err := b.buf.Write(line)
	return err
}

func (b *lockedBuffer) bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestOpenMetricsScrapeLints is the exposition acceptance test: after a
// real reveal, GET /metrics must serve OpenMetrics text that survives the
// strict parser and covers jobs, cache traffic, per-stage latency and
// resource accounting. A small warm reveal's allocation bill can read 0
// (see TestJobResourceAccounting), so the driver allocates 1 MiB inside
// the run window.
func TestOpenMetricsScrapeLints(t *testing.T) {
	_, hs := newTestServer(t, func(c *Config) {
		c.Reveal = func(pkg *apk.APK, o dexlego.Options) (*dexlego.Result, error) {
			o.Driver = func(rt *art.Runtime) error {
				ballast = make([]byte, 1<<20)
				return dexlego.DefaultDriver(rt)
			}
			return dexlego.Reveal(pkg, o)
		}
	})
	if resp, _ := postReveal(t, hs.URL, "?sample=SelfModifying1&wait=1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("reveal = %d", resp.StatusCode)
	}
	code, body := getBody(t, hs.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	e, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("scrape does not lint: %v\n%s", err, body)
	}
	if v, ok := e.Value("dexlego_jobs_submitted_total"); !ok || v != 1 {
		t.Errorf("jobs_submitted_total = %v,%t want 1", v, ok)
	}
	if v, ok := e.Value("dexlego_store_misses_total"); !ok || v != 1 {
		t.Errorf("store_misses_total = %v,%t want 1", v, ok)
	}
	if v, ok := e.Value("dexlego_jobs", obs.L("state", "done")); !ok || v != 1 {
		t.Errorf("jobs{state=done} = %v,%t want 1", v, ok)
	}
	if v, ok := e.Value("dexlego_store_corrupt_total"); !ok || v != 0 {
		t.Errorf("store_corrupt_total = %v,%t want 0", v, ok)
	}
	if v, ok := e.Value("dexlego_trace_dropped_events_total"); !ok || v != 0 {
		t.Errorf("trace_dropped_events_total = %v,%t want 0", v, ok)
	}
	if f := e.Family("dexlego_stage_latency_nanoseconds"); f == nil || f.Type != "histogram" {
		t.Fatalf("stage latency family missing: %+v", f)
	}
	if v, ok := e.Value("dexlego_stage_latency_nanoseconds_count", obs.L("stage", "collection")); !ok || v != 1 {
		t.Errorf("collection stage count = %v,%t want 1", v, ok)
	}
	if v, ok := e.Value("dexlego_job_total_latency_nanoseconds_count"); !ok || v != 1 {
		t.Errorf("total latency count = %v,%t want 1", v, ok)
	}
	if v, ok := e.Value("dexlego_reveal_alloc_bytes_total"); !ok || v <= 0 {
		t.Errorf("reveal_alloc_bytes_total = %v,%t want > 0", v, ok)
	}
	if v, ok := e.Value("dexlego_reveal_heap_peak_bytes"); !ok || v < 0 {
		t.Errorf("reveal_heap_peak_bytes = %v,%t want >= 0", v, ok)
	}
}

// TestStoreCorruptCountsEntryOnce submits once over a damaged on-disk
// artifact. The fast path and the job both read the entry, and both reject
// it, but dexlego_store_corrupt_total counts the damaged entry once.
func TestStoreCorruptCountsEntryOnce(t *testing.T) {
	dir := t.TempDir()
	body := buildBodyAPK(t, "damagedapp")
	serve := func() string {
		st, err := store.Open(dir, 4)
		if err != nil {
			t.Fatal(err)
		}
		_, hs := newTestServer(t, func(c *Config) {
			c.Store = st
			c.Reveal = func(pkg *apk.APK, _ dexlego.Options) (*dexlego.Result, error) {
				return stubResult(pkg.Manifest.Package), nil
			}
		})
		return hs.URL
	}
	if resp, _ := postReveal(t, serve(), "?wait=1", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("first reveal = %d", resp.StatusCode)
	}
	metas, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil || len(metas) != 1 {
		t.Fatalf("persisted metadata = %v, %v; want one file", metas, err)
	}
	if err := os.WriteFile(metas[0], []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}

	base := serve() // a fresh store over the damaged entry
	if resp, job := postReveal(t, base, "?wait=1", body); resp.StatusCode != http.StatusOK || job.CacheHit {
		t.Fatalf("reveal over the damaged entry = %d, job = %+v", resp.StatusCode, job)
	}
	_, scrape := getBody(t, base+"/metrics")
	e, err := obs.ParseExposition(bytes.NewReader(scrape))
	if err != nil {
		t.Fatalf("scrape does not lint: %v", err)
	}
	if v, ok := e.Value("dexlego_store_corrupt_total"); !ok || v != 1 {
		t.Errorf("store_corrupt_total = %v,%t want 1", v, ok)
	}
	if v, ok := e.Value("dexlego_store_misses_total"); !ok || v != 1 {
		t.Errorf("store_misses_total = %v,%t want 1", v, ok)
	}
}

// TestFlightDumpOnFailedJob checks the incident path end to end: a failed
// job keeps a flight recording, serves it at /v1/jobs/{id}/flight, writes
// it to FlightDir, and every recorded event replays under the job's trace
// ID through the schema-validating reader.
func TestFlightDumpOnFailedJob(t *testing.T) {
	dir := t.TempDir()
	_, hs := newTestServer(t, func(c *Config) {
		c.FlightDir = dir
		c.Reveal = func(*apk.APK, dexlego.Options) (*dexlego.Result, error) {
			return nil, errors.New("synthetic reveal failure")
		}
	})
	resp, st := postReveal(t, hs.URL, "?sample=SelfModifying1&wait=1", nil)
	if resp.StatusCode != http.StatusOK || st.State != StateFailed {
		t.Fatalf("job = %d %+v, want completed failed", resp.StatusCode, st)
	}
	if st.FlightReason != obs.FlightReasonFailed {
		t.Errorf("flight reason = %q, want failed", st.FlightReason)
	}
	if st.Trace == "" || !strings.HasPrefix(st.Key, st.Trace) {
		t.Errorf("trace id %q is not a prefix of key %q", st.Trace, st.Key)
	}

	code, dump := getBody(t, hs.URL+"/v1/jobs/"+st.ID+"/flight")
	if code != http.StatusOK || len(dump) == 0 {
		t.Fatalf("GET flight = %d (%d bytes), want non-empty 200", code, len(dump))
	}
	trace, err := obs.ReadTrace(bytes.NewReader(dump))
	if err != nil {
		t.Fatalf("flight dump fails schema validation: %v", err)
	}
	if n := len(trace.FilterTrace(st.Trace).Events); n != len(trace.Events) || n == 0 {
		t.Errorf("dump holds %d events, %d under the job's trace id", len(trace.Events), n)
	}
	var sawQueueWait, sawJobDone bool
	for _, ev := range trace.Events {
		sawQueueWait = sawQueueWait || ev.Type == obs.EventQueueWait
		sawJobDone = sawJobDone || ev.Type == obs.EventJobDone
	}
	if !sawQueueWait || !sawJobDone {
		t.Errorf("dump lacks lifecycle events (queue_wait=%t job_done=%t)", sawQueueWait, sawJobDone)
	}

	disk, err := os.ReadFile(filepath.Join(dir, st.ID+".jsonl"))
	if err != nil || !bytes.Equal(disk, dump) {
		t.Errorf("FlightDir recording missing or differs: %v", err)
	}

	code, body := getBody(t, hs.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	e, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("scrape does not lint: %v", err)
	}
	if v, ok := e.Value("dexlego_flight_dumps_total", obs.L("reason", "failed")); !ok || v != 1 {
		t.Errorf("flight_dumps_total{reason=failed} = %v,%t want 1", v, ok)
	}
}

// TestSLOViolationDumpsFlight: a successful job that blows the latency
// objective still produces its artifact but also a flight recording with
// reason "slo" and an slo_violation event inside it.
func TestSLOViolationDumpsFlight(t *testing.T) {
	_, hs := newTestServer(t, func(c *Config) { c.SLO = time.Nanosecond })
	resp, st := postReveal(t, hs.URL, "?sample=SelfModifying1&wait=1", nil)
	if resp.StatusCode != http.StatusOK || st.State != StateDone {
		t.Fatalf("job = %d %+v, want done", resp.StatusCode, st)
	}
	if st.FlightReason != obs.FlightReasonSLO {
		t.Errorf("flight reason = %q, want slo", st.FlightReason)
	}
	code, dump := getBody(t, hs.URL+"/v1/jobs/"+st.ID+"/flight")
	if code != http.StatusOK || len(dump) == 0 {
		t.Fatalf("GET flight = %d (%d bytes), want non-empty 200", code, len(dump))
	}
	trace, err := obs.ReadTrace(bytes.NewReader(dump))
	if err != nil {
		t.Fatalf("flight dump fails schema validation: %v", err)
	}
	var sawViolation bool
	for _, ev := range trace.Events {
		sawViolation = sawViolation || ev.Type == obs.EventSLOViolation
	}
	if !sawViolation {
		t.Error("dump lacks the slo_violation event")
	}
	// The exposition counts the violation alongside the dump.
	code, scrape := getBody(t, hs.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", code)
	}
	exp, err := obs.ParseExposition(bytes.NewReader(scrape))
	if err != nil {
		t.Fatalf("exposition does not lint: %v", err)
	}
	if v, ok := exp.Value("dexlego_slo_violations_total"); !ok || v != 1 {
		t.Errorf("slo_violations_total = %v (present %t), want 1", v, ok)
	}
	if v, ok := exp.Value("dexlego_flight_dumps_total", obs.L("reason", obs.FlightReasonSLO)); !ok || v != 1 {
		t.Errorf("flight_dumps_total{reason=slo} = %v (present %t), want 1", v, ok)
	}
}

// TestHealthyJobHasNoFlight: on the happy path the ring is discarded and
// the flight endpoint answers 404.
func TestHealthyJobHasNoFlight(t *testing.T) {
	_, hs := newTestServer(t, nil)
	resp, st := postReveal(t, hs.URL, "?sample=SelfModifying1&wait=1", nil)
	if resp.StatusCode != http.StatusOK || st.State != StateDone {
		t.Fatalf("job = %d %+v, want done", resp.StatusCode, st)
	}
	if st.FlightReason != "" {
		t.Errorf("healthy job has flight reason %q", st.FlightReason)
	}
	if code, _ := getBody(t, hs.URL+"/v1/jobs/"+st.ID+"/flight"); code != http.StatusNotFound {
		t.Errorf("GET flight on healthy job = %d, want 404", code)
	}
	if code, _ := getBody(t, hs.URL+"/v1/jobs/nope/flight"); code != http.StatusNotFound {
		t.Errorf("GET flight on unknown job = %d, want 404", code)
	}
}

// TestTraceIDPropagatesEndToEnd submits one job with a shared sink and
// checks the full span tree — lifecycle span, reveal root, stage spans,
// collector events — carries the job's trace ID, so -trace-report can
// filter one job out of a busy server's interleaved trace.
func TestTraceIDPropagatesEndToEnd(t *testing.T) {
	sink := &lockedBuffer{}
	_, hs := newTestServer(t, func(c *Config) { c.Sink = sink })
	resp, st := postReveal(t, hs.URL, "?sample=SelfModifying1&wait=1", nil)
	if resp.StatusCode != http.StatusOK || st.State != StateDone {
		t.Fatalf("job = %d %+v, want done", resp.StatusCode, st)
	}
	trace, err := obs.ReadTrace(bytes.NewReader(sink.bytes()))
	if err != nil {
		t.Fatalf("server trace invalid: %v", err)
	}
	got := trace.FilterTrace(st.Trace)
	if len(got.Events) == 0 {
		t.Fatalf("no events under trace %q", st.Trace)
	}
	spanNames := map[string]bool{}
	for _, ev := range got.Events {
		if ev.Type == obs.EventSpanStart {
			spanNames[ev.Name] = true
		}
	}
	for _, want := range []string{"job", "reveal", "stage.collection", "stage.reassembly", "stage.verify"} {
		if !spanNames[want] {
			t.Errorf("span %q missing from the job's trace (have %v)", want, spanNames)
		}
	}
	// The server span itself carries no job trace id.
	if ids := trace.TraceIDs(); len(ids) != 1 || ids[0] != st.Trace {
		t.Errorf("TraceIDs = %v, want exactly [%s]", ids, st.Trace)
	}
}

// ballast holds the large object the resource-accounting tests' drivers
// allocate, so the allocation escapes to the heap.
var ballast []byte

// TestJobResourceAccounting: a completed job reports its latency split and
// the reveal's allocation bill through the status API and /metrics, and a
// cache hit, which runs nothing, adds nothing to the reveal totals.
//
// The bill reads a process-wide counter that can lag a small window by up
// to one span per size class per P, so a small reveal may legitimately
// read 0. Objects above 32 KiB are counted when allocated, so the driver
// allocates one of 1 MiB inside the run window: the bill must cover it.
func TestJobResourceAccounting(t *testing.T) {
	const large = 1 << 20
	_, hs := newTestServer(t, func(c *Config) {
		c.Reveal = func(pkg *apk.APK, o dexlego.Options) (*dexlego.Result, error) {
			o.Driver = func(rt *art.Runtime) error {
				ballast = make([]byte, large)
				return dexlego.DefaultDriver(rt)
			}
			return dexlego.Reveal(pkg, o)
		}
	})
	resp, st := postReveal(t, hs.URL, "?sample=SelfModifying1&wait=1", nil)
	if resp.StatusCode != http.StatusOK || st.State != StateDone {
		t.Fatalf("job = %d %+v, want done", resp.StatusCode, st)
	}
	if st.TotalNS <= 0 || st.TotalNS < st.RunNS || st.TotalNS < st.QueueNS {
		t.Errorf("latency split queue %d / run %d / total %d inconsistent", st.QueueNS, st.RunNS, st.TotalNS)
	}
	if st.Metrics == nil || st.Metrics.AllocBytes < large {
		t.Fatalf("reveal bill misses the %d-byte allocation: %+v", large, st.Metrics)
	}

	revealTotals := func() (alloc, cpu float64) {
		t.Helper()
		_, body := getBody(t, hs.URL+"/metrics")
		e, err := obs.ParseExposition(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("scrape does not lint: %v", err)
		}
		alloc, _ = e.Value("dexlego_reveal_alloc_bytes_total")
		cpu, _ = e.Value("dexlego_reveal_cpu_nanoseconds_total")
		return alloc, cpu
	}
	alloc, cpu := revealTotals()
	if alloc != float64(st.Metrics.AllocBytes) {
		t.Errorf("reveal_alloc_bytes_total = %v, want the job's bill %d", alloc, st.Metrics.AllocBytes)
	}
	_, hit := postReveal(t, hs.URL, "?sample=SelfModifying1&wait=1", nil)
	if !hit.CacheHit || hit.TotalNS <= 0 {
		t.Fatalf("hit = %+v, want cache hit with a latency", hit)
	}
	if a, c := revealTotals(); a != alloc || c != cpu {
		t.Errorf("cache hit moved the reveal totals: alloc %v -> %v, cpu %v -> %v", alloc, a, cpu, c)
	}
}

// TestMemBudgetMetricsExposed checks the memory-budget plane end to end: a
// whale submitted to a budget-gated server spills records mid-reveal, and
// the scrape carries the whole dexlego_mem_* family.
func TestMemBudgetMetricsExposed(t *testing.T) {
	sc, err := store.OpenMethodCache("", 0)
	if err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, func(c *Config) {
		c.MemBudget = pipeline.NewMemoryBudget(512 << 20)
		c.SpillCache = sc
	})
	app, err := workload.Whale(workload.WhaleConfig{
		Classes: 4, MethodsPerClass: 2, InsnsPerMethod: 64,
		GiantMethods: 1, GiantInsns: 4000, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	body, err := app.APK.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ := postReveal(t, hs.URL, "?wait=1", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("reveal = %d", resp.StatusCode)
	}
	code, scrape := getBody(t, hs.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	e, err := obs.ParseExposition(bytes.NewReader(scrape))
	if err != nil {
		t.Fatalf("scrape does not lint: %v\n%s", err, scrape)
	}
	if v, ok := e.Value("dexlego_mem_budget_bytes"); !ok || v != 512<<20 {
		t.Errorf("mem_budget_bytes = %v,%t want %d", v, ok, 512<<20)
	}
	if v, ok := e.Value("dexlego_mem_inuse_bytes"); !ok || v != 0 {
		t.Errorf("mem_inuse_bytes after completion = %v,%t want 0", v, ok)
	}
	if v, ok := e.Value("dexlego_mem_admit_waits_total"); !ok || v != 0 {
		t.Errorf("mem_admit_waits_total = %v,%t want 0 (single job never waits)", v, ok)
	}
	if _, ok := e.Value("dexlego_mem_admit_wait_nanoseconds_total"); !ok {
		t.Errorf("mem_admit_wait_nanoseconds_total missing")
	}
	if v, ok := e.Value("dexlego_mem_spills_total"); !ok || v <= 0 {
		t.Errorf("mem_spills_total = %v,%t want > 0", v, ok)
	}
	if v, ok := e.Value("dexlego_mem_spilled_bytes_total"); !ok || v <= 0 {
		t.Errorf("mem_spilled_bytes_total = %v,%t want > 0", v, ok)
	}
}

// TestMemBudgetGatesConcurrentReveals pins the admission behavior: with a
// budget that fits one estimate, two concurrent fresh reveals serialize and
// the second records an admission wait.
func TestMemBudgetGatesConcurrentReveals(t *testing.T) {
	budget := pipeline.NewMemoryBudget(10 << 20) // one 8 MiB floor estimate at a time
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	srv, hs := newTestServer(t, func(c *Config) {
		c.MemBudget = budget
		c.Reveal = func(pkg *apk.APK, opts dexlego.Options) (*dexlego.Result, error) {
			started <- struct{}{}
			<-release
			return dexlego.Reveal(pkg, opts)
		}
	})
	resp1, st1 := postReveal(t, hs.URL, "?sample=SelfModifying1", nil)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1 = %d", resp1.StatusCode)
	}
	<-started // job 1 is inside the reveal closure holding the budget
	resp2, st2 := postReveal(t, hs.URL, "?sample=DirectLeak1", nil)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2 = %d", resp2.StatusCode)
	}
	// Job 2 must be blocked in Acquire, not inside the reveal.
	deadline := time.Now().Add(2 * time.Second)
	for budget.Waits() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if budget.Waits() != 1 {
		t.Fatalf("Waits = %d, want 1", budget.Waits())
	}
	select {
	case <-started:
		t.Fatalf("second reveal entered while the budget was held")
	default:
	}
	close(release)
	_ = srv
	for _, id := range []string{st1.ID, st2.ID} {
		st := pollJob(t, hs.URL, id, 10*time.Second)
		if st.State != StateDone {
			t.Fatalf("job %s = %s (%s)", id, st.State, st.Err)
		}
	}
	if budget.InUse() != 0 {
		t.Fatalf("InUse after completion = %d, want 0", budget.InUse())
	}
	if budget.WaitNS() <= 0 {
		t.Fatalf("WaitNS = %d, want > 0", budget.WaitNS())
	}
}

// pollJob polls GET /v1/jobs/{id} until the job leaves the active states.
func pollJob(t *testing.T, base, id string, timeout time.Duration) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		code, data := getBody(t, base+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s = %d", id, code)
		}
		var st JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("job status does not parse: %v: %s", err, data)
		}
		if st.State == StateDone || st.State == StateFailed {
			return &st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, st.State, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// failingSink is an obs.Sink whose every write fails; it counts the lines
// it was offered, which is exactly the number of events lost.
type failingSink struct{ lines atomic.Int64 }

func (s *failingSink) Emit([]byte) error {
	s.lines.Add(1)
	return errors.New("sink down")
}

// TestDroppedEventsCountedOnce: every line a failing sink refuses is one
// dropped event, counted once on both metric surfaces. One miss and three
// cache hits of SelfModifying1 lose 32 lines; a cache hit must not count
// the cached artifact's reveal events again.
func TestDroppedEventsCountedOnce(t *testing.T) {
	sink := &failingSink{}
	_, hs := newTestServer(t, func(c *Config) { c.Sink = sink })
	for i := 0; i < 4; i++ {
		resp, st := postReveal(t, hs.URL, "?sample=SelfModifying1&wait=1", nil)
		if resp.StatusCode != http.StatusOK || st.State != StateDone || st.CacheHit != (i > 0) {
			t.Fatalf("post %d = %d %+v, want done (hit after the first)", i, resp.StatusCode, st)
		}
	}
	lost := sink.lines.Load()
	if got := getMetrics(t, hs.URL).DroppedEvents; got != lost {
		t.Errorf("/v1/metrics droppedEvents = %d, want the %d lines lost", got, lost)
	}
	_, body := getBody(t, hs.URL+"/metrics")
	e, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := e.Value("dexlego_trace_dropped_events_total"); !ok || int64(v) != lost {
		t.Errorf("trace_dropped_events_total = %v,%t want %d", v, ok, lost)
	}
}
