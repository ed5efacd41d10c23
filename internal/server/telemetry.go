package server

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"dexlego/internal/obs"
	"dexlego/internal/pipeline"
)

// telemetry is the server's typed metric plane: every series served at
// GET /metrics is registered here once, at construction, so the exposition
// is a stable contract rather than whatever a handler happened to print.
// Counters and gauges that the server already tracks (job counts, store
// counters) are registered as lazy funcs over the existing state; only the
// latency histograms and incident counters are new state.
type telemetry struct {
	reg *obs.Registry

	queueHist *obs.Histogram
	runHist   *obs.Histogram
	totalHist *obs.Histogram
	stageHist map[pipeline.Stage]*obs.Histogram

	sloViolations  obs.Counter
	flightFailed   obs.Counter
	flightSLO      obs.Counter
	flightDumpErrs obs.Counter

	revealCPUNS     obs.Counter
	revealAllocB    obs.Counter
	revealHeapPeakB obs.Gauge

	methodsCached   obs.Counter
	methodsExecuted obs.Counter

	memSpills       obs.Counter
	memSpilledBytes obs.Counter
}

// newTelemetry builds the registry over the server's live state.
func newTelemetry(s *Server) *telemetry {
	t := &telemetry{
		reg:       obs.NewRegistry("dexlego"),
		stageHist: make(map[pipeline.Stage]*obs.Histogram, len(pipeline.Stages())),
	}
	r := t.reg

	r.CounterFunc("jobs_submitted", "Jobs accepted by the reveal API.",
		s.submitted.Load)
	r.CounterFunc("jobs_rejected", "Jobs answered 429 because the queue was full.",
		s.rejected.Load)
	r.CounterFunc("jobs_coalesced",
		"Submissions that joined an already-active job for the same key.",
		s.coalesced.Load)
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed} {
		st := st
		r.GaugeFunc("jobs", "Jobs by lifecycle state.", func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return int64(s.counts[st])
		}, obs.L("state", string(st)))
	}

	r.CounterFunc("store_hits", "Artifact cache hits.", s.cfg.Store.Hits)
	r.CounterFunc("store_misses", "Artifact cache misses.", s.cfg.Store.Misses)
	r.CounterFunc("store_evicted", "Artifacts evicted from the store.", s.cfg.Store.Evicted)
	r.CounterFunc("store_corrupt", "Damaged disk artifacts rejected as misses.", s.cfg.Store.Corrupt)
	r.GaugeFunc("store_resident", "Artifacts resident in the store.", func() int64 {
		return int64(s.cfg.Store.Len())
	})

	r.CounterFunc("trace_dropped_events", "Trace events lost to sink or encoding errors.",
		s.droppedEvents)

	t.queueHist = r.Histogram("job_queue_latency_nanoseconds",
		"Time jobs spent waiting for a pool worker.")
	t.runHist = r.Histogram("job_run_latency_nanoseconds",
		"Time jobs spent inside the reveal (or store lookup).")
	t.totalHist = r.Histogram("job_total_latency_nanoseconds",
		"Admission-to-completion job latency.")
	for _, st := range pipeline.Stages() {
		t.stageHist[st] = r.Histogram("stage_latency_nanoseconds",
			"Per-stage reveal wall time.", obs.L("stage", st.String()))
	}

	r.CounterFunc("slo_violations", "Jobs whose total latency exceeded the objective.",
		t.sloViolations.Load)
	r.CounterFunc("flight_dumps", "Flight recordings dumped, by incident reason.",
		t.flightFailed.Load, obs.L("reason", obs.FlightReasonFailed))
	r.CounterFunc("flight_dumps", "Flight recordings dumped, by incident reason.",
		t.flightSLO.Load, obs.L("reason", obs.FlightReasonSLO))
	r.CounterFunc("flight_dump_errors", "Flight dumps that could not be written to disk.",
		t.flightDumpErrs.Load)

	r.CounterFunc("reveal_cpu_nanoseconds",
		"Time force-execution workers spent inside forced runs, summed over reveals.",
		t.revealCPUNS.Load)
	r.CounterFunc("reveal_alloc_bytes", "Heap allocation volume of completed reveals.",
		t.revealAllocB.Load)
	r.GaugeFunc("reveal_heap_peak_bytes",
		"Largest live-heap growth any single reveal has caused.", t.revealHeapPeakB.Load)

	// The incremental method-cache family exists whenever the server has a
	// method cache (the default in -serve); all series are lazy funcs over
	// the cache plus two per-job counters fed by observeJob.
	if mc := s.cfg.MethodCache; mc != nil {
		r.CounterFunc("methodcache_hits", "Method-tree cache hits.", mc.Hits)
		r.CounterFunc("methodcache_misses", "Method-tree cache misses.", mc.Misses)
		r.CounterFunc("methodcache_evicted", "Method trees evicted from memory.", mc.Evicted)
		r.CounterFunc("methodcache_corrupt", "Damaged disk method trees rejected as misses.", mc.Corrupt)
		r.GaugeFunc("methodcache_resident", "Method trees resident in memory.", func() int64 {
			return int64(mc.Len())
		})
		r.GaugeFunc("methodcache_resident_bytes",
			"Serialized size of resident method trees.", mc.Bytes)
		r.CounterFunc("methodcache_methods_cached",
			"Methods served by tree splicing across completed reveals.",
			t.methodsCached.Load)
		r.CounterFunc("methodcache_methods_executed",
			"Methods executed fresh across completed incremental reveals.",
			t.methodsExecuted.Load)
	}

	// The memory-budget family exists whenever the server gates admissions
	// on heap footprint: budget occupancy as lazy funcs over the gate, the
	// spill counters fed per job by observeJob.
	if b := s.cfg.MemBudget; b != nil {
		r.GaugeFunc("mem_budget_bytes",
			"Configured reveal heap-footprint budget.", b.Limit)
		r.GaugeFunc("mem_inuse_bytes",
			"Estimated heap footprint of currently admitted reveals.", b.InUse)
		r.CounterFunc("mem_admit_waits",
			"Reveals that blocked on the memory budget before running.", b.Waits)
		r.CounterFunc("mem_admit_wait_nanoseconds",
			"Total time reveals spent blocked on the memory budget.", b.WaitNS)
		r.CounterFunc("mem_spills",
			"Method records displaced to the spill tier across completed reveals.",
			t.memSpills.Load)
		r.CounterFunc("mem_spilled_bytes",
			"Serialized volume displaced to the spill tier across completed reveals.",
			t.memSpilledBytes.Load)
	}
	return t
}

// observeJob feeds one finished job's latencies and resource bill into the
// histograms and totals. Stage latencies and resource totals come from the
// run itself, so cache hits contribute only latency.
func (t *telemetry) observeJob(queue, run, total time.Duration, m *pipeline.AppMetrics, fresh bool) {
	t.queueHist.Observe(int64(queue))
	t.runHist.Observe(int64(run))
	t.totalHist.Observe(int64(total))
	if !fresh || m == nil {
		return
	}
	for _, st := range m.Stages {
		if h, ok := t.stageHist[st.Stage]; ok {
			h.Observe(st.WallNS)
		}
		t.revealCPUNS.Add(st.CPUNS)
	}
	t.revealAllocB.Add(m.AllocBytes)
	t.revealHeapPeakB.Max(m.HeapPeakBytes)
	t.methodsCached.Add(int64(m.MethodsCached))
	t.methodsExecuted.Add(int64(m.MethodsExecuted))
	t.memSpills.Add(int64(m.MethodsSpilled))
	t.memSpilledBytes.Add(m.SpilledBytes)
}

// droppedEvents totals trace events lost anywhere in the plane: the live
// server tracer plus every finished job's tracers.
func (s *Server) droppedEvents() int64 {
	return s.tracer.Dropped() + s.jobDropped.Load()
}

// handleOpenMetrics serves GET /metrics in OpenMetrics text format.
func (s *Server) handleOpenMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.tel.reg.WriteOpenMetrics(w)
}

// handleFlight serves GET /v1/jobs/{id}/flight: the JSONL flight recording
// of a failed or SLO-violating job.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	var flight []byte
	if ok {
		flight = j.flight
	}
	s.mu.Unlock()
	switch {
	case !ok:
		httpError(w, http.StatusNotFound, "unknown job")
	case flight == nil:
		httpError(w, http.StatusNotFound, "no flight recording; job neither failed nor violated its SLO")
	default:
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(flight)
	}
}

// dumpFlight drains a job's flight ring after an incident. The recording
// is kept on the job record for GET /v1/jobs/{id}/flight, optionally
// written to FlightDir as <jobid>.jsonl, and announced with a flight_dump
// event so the main trace records that (and why) a dump exists.
func (s *Server) dumpFlight(j *job, rec *obs.FlightRecorder, span *obs.Span, reason string) {
	var buf bytes.Buffer
	n, _ := rec.Dump(&buf)
	switch reason {
	case obs.FlightReasonFailed:
		s.tel.flightFailed.Add(1)
	case obs.FlightReasonSLO:
		s.tel.flightSLO.Add(1)
	}
	span.FlightDump(j.id, n, reason)
	if dir := s.cfg.FlightDir; dir != "" {
		if err := os.WriteFile(filepath.Join(dir, j.id+".jsonl"), buf.Bytes(), 0o644); err != nil {
			s.tel.flightDumpErrs.Add(1)
		}
	}
	s.mu.Lock()
	j.flight = buf.Bytes()
	j.flightReason = reason
	s.mu.Unlock()
}

// traceIDFor derives the stable per-job trace identity from the artifact's
// content address: requests for the same (APK, Options) pair share it, so
// one grep extracts every run of the same work.
func traceIDFor(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
