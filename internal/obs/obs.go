// Package obs is the zero-dependency observability layer of the DexLego
// pipeline: hierarchical spans and typed domain events emitted as JSONL
// lines to a pluggable sink, plus lock-cheap atomic metrics that aggregate
// into a Snapshot the batch report merges per app.
//
// The no-op default is a nil *Tracer: every method on *Tracer and *Span is
// nil-safe, so instrumented hot paths pay one pointer comparison when
// tracing is off — the off-path cost is pinned by BenchmarkNilSpanEvent.
// A live tracer is always on.
//
// Concurrency contract: a Tracer and its spans are safe for concurrent use
// (span IDs are process-global, sink writes are serialized by the sink),
// but its counters are tracer-global — for per-app metric attribution give
// each concurrent Reveal its own Tracer and share one Sink between them,
// which is what cmd/dexlego -batch -trace-out does.
package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one JSONL trace line. The struct is the union of all event
// payloads; Validate checks it against its type's spec (events.go).
// Timestamps are nanoseconds on a process-wide monotonic clock, so events
// from tracers sharing a sink order consistently.
type Event struct {
	Type   EventType `json:"ev"`
	TS     int64     `json:"tsNS"`
	Span   uint64    `json:"span,omitempty"`
	Parent uint64    `json:"parent,omitempty"` // span_start: enclosing span
	Trace  string    `json:"trace,omitempty"`  // stable job trace id (content-hash prefix), inherited by the whole span tree
	Name   string    `json:"name,omitempty"`   // span name; job_done: ok|failed; flight_dump: reason
	App    string    `json:"app,omitempty"`    // root span: application label
	DurNS  int64     `json:"durNS,omitempty"`  // span_end, queue_wait, job_done, slo_violation
	Method string    `json:"method,omitempty"` // method key
	PC     int       `json:"pc,omitempty"`     // dex_pc
	Depth  int       `json:"depth,omitempty"`  // self-modification layer depth
	Iter   int       `json:"iter,omitempty"`   // force-execution iteration
	Branch string    `json:"branch,omitempty"` // ucb_flip: taken|fallthrough
	Target string    `json:"target,omitempty"` // reflection_rewrite: bridge method
	From   int       `json:"from,omitempty"`   // merge_variant: raw tree count; worker_merge: trees offered; worker_clamp: requested workers
	Count  int       `json:"count,omitempty"`  // merge_variant: arrays kept; method_collected: insns; worker_merge: trees kept; worker_clamp: granted workers; flight_dump: events dumped
	Worker int       `json:"worker,omitempty"` // worker_merge: merged shard index
	Detail string    `json:"detail,omitempty"` // verify_defect, concurrent_entry; service events: cache key or job id; worker_clamp: reason; mem_spill: spill-tier store key
	Bytes  int64     `json:"bytes,omitempty"`  // mem_spill: serialized record size; mem_admit_wait: requested estimate
	SLONS  int64     `json:"sloNS,omitempty"`  // slo_violation: the configured latency objective
}

// Sink receives encoded trace lines (each terminated by '\n').
// Implementations must be safe for concurrent use; one Sink may be shared
// by many tracers.
type Sink interface {
	Emit(line []byte) error
}

// JSONLSink serializes trace lines onto one io.Writer.
type JSONLSink struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewJSONLSink wraps w; writes are serialized under an internal mutex.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// Emit writes one line. After the first write error the sink latches it and
// drops subsequent lines.
func (s *JSONLSink) Emit(line []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	_, s.err = s.w.Write(line)
	return s.err
}

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// epoch is the process-wide monotonic origin of all trace timestamps.
var epoch = time.Now()

// spanIDs allocates span identifiers unique across all tracers in the
// process, so tracers sharing one sink never collide.
var spanIDs atomic.Uint64

// Tracer emits spans, domain events, and metrics. A nil *Tracer is the
// no-op default; a non-nil tracer with a nil sink records metrics only.
type Tracer struct {
	sink     Sink
	traceID  string // stamped on every event; set before the first Start
	counters [numEventTypes]Counter
	maxDepth Gauge
	dropped  atomic.Int64
}

// New returns a tracer writing to sink. A nil sink keeps metrics without
// emitting trace lines.
func New(sink Sink) *Tracer { return &Tracer{sink: sink} }

// Enabled reports whether the tracer records anything: false only on nil.
func (t *Tracer) Enabled() bool { return t != nil }

// SetTraceID names the stable trace identity (a content-hash prefix for
// server jobs) stamped on every event this tracer emits, root and child
// spans alike, so one job's span tree is extractable from a shared sink.
// Call it before the first Start; it is not synchronized against
// concurrent emission.
func (t *Tracer) SetTraceID(id string) {
	if t != nil {
		t.traceID = id
	}
}

// Dropped counts events lost to sink or encoding errors.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// emit counts the event and, when a sink is attached, encodes it as one
// JSONL line. Callers have already checked Enabled.
func (t *Tracer) emit(ev *Event) {
	t.counters[ev.Type].Add(1)
	if ev.Type == EventTreeFork || ev.Type == EventMethodCollected {
		t.maxDepth.Max(int64(ev.Depth))
	}
	if t.sink == nil {
		return
	}
	ev.TS = int64(time.Since(epoch))
	line, err := json.Marshal(*ev) // the copy, not ev, escapes
	if err != nil {
		t.dropped.Add(1)
		return
	}
	if err := t.sink.Emit(append(line, '\n')); err != nil {
		t.dropped.Add(1)
	}
}

// Start opens a root span. app labels the application the span covers (it
// becomes the trace report's grouping key); Start returns nil when the
// tracer is nil, and a nil *Span is itself a valid no-op.
func (t *Tracer) Start(name, app string) *Span {
	if !t.Enabled() {
		return nil
	}
	s := &Span{t: t, id: spanIDs.Add(1), name: name, trace: t.traceID, start: time.Since(epoch)}
	t.emit(&Event{Type: EventSpanStart, Span: s.id, Name: name, App: app, Trace: s.trace})
	return s
}

// Span is one timed, hierarchical region of a trace. All methods are
// nil-safe.
type Span struct {
	t     *Tracer
	id    uint64
	name  string
	trace string // inherited trace identity, stamped on every event
	start time.Duration
	ended atomic.Bool
}

// Enabled reports whether events on this span are recorded. Call sites
// whose event arguments are themselves costly (key construction, depth
// walks) should guard on it.
func (s *Span) Enabled() bool { return s != nil }

// Start opens a child span inheriting the parent's trace identity.
func (s *Span) Start(name string) *Span {
	if !s.Enabled() {
		return nil
	}
	c := &Span{t: s.t, id: spanIDs.Add(1), name: name, trace: s.trace, start: time.Since(epoch)}
	s.t.emit(&Event{Type: EventSpanStart, Span: c.id, Parent: s.id, Name: name, Trace: c.trace})
	return c
}

// End closes the span, emitting its duration as a span_end event. End is
// idempotent, so a deferred End composes with an explicit one on the
// success path.
func (s *Span) End() {
	if !s.Enabled() || !s.ended.CompareAndSwap(false, true) {
		return
	}
	d := time.Since(epoch) - s.start
	s.t.emit(&Event{Type: EventSpanEnd, Span: s.id, Name: s.name, DurNS: int64(d), Trace: s.trace})
}

// event records one domain event on the span: the single enabled check
// behind every typed emitter below. The event is built by a callback only
// past that check, so a nil span neither builds the (large)
// Event nor allocates, and since the tracer encodes a copy, a metrics-only
// tracer allocates nothing either.
func (s *Span) event(build func() Event) {
	if s.Enabled() {
		e := build()
		e.Span, e.Trace = s.id, s.trace
		s.t.emit(&e)
	}
}

// --- typed domain emitters --------------------------------------------------

// MethodCollected records one unique collection tree retained for a method:
// its layer depth (1 = no self-modification) and unique instruction count.
func (s *Span) MethodCollected(method string, depth, insns int) {
	s.event(func() Event { return Event{Type: EventMethodCollected, Method: method, Depth: depth, Count: insns} })
}

// TreeFork records a collection-tree divergence: a different instruction at
// a recorded dex_pc opened self-modification layer `depth`.
func (s *Span) TreeFork(method string, pc, depth int) {
	s.event(func() Event { return Event{Type: EventTreeFork, Method: method, PC: pc, Depth: depth} })
}

// TreeConverge records the end of self-modification layer `depth` at pc.
func (s *Span) TreeConverge(method string, pc, depth int) {
	s.event(func() Event { return Event{Type: EventTreeConverge, Method: method, PC: pc, Depth: depth} })
}

// UCBFlip records a force-execution branch override in iteration iter.
func (s *Span) UCBFlip(method string, pc int, taken bool, iter int) {
	branch := BranchFallthrough
	if taken {
		branch = BranchTaken
	}
	s.event(func() Event { return Event{Type: EventUCBFlip, Method: method, PC: pc, Branch: branch, Iter: iter} })
}

// ExceptionTolerated records an unhandled exception cleared by the
// force-execution tolerance hook.
func (s *Span) ExceptionTolerated(method string, pc int) {
	s.event(func() Event { return Event{Type: EventExceptionTolerated, Method: method, PC: pc} })
}

// ReflectionRewrite records a Method.invoke call site rewritten to the
// direct-call bridge `target`.
func (s *Span) ReflectionRewrite(method string, pc int, target string) {
	s.event(func() Event { return Event{Type: EventReflectionRewrite, Method: method, PC: pc, Target: target} })
}

// MergeVariant records a reassembler merge decision: `from` raw collection
// trees collapsed into `to` instruction arrays (to > 1 means variant bodies
// were emitted behind a dispatcher).
func (s *Span) MergeVariant(method string, from, to int) {
	s.event(func() Event { return Event{Type: EventMergeVariant, Method: method, From: from, Count: to} })
}

// StubEmitted records a declared-but-never-executed method emitted as a
// default-return stub.
func (s *Span) StubEmitted(method string) {
	s.event(func() Event { return Event{Type: EventStubEmitted, Method: method} })
}

// VerifyDefect records one structural defect found in the revealed DEX.
func (s *Span) VerifyDefect(detail string) {
	s.event(func() Event { return Event{Type: EventVerifyDefect, Detail: detail} })
}

// ConcurrentEntry records a collector ownership violation observed by the
// atomic guard, so the trace captures the context the subsequent panic
// destroys.
func (s *Span) ConcurrentEntry(detail string) {
	s.event(func() Event { return Event{Type: EventConcurrentEntry, Detail: detail} })
}

// WorkerMerge records one collection shard folded into the campaign result
// at a force-execution barrier: shard index `worker` in iteration `iter`
// offered `offered` collection trees of which `kept` were new (the rest
// were fingerprint-dedup hits against trees already on record).
func (s *Span) WorkerMerge(worker, iter, offered, kept int) {
	s.event(func() Event {
		return Event{Type: EventWorkerMerge, Worker: worker, Iter: iter, From: offered, Count: kept}
	})
}

// WorkerClamp records the admission layer capping a job's reveal-internal
// worker budget from `requested` to `granted` so concurrent jobs cannot
// oversubscribe the machine; detail names the constraint that bound.
func (s *Span) WorkerClamp(requested, granted int, detail string) {
	s.event(func() Event { return Event{Type: EventWorkerClamp, From: requested, Count: granted, Detail: detail} })
}

// --- service emitters (internal/server, internal/store) ---------------------

// CacheHit records a reveal served from the content-addressed artifact
// store under cache key `key` — no Reveal ran for this request.
func (s *Span) CacheHit(key string) {
	s.event(func() Event { return Event{Type: EventCacheHit, Detail: key} })
}

// CacheMiss records a reveal the store could not serve: the request's
// cache key had no artifact, so a Reveal ran to produce one.
func (s *Span) CacheMiss(key string) {
	s.event(func() Event { return Event{Type: EventCacheMiss, Detail: key} })
}

// MethodCacheHit records one method served from the incremental per-method
// collection cache: its fingerprint resolved to a stored tree, so force
// execution skips it and the tree is spliced later.
func (s *Span) MethodCacheHit(method string) {
	s.event(func() Event { return Event{Type: EventMethodCacheHit, Method: method} })
}

// MethodCacheMiss records one method the incremental cache could not serve
// (changed body, changed callee, uncacheable record): it executes in full.
func (s *Span) MethodCacheMiss(method string) {
	s.event(func() Event { return Event{Type: EventMethodCacheMiss, Method: method} })
}

// TreeSplice records `trees` cached collection trees grafted into the
// result for `method` in place of re-execution.
func (s *Span) TreeSplice(method string, trees int) {
	s.event(func() Event { return Event{Type: EventTreeSplice, Method: method, Count: trees} })
}

// MemSpill records one completed method record displaced from the
// in-memory collection result to the spill tier mid-reveal: `bytes` of
// serialized trees stored under content address `key`, to be fetched back
// one class at a time during reassembly.
func (s *Span) MemSpill(method string, bytes int64, key string) {
	s.event(func() Event { return Event{Type: EventMemSpill, Method: method, Bytes: bytes, Detail: key} })
}

// MemAdmitWait records job `id` blocked in the memory-budget admission
// gate for `wait` before its reveal ran, having requested an estimated
// footprint of `bytes`.
func (s *Span) MemAdmitWait(id string, wait time.Duration, bytes int64) {
	s.event(func() Event { return Event{Type: EventMemAdmitWait, Detail: id, DurNS: int64(wait), Bytes: bytes} })
}

// QueueWait records how long job `id` waited in the admission queue before
// a worker dequeued it.
func (s *Span) QueueWait(id string, wait time.Duration) {
	s.event(func() Event { return Event{Type: EventQueueWait, Detail: id, DurNS: int64(wait)} })
}

// JobDone records job `id` finishing after total latency `total`
// (admission to completion); ok selects the JobOK/JobFailed outcome label.
func (s *Span) JobDone(id string, total time.Duration, ok bool) {
	outcome := JobFailed
	if ok {
		outcome = JobOK
	}
	s.event(func() Event { return Event{Type: EventJobDone, Detail: id, Name: outcome, DurNS: int64(total)} })
}

// --- telemetry-plane emitters ------------------------------------------------

// SLOViolation records job `id` completing after `total`, past its
// configured latency objective `limit`.
func (s *Span) SLOViolation(id string, total, limit time.Duration) {
	s.event(func() Event {
		return Event{Type: EventSLOViolation, Detail: id, DurNS: int64(total), SLONS: int64(limit)}
	})
}

// FlightDump records the flight recorder of job `id` persisting `events`
// ring entries; reason is FlightReasonFailed or FlightReasonSLO.
func (s *Span) FlightDump(id string, events int, reason string) {
	s.event(func() Event { return Event{Type: EventFlightDump, Detail: id, Count: events, Name: reason} })
}
