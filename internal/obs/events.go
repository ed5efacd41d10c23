package obs

import (
	"fmt"
	"slices"
	"strings"
)

// EventType enumerates the trace event vocabulary: the two span lifecycle
// events plus the typed domain events of the reveal pipeline. Each type is
// declared once, by its entry in eventSpecs.
type EventType uint8

// The event vocabulary. Domain events map onto the paper's mechanisms:
// tree_fork/tree_converge are Algorithm 1's divergence and convergence
// cases, ucb_flip is a force-execution branch override (Section IV-E),
// merge_variant/stub_emitted/reflection_rewrite are reassembly decisions
// (Sections IV-B, IV-C), verify_defect is a structural defect in the
// revealed DEX, and concurrent_entry records a collector ownership
// violation just before the guard panics. The service events cover the
// reveal-as-a-service layer (internal/server, internal/store): cache
// hit/miss against the content-addressed artifact store, the time a job
// spent queued for a worker (one event per admitted job, when it starts),
// and the job's completion. The parallel-collection events cover sharded
// force execution (internal/forceexec): worker_merge is one collection
// shard folded into the campaign result at an iteration barrier, and
// worker_clamp records the service capping a job's worker budget to keep
// jobs x workers within GOMAXPROCS. The telemetry events cover the
// production telemetry plane: slo_violation records a job exceeding its
// configured latency objective, and flight_dump records the per-job flight
// recorder persisting its ring of recent events after a failure or SLO
// violation. The incremental-reveal events cover the
// per-method collection cache: method_cache_hit and method_cache_miss
// record one method's fingerprint lookup against the method-tree keyspace,
// and tree_splice records a cached collection tree grafted into the result
// in place of re-execution. The
// memory-budget events cover the budgeted output path: mem_spill records
// one completed method record displaced from the in-memory result to the
// spill tier mid-reveal, and mem_admit_wait records a job blocked in the
// memory-budget admission gate before its reveal ran.
const (
	EventSpanStart EventType = iota
	EventSpanEnd
	EventMethodCollected
	EventTreeFork
	EventTreeConverge
	EventUCBFlip
	EventExceptionTolerated
	EventReflectionRewrite
	EventMergeVariant
	EventStubEmitted
	EventVerifyDefect
	EventConcurrentEntry
	EventCacheHit
	EventCacheMiss
	EventQueueWait
	EventJobDone
	EventWorkerMerge
	EventWorkerClamp
	EventSLOViolation
	EventFlightDump
	EventMethodCacheHit
	EventMethodCacheMiss
	EventTreeSplice
	EventMemSpill
	EventMemAdmitWait
	numEventTypes // sentinel, keep last
)

// Branch outcome labels of a ucb_flip event.
const (
	BranchTaken       = "taken"
	BranchFallthrough = "fallthrough"
)

// Outcome labels of a job_done event.
const (
	JobOK     = "ok"
	JobFailed = "failed"
)

// Reason labels of a flight_dump event: the job failed (which includes a
// panic isolated by the pipeline) or it finished but blew its latency SLO.
const (
	FlightReasonFailed = "failed"
	FlightReasonSLO    = "slo"
)

// fields is a set of Event payload fields an event type requires.
type fields uint16

const (
	fSpan fields = 1 << iota
	fName
	fMethod
	fTarget
	fDetail
	fDepth
	fCount
	fBytes
	fSLO
)

// required holds, in bit order of fields, each requirable field's JSON key
// and its presence test: a string is present when non-empty, a number when
// positive.
var required = [...]struct {
	key     string
	present func(*Event) bool
}{
	{"span", func(e *Event) bool { return e.Span != 0 }},
	{"name", func(e *Event) bool { return e.Name != "" }},
	{"method", func(e *Event) bool { return e.Method != "" }},
	{"target", func(e *Event) bool { return e.Target != "" }},
	{"detail", func(e *Event) bool { return e.Detail != "" }},
	{"depth", func(e *Event) bool { return e.Depth > 0 }},
	{"count", func(e *Event) bool { return e.Count > 0 }},
	{"bytes", func(e *Event) bool { return e.Bytes > 0 }},
	{"sloNS", func(e *Event) bool { return e.SLONS > 0 }},
}

// eventSpec declares one event type: its wire name, the payload fields it
// requires, the allowed values of its enum label (see Event.label), an
// optional value check, and an optional fold into the per-app report
// beyond the per-type count every event gets.
type eventSpec struct {
	name   string
	need   fields
	labels []string
	check  func(*Event) error
	fold   func(*AppTrace, *Event)
}

// eventSpecs is the event vocabulary. String, MarshalText, UnmarshalText,
// Event.Validate and Trace.Apps all read it, so adding an event type is one
// entry here plus its typed Span emitter.
var eventSpecs = [numEventTypes]eventSpec{
	EventSpanStart: {name: "span_start", need: fSpan | fName},
	EventSpanEnd: {name: "span_end", need: fSpan | fName, fold: func(a *AppTrace, e *Event) {
		switch {
		case e.Span == a.RootSpan:
			a.WallNS += e.DurNS
		case strings.HasPrefix(e.Name, "stage."):
			a.StageNS[strings.TrimPrefix(e.Name, "stage.")] += e.DurNS
		}
	}},
	EventMethodCollected: {name: "method_collected", need: fMethod | fDepth | fCount,
		fold: func(a *AppTrace, e *Event) {
			a.CollectedInsns += e.Count
			a.TreeDepthHist[e.Depth]++
		}},
	EventTreeFork: {name: "tree_fork", need: fMethod | fDepth,
		fold: func(a *AppTrace, e *Event) { a.ForksByMethod[e.Method]++ }},
	EventTreeConverge: {name: "tree_converge", need: fMethod | fDepth},
	EventUCBFlip: {name: "ucb_flip", need: fMethod, labels: []string{BranchTaken, BranchFallthrough},
		fold: func(a *AppTrace, e *Event) { a.FlipsByIter[e.Iter]++ }},
	EventExceptionTolerated: {name: "exception_tolerated", need: fMethod},
	EventReflectionRewrite:  {name: "reflection_rewrite", need: fMethod | fTarget},
	EventMergeVariant: {name: "merge_variant", need: fMethod | fCount, check: countWithinFrom,
		fold: func(a *AppTrace, e *Event) {
			a.Merges = append(a.Merges, MergeDecision{Method: e.Method, From: e.From, To: e.Count})
		}},
	EventStubEmitted: {name: "stub_emitted", need: fMethod},
	EventVerifyDefect: {name: "verify_defect", need: fDetail,
		fold: func(a *AppTrace, e *Event) { a.Defects = append(a.Defects, e.Detail) }},
	EventConcurrentEntry: {name: "concurrent_entry", need: fDetail,
		fold: func(a *AppTrace, e *Event) { a.ConcurrentUses = append(a.ConcurrentUses, e.Detail) }},
	EventCacheHit:  {name: "cache_hit", need: fDetail},
	EventCacheMiss: {name: "cache_miss", need: fDetail},
	EventQueueWait: {name: "queue_wait", need: fDetail},
	EventJobDone:   {name: "job_done", need: fDetail, labels: []string{JobOK, JobFailed}},
	EventWorkerMerge: {name: "worker_merge", check: countWithinFrom, fold: func(a *AppTrace, e *Event) {
		a.ShardTreesKept += e.Count
		a.ShardDedupHits += e.From - e.Count
	}},
	EventWorkerClamp: {name: "worker_clamp", need: fCount, check: countWithinFrom},
	EventSLOViolation: {name: "slo_violation", need: fDetail | fSLO, check: func(e *Event) error {
		if e.DurNS < e.SLONS {
			return fmt.Errorf("latency %d within objective %d", e.DurNS, e.SLONS)
		}
		return nil
	}},
	EventFlightDump:      {name: "flight_dump", need: fDetail, labels: []string{FlightReasonFailed, FlightReasonSLO}},
	EventMethodCacheHit:  {name: "method_cache_hit", need: fMethod},
	EventMethodCacheMiss: {name: "method_cache_miss", need: fMethod},
	EventTreeSplice: {name: "tree_splice", need: fMethod | fCount,
		fold: func(a *AppTrace, e *Event) { a.TreesSpliced += e.Count }},
	EventMemSpill: {name: "mem_spill", need: fMethod | fDetail | fBytes,
		fold: func(a *AppTrace, e *Event) { a.SpilledBytes += e.Bytes }},
	EventMemAdmitWait: {name: "mem_admit_wait", need: fDetail | fBytes,
		fold: func(a *AppTrace, e *Event) { a.AdmitWaitNS += e.DurNS }},
}

// countWithinFrom checks a kept-of-offered pair: count (kept, granted,
// alive) cannot exceed from (offered, requested, configured).
func countWithinFrom(e *Event) error {
	if e.From < e.Count {
		return fmt.Errorf("count %d exceeds from %d", e.Count, e.From)
	}
	return nil
}

// EventTypes returns every known event type, in declaration order.
func EventTypes() []EventType {
	out := make([]EventType, numEventTypes)
	for i := range out {
		out[i] = EventType(i)
	}
	return out
}

func (t EventType) String() string {
	if t < numEventTypes {
		return eventSpecs[t].name
	}
	return fmt.Sprintf("event(%d)", uint8(t))
}

// MarshalText encodes the symbolic event name; unknown values are an error
// so a corrupt trace can never be written silently.
func (t EventType) MarshalText() ([]byte, error) {
	if t >= numEventTypes {
		return nil, fmt.Errorf("obs: unknown event type %d", uint8(t))
	}
	return []byte(eventSpecs[t].name), nil
}

// UnmarshalText rejects event names outside the vocabulary, which is what
// makes trace decoding a schema validation.
func (t *EventType) UnmarshalText(b []byte) error {
	for i := range eventSpecs {
		if eventSpecs[i].name == string(b) {
			*t = EventType(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event type %q", b)
}

// label is the enum-valued field a spec's labels constrain: the branch
// outcome of a ucb_flip, the name of every other labelled event.
func (e *Event) label() string {
	if e.Type == EventUCBFlip {
		return e.Branch
	}
	return e.Name
}

// Validate checks a trace event against its type's spec. ReadTrace applies
// it to every line, which makes reading a trace file a schema validation
// (the CI trace job relies on this).
func (e *Event) Validate() error {
	if e.Type >= numEventTypes {
		return fmt.Errorf("obs: unknown event type %d", uint8(e.Type))
	}
	if err := e.conform(&eventSpecs[e.Type]); err != nil {
		return fmt.Errorf("obs: %s: %w", e.Type, err)
	}
	return nil
}

func (e *Event) conform(spec *eventSpec) error {
	// Timestamps, program counters, durations, counts, shard indexes and
	// byte volumes are never negative on any event type.
	for _, n := range [...]struct {
		key string
		v   int64
	}{
		{"tsNS", e.TS}, {"pc", int64(e.PC)}, {"durNS", e.DurNS},
		{"count", int64(e.Count)}, {"worker", int64(e.Worker)}, {"bytes", e.Bytes},
	} {
		if n.v < 0 {
			return fmt.Errorf("negative %s %d", n.key, n.v)
		}
	}
	for i, f := range required {
		if spec.need&(1<<i) != 0 && !f.present(e) {
			return fmt.Errorf("missing %s", f.key)
		}
	}
	if spec.labels != nil && !slices.Contains(spec.labels, e.label()) {
		return fmt.Errorf("bad label %q", e.label())
	}
	if spec.check != nil {
		return spec.check(e)
	}
	return nil
}
