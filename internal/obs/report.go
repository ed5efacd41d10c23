package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// ParseEvent decodes and validates one JSONL trace line. Unknown JSON
// fields are rejected, so the schema cannot drift silently.
func ParseEvent(line []byte) (*Event, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var ev Event
	if err := dec.Decode(&ev); err != nil {
		return nil, fmt.Errorf("obs: bad trace line: %w", err)
	}
	if err := ev.Validate(); err != nil {
		return nil, err
	}
	return &ev, nil
}

// Trace is a parsed, validated trace file.
type Trace struct {
	Events []*Event
}

// FilterTrace keeps only the events stamped with the given trace identity —
// one job's end-to-end span tree extracted from a shared sink. The result
// shares the underlying events with the receiver.
func (t *Trace) FilterTrace(id string) *Trace {
	out := &Trace{}
	for _, ev := range t.Events {
		if ev.Trace == id {
			out.Events = append(out.Events, ev)
		}
	}
	return out
}

// TraceIDs returns the distinct non-empty trace identities present, in
// first-seen order.
func (t *Trace) TraceIDs() []string {
	seen := make(map[string]bool)
	var out []string
	for _, ev := range t.Events {
		if ev.Trace != "" && !seen[ev.Trace] {
			seen[ev.Trace] = true
			out = append(out, ev.Trace)
		}
	}
	return out
}

// ReadTrace parses a JSONL trace, validating every line; the returned error
// carries the 1-based line number of the first invalid line.
func ReadTrace(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		ev, err := ParseEvent(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		tr.Events = append(tr.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tr, nil
}

// MergeDecision is one reassembler merge recorded in a trace.
type MergeDecision struct {
	Method string
	From   int // raw collection trees
	To     int // instruction arrays kept (variants when > 1)
}

// AppTrace aggregates one application's events — the per-app table a
// paper-style evaluation would cite: stage wall times, the collection-tree
// depth histogram, fork counts by method, UCB flips per force-execution
// iteration, and the reassembler's merge decisions. Plain event tallies
// (stubs, converges, cache hits, SLO violations, ...) are read with Count.
type AppTrace struct {
	App      string
	RootSpan uint64
	WallNS   int64 // root span duration (0 if the span never ended)

	StageNS        map[string]int64 // stage name -> summed wall NS
	CollectedInsns int
	TreeDepthHist  map[int]int // collection-tree depth -> trees
	ForksByMethod  map[string]int
	FlipsByIter    map[int]int
	ShardTreesKept int // trees adopted from shards
	ShardDedupHits int // shard trees discarded as fingerprint duplicates
	Merges         []MergeDecision
	Defects        []string
	ConcurrentUses []string
	TreesSpliced   int   // trees adopted from the incremental method cache
	SpilledBytes   int64 // serialized volume of the spilled records
	AdmitWaitNS    int64 // summed admission-gate blocking time
	AllocBytes     int64 // summed resource_sample allocation
	PeakHeapDelta  int64 // max live-heap growth observed at a stage boundary

	counts [numEventTypes]int
}

// Count returns how many events of type ty the application recorded.
func (a *AppTrace) Count(ty EventType) int {
	if ty >= numEventTypes {
		return 0
	}
	return a.counts[ty]
}

const unattributed = "(unattributed)"

// Apps groups the trace's events by the root span they occurred under,
// sorted by application label. Events whose span is unknown (or 0) land in
// an "(unattributed)" bucket.
func (t *Trace) Apps() []*AppTrace {
	parent := make(map[uint64]uint64)
	label := make(map[uint64]string) // root span id -> app label
	for _, ev := range t.Events {
		if ev.Type != EventSpanStart {
			continue
		}
		parent[ev.Span] = ev.Parent
		if ev.Parent == 0 {
			name := ev.App
			if name == "" {
				name = ev.Name
			}
			label[ev.Span] = name
		}
	}
	rootMemo := make(map[uint64]uint64)
	var rootOf func(span uint64) uint64
	rootOf = func(span uint64) uint64 {
		if r, ok := rootMemo[span]; ok {
			return r
		}
		p, ok := parent[span]
		var r uint64
		switch {
		case !ok:
			r = 0 // unknown span: unattributed
		case p == 0:
			r = span
		default:
			r = rootOf(p)
		}
		rootMemo[span] = r
		return r
	}

	apps := make(map[uint64]*AppTrace)
	appFor := func(span uint64) *AppTrace {
		root := rootOf(span)
		a, ok := apps[root]
		if !ok {
			name := label[root]
			if root == 0 || name == "" {
				name = unattributed
			}
			a = &AppTrace{
				App:           name,
				RootSpan:      root,
				StageNS:       make(map[string]int64),
				TreeDepthHist: make(map[int]int),
				ForksByMethod: make(map[string]int),
				FlipsByIter:   make(map[int]int),
			}
			apps[root] = a
		}
		return a
	}

	for _, ev := range t.Events {
		if ev.Type >= numEventTypes {
			continue
		}
		a := appFor(ev.Span)
		a.counts[ev.Type]++
		if fold := eventSpecs[ev.Type].fold; fold != nil {
			fold(a, ev)
		}
	}
	out := make([]*AppTrace, 0, len(apps))
	for _, a := range apps {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].App != out[j].App {
			return out[i].App < out[j].App
		}
		return out[i].RootSpan < out[j].RootSpan
	})
	return out
}

func sortedKeys[K int | string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// ReportString renders the per-app tables of the trace.
func (t *Trace) ReportString() string {
	var sb strings.Builder
	apps := t.Apps()
	fmt.Fprintf(&sb, "trace: %d events, %d app(s)\n", len(t.Events), len(apps))
	for _, a := range apps {
		n := &a.counts
		fmt.Fprintf(&sb, "\napp %s (span %d, wall %v)\n",
			a.App, a.RootSpan, time.Duration(a.WallNS).Round(time.Microsecond))
		for _, stage := range sortedKeys(a.StageNS) {
			fmt.Fprintf(&sb, "  stage %-16s %12v\n",
				stage, time.Duration(a.StageNS[stage]).Round(time.Microsecond))
		}
		fmt.Fprintf(&sb, "  methods collected: %d (%d unique insns), converges: %d\n",
			n[EventMethodCollected], a.CollectedInsns, n[EventTreeConverge])
		if len(a.TreeDepthHist) > 0 {
			sb.WriteString("  tree depth histogram:")
			for _, d := range sortedKeys(a.TreeDepthHist) {
				fmt.Fprintf(&sb, " depth%d:%d", d, a.TreeDepthHist[d])
			}
			sb.WriteByte('\n')
		}
		if len(a.ForksByMethod) > 0 {
			sb.WriteString("  forks by method:\n")
			for _, m := range sortedKeys(a.ForksByMethod) {
				fmt.Fprintf(&sb, "    %-60s %d\n", m, a.ForksByMethod[m])
			}
		}
		if len(a.FlipsByIter) > 0 {
			sb.WriteString("  ucb flips by iteration:")
			for _, it := range sortedKeys(a.FlipsByIter) {
				fmt.Fprintf(&sb, " iter%d:%d", it, a.FlipsByIter[it])
			}
			fmt.Fprintf(&sb, " (exceptions tolerated: %d)\n", n[EventExceptionTolerated])
		}
		if n[EventWorkerMerge] > 0 {
			fmt.Fprintf(&sb, "  collection shards merged: %d (%d trees kept, %d dedup hits)\n",
				n[EventWorkerMerge], a.ShardTreesKept, a.ShardDedupHits)
		}
		if len(a.Merges) > 0 {
			sb.WriteString("  merge decisions:\n")
			for _, m := range a.Merges {
				fmt.Fprintf(&sb, "    %-60s %d tree(s) -> %d array(s)\n", m.Method, m.From, m.To)
			}
		}
		if n[EventMethodCacheHit] > 0 || n[EventMethodCacheMiss] > 0 {
			fmt.Fprintf(&sb, "  method cache: %d hits, %d misses, %d trees spliced\n",
				n[EventMethodCacheHit], n[EventMethodCacheMiss], a.TreesSpliced)
		}
		if n[EventResourceSample] > 0 {
			fmt.Fprintf(&sb, "  resources: %d samples, %d bytes allocated, peak heap delta %d bytes\n",
				n[EventResourceSample], a.AllocBytes, a.PeakHeapDelta)
		}
		if n[EventMemSpill] > 0 || n[EventMemAdmitWait] > 0 {
			fmt.Fprintf(&sb, "  memory budget: %d records spilled (%d bytes), %d admission waits (%v)\n",
				n[EventMemSpill], a.SpilledBytes, n[EventMemAdmitWait],
				time.Duration(a.AdmitWaitNS).Round(time.Microsecond))
		}
		if n[EventSLOViolation] > 0 || n[EventFlightDump] > 0 {
			fmt.Fprintf(&sb, "  SLO violations: %d, flight dumps: %d\n",
				n[EventSLOViolation], n[EventFlightDump])
		}
		fmt.Fprintf(&sb, "  stubs: %d, reflection rewrites: %d, verify defects: %d\n",
			n[EventStubEmitted], n[EventReflectionRewrite], len(a.Defects))
		for _, d := range a.Defects {
			fmt.Fprintf(&sb, "    defect: %s\n", d)
		}
		for _, d := range a.ConcurrentUses {
			fmt.Fprintf(&sb, "    CONCURRENT COLLECTOR USE: %s\n", d)
		}
	}
	return sb.String()
}
