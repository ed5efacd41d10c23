package hotbench

import (
	"encoding/json"
	"fmt"
	"strings"

	"dexlego/internal/obs"
)

// Schema identifies the report format; bump on incompatible changes.
const Schema = "dexlego/hotbench/v1"

// Default gate tolerances: a candidate fails the gate when a stage regresses
// more than 15% in ns/op, more than 10% in allocs/op, or — on the
// memory-sensitive stages only — more than 15% in B/op against the baseline.
const (
	DefaultNsTolerance     = 0.15
	DefaultAllocsTolerance = 0.10
	DefaultBytesTolerance  = 0.15
)

// StageBench is the steady-state measurement of one hot-path stage, where
// one op is one pass over the whole pinned corpus.
type StageBench struct {
	Stage       string `json:"stage"`
	NsPerOp     int64  `json:"nsPerOp"`
	BytesPerOp  int64  `json:"bytesPerOp"`
	AllocsPerOp int64  `json:"allocsPerOp"`
	Iterations  int    `json:"iterations"`

	// HeapPeakBytes is the largest live-heap growth observed while the
	// stage's measurement loop ran, sampled by a ResourceAccountant ticker.
	// Unlike BytesPerOp (allocation volume) it captures residency — the
	// number a memory budget actually has to cover. Informational, not
	// gated: peak residency depends on GC timing and is too noisy for a
	// hard tolerance.
	HeapPeakBytes int64 `json:"heapPeakBytes,omitempty"`
}

// Report is the machine-readable benchmark output (the BENCH_4.json schema).
type Report struct {
	Schema      string       `json:"schema"`
	Corpus      []string     `json:"corpus"`
	GoMaxProcs  int          `json:"gomaxprocs"`
	Workers     int          `json:"workers"`
	BenchTimeNS int64        `json:"benchTimeNS"`
	Stages      []StageBench `json:"stages"`

	// Obs carries the traced run's event counts; nil when the run was not
	// traced. The stage spans' durations are span_end events of the trace.
	Obs *obs.Snapshot `json:"obs,omitempty"`
}

// Stage returns the named stage measurement, or nil.
func (r *Report) Stage(name string) *StageBench {
	for i := range r.Stages {
		if r.Stages[i].Stage == name {
			return &r.Stages[i]
		}
	}
	return nil
}

// JSON returns the indented JSON encoding of the report.
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// DecodeReport parses and validates a report produced by Report.JSON.
func DecodeReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("hotbench: report does not parse: %w", err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("hotbench: report schema %q, want %q", r.Schema, Schema)
	}
	if len(r.Stages) == 0 {
		return nil, fmt.Errorf("hotbench: report has no stages")
	}
	for _, s := range r.Stages {
		if s.Stage == "" || s.Iterations <= 0 || s.NsPerOp < 0 || s.AllocsPerOp < 0 {
			return nil, fmt.Errorf("hotbench: malformed stage entry %+v", s)
		}
	}
	return &r, nil
}

// bytesGated reports whether a stage's B/op is part of the gate. Only the
// memory-bound output stages are held to a bytes tolerance: reassembly and
// encode are where the streaming/pooling work lives and where an allocation
// regression silently undoes it. The decode/collect stages allocate
// proportionally to corpus shape and stay gated on ns/op and allocs/op only.
func bytesGated(stage string) bool {
	return stage == "reassembly" || stage == "encode"
}

// Compare gates cur against base: every stage present in both must not
// regress beyond the tolerances (fractions, e.g. 0.15 = +15%). B/op is
// additionally gated by bytesTol on the stages bytesGated selects. It returns
// one violation string per breach; an empty slice means the gate passes.
// Reports over different corpora are never comparable and fail outright.
func Compare(base, cur *Report, nsTol, allocsTol, bytesTol float64) []string {
	if !equalCorpus(base.Corpus, cur.Corpus) {
		return []string{fmt.Sprintf(
			"corpus mismatch: baseline %v vs current %v (refresh the baseline)",
			base.Corpus, cur.Corpus)}
	}
	var violations []string
	for _, bs := range base.Stages {
		cs := cur.Stage(bs.Stage)
		if cs == nil {
			violations = append(violations,
				fmt.Sprintf("stage %s: present in baseline but missing from current report", bs.Stage))
			continue
		}
		if exceeded(bs.NsPerOp, cs.NsPerOp, nsTol) {
			violations = append(violations, fmt.Sprintf(
				"stage %s: ns/op regressed %.1f%% (%d -> %d, tolerance %.0f%%)",
				bs.Stage, pct(bs.NsPerOp, cs.NsPerOp), bs.NsPerOp, cs.NsPerOp, nsTol*100))
		}
		if exceeded(bs.AllocsPerOp, cs.AllocsPerOp, allocsTol) {
			violations = append(violations, fmt.Sprintf(
				"stage %s: allocs/op regressed %.1f%% (%d -> %d, tolerance %.0f%%)",
				bs.Stage, pct(bs.AllocsPerOp, cs.AllocsPerOp), bs.AllocsPerOp, cs.AllocsPerOp, allocsTol*100))
		}
		if bytesGated(bs.Stage) && exceeded(bs.BytesPerOp, cs.BytesPerOp, bytesTol) {
			violations = append(violations, fmt.Sprintf(
				"stage %s: B/op regressed %.1f%% (%d -> %d, tolerance %.0f%%)",
				bs.Stage, pct(bs.BytesPerOp, cs.BytesPerOp), bs.BytesPerOp, cs.BytesPerOp, bytesTol*100))
		}
	}
	return violations
}

func equalCorpus(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func exceeded(base, cur int64, tol float64) bool {
	if base <= 0 {
		return false // nothing to regress against
	}
	return float64(cur) > float64(base)*(1+tol)
}

func pct(base, cur int64) float64 {
	if base == 0 {
		return 0
	}
	return (float64(cur)/float64(base) - 1) * 100
}

// Delta renders a benchstat-style comparison table of cur against base,
// with the relative change per stage and metric.
func Delta(base, cur *Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %15s %15s %8s   %12s %12s %8s\n",
		"stage", "ns/op(old)", "ns/op(new)", "Δ", "allocs(old)", "allocs(new)", "Δ")
	for _, bs := range base.Stages {
		cs := cur.Stage(bs.Stage)
		if cs == nil {
			fmt.Fprintf(&sb, "%-12s (missing from current report)\n", bs.Stage)
			continue
		}
		fmt.Fprintf(&sb, "%-12s %15d %15d %+7.1f%%   %12d %12d %+7.1f%%\n",
			bs.Stage, bs.NsPerOp, cs.NsPerOp, pct(bs.NsPerOp, cs.NsPerOp),
			bs.AllocsPerOp, cs.AllocsPerOp, pct(bs.AllocsPerOp, cs.AllocsPerOp))
	}
	return sb.String()
}

// String renders the report as a compact table.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "hotbench: corpus of %d apps, GOMAXPROCS=%d, workers=%d\n",
		len(r.Corpus), r.GoMaxProcs, r.Workers)
	fmt.Fprintf(&sb, "%-12s %15s %15s %12s %6s\n", "stage", "ns/op", "B/op", "allocs/op", "ops")
	for _, s := range r.Stages {
		fmt.Fprintf(&sb, "%-12s %15d %15d %12d %6d\n",
			s.Stage, s.NsPerOp, s.BytesPerOp, s.AllocsPerOp, s.Iterations)
	}
	return sb.String()
}
