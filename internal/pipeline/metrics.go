package pipeline

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"dexlego/internal/obs"
)

// Stage identifies one phase of a Reveal run, mirroring Fig. 1 of the
// paper: driving the app under JIT collection, the Sapienz-style fuzzing
// run, the iterative force-execution module, offline reassembly, and the
// structural verification of the revealed DEX.
type Stage string

// The pipeline stages in execution order.
const (
	StageCollection Stage = "collection"
	StageFuzz       Stage = "fuzz"
	StageForceExec  Stage = "force-execution"
	StageReassembly Stage = "reassembly"
	StageVerify     Stage = "verify"
)

// Stages returns all stages in execution order.
func Stages() []Stage {
	return []Stage{StageCollection, StageFuzz, StageForceExec, StageReassembly, StageVerify}
}

// stageIndex maps each known stage to its execution-order position.
var stageIndex = func() map[Stage]int {
	m := make(map[Stage]int, len(Stages()))
	for i, s := range Stages() {
		m[s] = i
	}
	return m
}()

// Valid reports whether s is a known pipeline stage.
func (s Stage) Valid() bool { _, ok := stageIndex[s]; return ok }

// String returns the stage name.
func (s Stage) String() string { return string(s) }

// MarshalJSON refuses to encode stages outside the vocabulary, so a corrupt
// report can never be written silently.
func (s Stage) MarshalJSON() ([]byte, error) {
	if !s.Valid() {
		return nil, fmt.Errorf("pipeline: unknown stage %q", string(s))
	}
	return json.Marshal(string(s))
}

// UnmarshalJSON rejects unknown stages, making report decoding a schema
// validation.
func (s *Stage) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err != nil {
		return err
	}
	if !Stage(str).Valid() {
		return fmt.Errorf("pipeline: unknown stage %q", str)
	}
	*s = Stage(str)
	return nil
}

// StageTiming records the wall time one stage consumed, and — for stages
// that fan work out across a worker pool — the aggregate CPU time the
// workers spent inside it. CPUNS is zero for serial stages (wall is the
// honest cost there); for parallel stages CPUNS/WallNS approximates the
// effective parallelism the stage achieved. Only force-execution records
// it: the time its workers spent inside forced runs (forceexec
// Stats.BusyNS).
type StageTiming struct {
	Stage  Stage `json:"stage"`
	WallNS int64 `json:"wallNS"`
	CPUNS  int64 `json:"cpuNS,omitempty"`
}

// Wall returns the recorded wall time as a duration.
func (st StageTiming) Wall() time.Duration { return time.Duration(st.WallNS) }

// CPU returns the recorded aggregate worker CPU time as a duration.
func (st StageTiming) CPU() time.Duration { return time.Duration(st.CPUNS) }

// AppMetrics is the structured outcome of one app's reveal: per-stage wall
// times plus the collection and reassembly counters of the paper's
// evaluation tables.
type AppMetrics struct {
	Name string `json:"name"`
	// Stages holds one timing per stage that ran, in execution order.
	// Optional stages (fuzz, force-execution) are absent when disabled.
	Stages []StageTiming `json:"stages,omitempty"`
	// WallNS is the total wall time of the reveal, including overhead not
	// attributed to a stage.
	WallNS int64 `json:"wallNS"`

	// ExecutedInsns counts unique collected instructions (the paper's
	// dump-size proxy).
	ExecutedInsns int `json:"executedInsns"`
	// Methods, ExecutedMethods and Stubs summarize the reassembled DEX.
	Methods         int `json:"methods"`
	ExecutedMethods int `json:"executedMethods"`
	Stubs           int `json:"stubs"`
	// Variants counts extra method bodies emitted for multi-tree methods;
	// Divergences counts merged self-modification layers.
	Variants    int `json:"variants"`
	Divergences int `json:"divergences"`
	// MethodsCached counts methods served from the incremental per-method
	// collection cache (trees spliced, no execution); MethodsExecuted
	// counts methods that collected fresh trees. Both are zero when the
	// incremental path was off.
	MethodsCached   int `json:"methodsCached,omitempty"`
	MethodsExecuted int `json:"methodsExecuted,omitempty"`
	// MethodsSpilled counts completed method records displaced to the
	// spill tier mid-reveal to cap the run's heap; SpilledBytes is their
	// serialized volume. Both are zero without a spill cache.
	MethodsSpilled int   `json:"methodsSpilled,omitempty"`
	SpilledBytes   int64 `json:"spilledBytes,omitempty"`

	// Obs carries the run's observability snapshot (event counts, tree
	// depth, dropped lines); nil when tracing was off.
	Obs *obs.Snapshot `json:"obs,omitempty"`

	// AllocBytes is the heap allocation volume of the run window and
	// HeapPeakBytes the largest live-heap growth over the run's starting
	// occupancy, both from ResourceAccountant. They are process-wide
	// readings: an upper bound when reveals share the process, and the
	// allocation total can be off by up to one span per size class per P.
	AllocBytes    int64 `json:"allocBytes,omitempty"`
	HeapPeakBytes int64 `json:"heapPeakBytes,omitempty"`

	// Err is the job's failure, if any ("" on success). A failed job
	// carries no counters.
	Err string `json:"err,omitempty"`
}

// AddStage records the timing of one completed stage. A stage that runs
// more than once (a retried driver, a re-entered module) accumulates into
// its existing entry rather than appending a duplicate — duplicates would
// double-attribute overhead and break the sum(stages) <= WallNS invariant
// that Validate enforces.
func (m *AppMetrics) AddStage(s Stage, d time.Duration) {
	for i := range m.Stages {
		if m.Stages[i].Stage == s {
			m.Stages[i].WallNS += int64(d)
			return
		}
	}
	m.Stages = append(m.Stages, StageTiming{Stage: s, WallNS: int64(d)})
}

// AddStageCPU attributes aggregate worker CPU time to a stage, creating the
// entry if the stage has not recorded wall time yet. Unlike wall time, CPU
// time across workers may legitimately exceed the stage's wall time — that
// surplus is exactly the parallelism the stage bought.
func (m *AppMetrics) AddStageCPU(s Stage, d time.Duration) {
	for i := range m.Stages {
		if m.Stages[i].Stage == s {
			m.Stages[i].CPUNS += int64(d)
			return
		}
	}
	m.Stages = append(m.Stages, StageTiming{Stage: s, CPUNS: int64(d)})
}

// StageCPU returns the aggregate worker CPU time recorded for s, or 0.
func (m *AppMetrics) StageCPU(s Stage) time.Duration {
	for _, st := range m.Stages {
		if st.Stage == s {
			return st.CPU()
		}
	}
	return 0
}

// StageWall returns the recorded wall time of s, or 0 if it did not run.
func (m *AppMetrics) StageWall(s Stage) time.Duration {
	for _, st := range m.Stages {
		if st.Stage == s {
			return st.Wall()
		}
	}
	return 0
}

// Wall returns the app's total wall time.
func (m *AppMetrics) Wall() time.Duration { return time.Duration(m.WallNS) }

// StageSum returns the wall time attributed to stages.
func (m *AppMetrics) StageSum() time.Duration {
	var total int64
	for _, st := range m.Stages {
		total += st.WallNS
	}
	return time.Duration(total)
}

// Validate checks the stage-accounting invariants of a successful run:
// every stage is known and appears at most once, stages are in execution
// order, no stage timing is negative, and the per-stage sum never exceeds
// the total wall time (stages are timed inside the run, so attribution
// beyond WallNS means some overhead was counted twice).
func (m *AppMetrics) Validate() error {
	last := -1
	for _, st := range m.Stages {
		idx, ok := stageIndex[st.Stage]
		if !ok {
			return fmt.Errorf("pipeline: %s: unknown stage %q", m.Name, st.Stage)
		}
		if idx == last {
			return fmt.Errorf("pipeline: %s: duplicate stage %q", m.Name, st.Stage)
		}
		if idx < last {
			return fmt.Errorf("pipeline: %s: stage %q out of execution order", m.Name, st.Stage)
		}
		if st.WallNS < 0 {
			return fmt.Errorf("pipeline: %s: stage %q has negative wall time", m.Name, st.Stage)
		}
		if st.CPUNS < 0 {
			return fmt.Errorf("pipeline: %s: stage %q has negative cpu time", m.Name, st.Stage)
		}
		last = idx
	}
	if sum := int64(m.StageSum()); sum > m.WallNS {
		return fmt.Errorf("pipeline: %s: stage sum %v exceeds total wall %v (double-counted overhead)",
			m.Name, m.StageSum(), m.Wall())
	}
	if m.AllocBytes < 0 || m.HeapPeakBytes < 0 {
		return fmt.Errorf("pipeline: %s: negative resource bill (alloc %d, heap peak %d)",
			m.Name, m.AllocBytes, m.HeapPeakBytes)
	}
	return nil
}

// Report aggregates a batch run: per-app metrics in job order plus batch
// totals. Its JSON encoding is the schema cmd/dexlego -metrics-out writes.
type Report struct {
	// Workers is the effective parallelism the batch ran with.
	Workers int `json:"workers"`
	// Jobs and Failed count submitted and failed jobs.
	Jobs   int `json:"jobs"`
	Failed int `json:"failed"`
	// WallNS is the batch wall time; SerialNS sums the per-app wall times
	// (the serial-equivalent cost), so SerialNS/WallNS is the speedup.
	WallNS   int64 `json:"wallNS"`
	SerialNS int64 `json:"serialNS"`

	// StageTotals sums each stage's wall time across apps, in stage order.
	StageTotals []StageTiming `json:"stageTotals,omitempty"`

	// Batch-wide counter totals over successful jobs.
	TotalExecutedInsns   int   `json:"totalExecutedInsns"`
	TotalMethods         int   `json:"totalMethods"`
	TotalExecutedMethods int   `json:"totalExecutedMethods"`
	TotalStubs           int   `json:"totalStubs"`
	TotalVariants        int   `json:"totalVariants"`
	TotalDivergences     int   `json:"totalDivergences"`
	TotalMethodsCached   int   `json:"totalMethodsCached,omitempty"`
	TotalMethodsExecuted int   `json:"totalMethodsExecuted,omitempty"`
	TotalMethodsSpilled  int   `json:"totalMethodsSpilled,omitempty"`
	TotalSpilledBytes    int64 `json:"totalSpilledBytes,omitempty"`

	// Obs merges the per-app observability snapshots (event counts and
	// drops add, tree depth maxes); nil when tracing was off.
	Obs *obs.Snapshot `json:"obs,omitempty"`

	// TotalAllocBytes sums the per-app allocation volumes over successful
	// jobs; HeapPeakBytes is the largest per-app heap peak among them.
	TotalAllocBytes int64 `json:"totalAllocBytes,omitempty"`
	HeapPeakBytes   int64 `json:"heapPeakBytes,omitempty"`

	// Apps holds the per-app metrics in job submission order, regardless
	// of completion order.
	Apps []AppMetrics `json:"apps"`
}

// BuildReport aggregates per-app metrics (in job order) into a Report.
func BuildReport(workers int, wall time.Duration, apps []AppMetrics) *Report {
	r := &Report{
		Workers: workers,
		Jobs:    len(apps),
		WallNS:  int64(wall),
		Apps:    apps,
	}
	stageTotals := make(map[Stage]int64)
	stageCPU := make(map[Stage]int64)
	for _, m := range apps {
		if m.Err != "" {
			r.Failed++
			continue
		}
		r.SerialNS += m.WallNS
		r.TotalExecutedInsns += m.ExecutedInsns
		r.TotalMethods += m.Methods
		r.TotalExecutedMethods += m.ExecutedMethods
		r.TotalStubs += m.Stubs
		r.TotalVariants += m.Variants
		r.TotalDivergences += m.Divergences
		r.TotalMethodsCached += m.MethodsCached
		r.TotalMethodsExecuted += m.MethodsExecuted
		r.TotalMethodsSpilled += m.MethodsSpilled
		r.TotalSpilledBytes += m.SpilledBytes
		r.Obs = obs.MergeSnapshots(r.Obs, m.Obs)
		r.TotalAllocBytes += m.AllocBytes
		r.HeapPeakBytes = max(r.HeapPeakBytes, m.HeapPeakBytes)
		for _, st := range m.Stages {
			stageTotals[st.Stage] += st.WallNS
			stageCPU[st.Stage] += st.CPUNS
		}
	}
	for _, s := range Stages() {
		if ns, ok := stageTotals[s]; ok {
			r.StageTotals = append(r.StageTotals,
				StageTiming{Stage: s, WallNS: ns, CPUNS: stageCPU[s]})
		}
	}
	return r
}

// Speedup returns the serial-equivalent cost divided by the batch wall
// time — the parallel speedup the pool achieved.
func (r *Report) Speedup() float64 {
	if r.WallNS == 0 {
		return 0
	}
	return float64(r.SerialNS) / float64(r.WallNS)
}

// Wall returns the batch wall time.
func (r *Report) Wall() time.Duration { return time.Duration(r.WallNS) }

// JSON returns the indented JSON encoding of the report.
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// DecodeReport parses and validates a report produced by Report.JSON:
// unknown stages are rejected by Stage.UnmarshalJSON and every successful
// app must satisfy the stage-accounting invariants of Validate.
func DecodeReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("pipeline: report does not parse: %w", err)
	}
	for i := range r.Apps {
		if r.Apps[i].Err != "" {
			continue
		}
		if err := r.Apps[i].Validate(); err != nil {
			return nil, err
		}
	}
	return &r, nil
}

// String renders a compact per-app table with batch totals.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "batch: %d jobs, %d workers, wall %v, serial-equivalent %v, speedup %.2fx\n",
		r.Jobs, r.Workers, r.Wall().Round(time.Microsecond),
		time.Duration(r.SerialNS).Round(time.Microsecond), r.Speedup())
	fmt.Fprintf(&sb, "%-30s %12s %10s %9s %7s %9s\n",
		"app", "wall", "insns", "methods", "stubs", "variants")
	for i := range r.Apps {
		m := &r.Apps[i]
		if m.Err != "" {
			fmt.Fprintf(&sb, "%-30s FAILED: %s\n", m.Name, m.Err)
			continue
		}
		fmt.Fprintf(&sb, "%-30s %12v %10d %9d %7d %9d\n",
			m.Name, m.Wall().Round(time.Microsecond), m.ExecutedInsns,
			m.Methods, m.Stubs, m.Variants)
	}
	for _, st := range r.StageTotals {
		fmt.Fprintf(&sb, "  stage %-16s %12v\n", st.Stage, st.Wall().Round(time.Microsecond))
	}
	if r.TotalAllocBytes > 0 || r.HeapPeakBytes > 0 {
		fmt.Fprintf(&sb, "  resources: alloc %.1f MiB, peak heap +%.1f MiB\n",
			float64(r.TotalAllocBytes)/(1<<20), float64(r.HeapPeakBytes)/(1<<20))
	}
	return sb.String()
}
