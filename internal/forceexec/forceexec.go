// Package forceexec implements the paper's force-execution prototype
// (Section IV-E, Fig. 4): an iterative loop that identifies Uncovered
// Conditional Branches (UCBs) from the previous execution's coverage,
// computes a control-flow path to each UCB, writes the path to a path file,
// and re-executes the application with the interpreter's branch outcomes
// manipulated to follow the path. Unhandled exceptions raised by infeasible
// paths are cleared in the interpreter rather than crashing the run.
//
// Forced runs within one iteration are independent — they target distinct
// UCBs and the path-file set is frozen when the iteration starts — so the
// engine schedules them on a Workers-sized pipeline pool. Each run owns a
// fresh runtime, a coverage shard, and (when a Collector is attached) a
// collector shard; a barrier at the end of the iteration folds the shards
// back in task order and recomputes the UCB worklist, preserving the
// paper's iteration semantics exactly. Every runtime resolves predecoded
// method bodies through the process-wide program cache (bytecode.Cached),
// so forced runs reuse what the collection stage (or an earlier reveal)
// already lowered.
//
// The "previous execution" that feeds the first UCB set is the baseline
// (Engine.Baseline): one plain run of the driver under the collector and
// the coverage tracker. A reveal runs it as its collection stage, so JIT
// collection and the campaign's first coverage come from the same launch;
// Run starts with it only when nobody ran it yet.
//
// Many forced runs never reach a branch in their target method, and such a
// run replays the run with the iteration's frozen path files alone. Each
// run records the methods in which it executed a conditional branch, so an
// iteration with two or more tasks first runs that replay once — the base
// run, with the frozen set and no path of its own. A task whose target
// method the base run reached no branch in would repeat it step for step:
// its own decisions sit in a method where the base reads none. Such a task
// is skipped, and only its path file joins the next iteration's set; the
// iteration runs the rest. Iteration 0's frozen set is empty, so its base
// run would repeat the baseline unless an exception escaped a frame there
// (a base run tolerates it, the baseline does not): when none escaped, the
// baseline certifies iteration 0's tasks and no base run happens. The rule
// assumes a forced run is a deterministic function of its path and the
// frozen set; TestForcedRunsDeterministic checks that on the Table VII
// slice. Runs that inject exceptions into uncovered handlers are never
// skipped.
package forceexec

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/bytecode"
	"dexlego/internal/collector"
	"dexlego/internal/coverage"
	"dexlego/internal/dex"
	"dexlego/internal/obs"
	"dexlego/internal/pipeline"
)

// PathFile records the branch decisions leading to one UCB, as saved
// between iterations.
type PathFile struct {
	Method    string       `json:"method"`
	TargetPC  int          `json:"targetPC"`
	Taken     bool         `json:"taken"`
	Decisions map[int]bool `json:"decisions"` // branch dex_pc -> forced outcome
}

// Stats summarizes a force-execution campaign.
type Stats struct {
	Iterations int
	// ForcedRuns counts the forced runs executed, base runs included and
	// the baseline not; RunsSkipped counts the scheduled runs their
	// iteration's base run (in iteration 0, usually the baseline) proved
	// identical to itself, which therefore never ran.
	ForcedRuns        int
	RunsSkipped       int
	PathsComputed     int
	PathsUnreachable  int
	ExceptionsCleared int
	// Workers is the effective pool size the campaign ran with.
	Workers int
	// BusyNS sums the time workers spent inside forced runs — the stage's
	// aggregate CPU cost, as opposed to its wall time. BusyNS/wall
	// approximates the parallelism the pool achieved.
	BusyNS int64
	Paths  []PathFile
}

// Engine drives iterative force execution over one application.
type Engine struct {
	Pkg            *apk.APK
	Files          []*dex.File
	InstallNatives func(*art.Runtime)
	// Driver is the "previous execution" (fuzzing, or a plain launch when
	// nil) repeated under forced control flow.
	Driver func(*art.Runtime) error
	// Device is the environment every runtime of the campaign runs on; nil
	// selects art.DefaultPhone.
	Device *art.Device

	MaxIterations  int
	MaxRunsPerIter int
	// ForceExceptionEdges additionally treats try/catch edges as forceable
	// branches: for each uncovered handler, the matching exception is
	// injected inside the try range. This implements the extension the
	// paper leaves as future work for its third coverage-loss category
	// ("instructions in exception handlers").
	ForceExceptionEdges bool
	// Workers sizes the forced-run pool: 0 selects GOMAXPROCS, 1 forces
	// serial execution. The merged result is byte-identical at any count.
	Workers int
	// Collector, when set, observes the baseline directly and every
	// forced run through a per-run shard (Collector.Shard) that the
	// iteration barrier merges back (deduplicating trees by fingerprint).
	// The engine canonicalizes the result when the campaign ends, so the
	// collection is independent of worker count and run interleaving.
	// Methods on the collector's skip list are served from the incremental
	// method cache: their uncovered branches and handler edges are never
	// scheduled. Cross-method effects are unaffected — forced runs
	// targeting other methods still execute skipped methods normally, and
	// code writes into them are detected as skip violations.
	Collector *collector.Collector
	// Span attributes the engine's trace events (iteration spans, UCB
	// flips, tolerated exceptions, shard merges) to a reveal stage; nil
	// disables them.
	Span *obs.Span

	// codeIdx indexes method bodies by key (built once in New); cfgs
	// memoizes the per-method BFS over the static CFG. Both are touched
	// only from the serial scheduling phase.
	codeIdx map[string]*dex.Code
	cfgs    map[string]*methodPaths

	// baseline is the campaign's baseline run once Baseline returned.
	baseline *task

	// beforeMerge, when set, sees each branch-forcing iteration's frozen
	// active set and tasks after every run finished and before the barrier
	// merges them.
	beforeMerge func(iter int, active map[string]map[int]bool, tasks []*task)
}

// New returns an engine with the defaults used in the experiments.
func New(pkg *apk.APK, files []*dex.File) *Engine {
	return &Engine{
		Pkg:            pkg,
		Files:          files,
		MaxIterations:  6,
		MaxRunsPerIter: 500,
		codeIdx:        buildCodeIndex(files),
		cfgs:           make(map[string]*methodPaths),
	}
}

func (e *Engine) driver() func(*art.Runtime) error {
	if e.Driver != nil {
		return e.Driver
	}
	return func(rt *art.Runtime) error {
		_, err := rt.LaunchActivity()
		return err
	}
}

// workers resolves the effective pool size.
func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (e *Engine) newRuntime(tracker *coverage.Tracker, col *collector.Collector, extra ...*art.Hooks) (*art.Runtime, error) {
	device := art.DefaultPhone()
	if e.Device != nil {
		device = *e.Device
	}
	rt := art.NewRuntime(device)
	if e.InstallNatives != nil {
		e.InstallNatives(rt)
	}
	// Hook order matters: the runtime threads branch outcomes through the
	// hook chain, so forcing hooks (extra) must run before the coverage
	// tracker observes the final decision.
	for _, h := range extra {
		rt.AddHooks(h)
	}
	if col != nil {
		rt.AddHooks(col.Hooks())
	}
	rt.AddHooks(tracker.Hooks())
	if err := rt.LoadAPK(e.Pkg); err != nil {
		return nil, err
	}
	return rt, nil
}

// task is one scheduled forced run: its own path, the shards it collects
// into, and the counters the barrier folds back. Tasks never share mutable
// state, so the pool can run them in any interleaving.
type task struct {
	path PathFile
	site *coverage.HandlerSite // non-nil for exception-edge injection runs

	// Shards are built just before the task runs, so a skipped task has
	// none; a base run that certified no task drops its own.
	tracker *coverage.Tracker    // per-run coverage shard
	col     *collector.Collector // per-run collector shard, nil when unattached

	reach     map[string]bool // methods in which the run executed a conditional branch
	certifier *task           // for a skipped task, the base run or baseline it repeats

	cleared int           // unhandled exceptions tolerated in this run
	escaped int           // exceptions that escaped a frame (the baseline, which tolerates none)
	busy    time.Duration // wall time inside the run (worker CPU attribution)
	err     error         // infrastructure failure; the run then contributes nothing
}

// Baseline runs the driver once, unforced, under the engine's collector and
// tracker, and returns the sink events it recorded. It records the run's
// reach set and counts the exceptions that escaped a frame; those propagate
// as in any plain run, and app-level crashes are tolerated. An engine runs
// one campaign: call Baseline at most once, with the tracker later passed
// to Run.
func (e *Engine) Baseline(tracker *coverage.Tracker) ([]art.SinkEvent, error) {
	base := &task{reach: make(map[string]bool)}
	rt, err := e.newRuntime(tracker, e.Collector, &art.Hooks{
		Branch: func(m *art.Method, _ int, _ bytecode.Inst, _ bool) (bool, bool) {
			base.reach[m.Key()] = true
			return false, false
		},
		Unhandled: func(*art.Method, int, *art.Object) bool {
			base.escaped++
			return false
		},
	})
	if err != nil {
		return nil, err
	}
	_ = e.driver()(rt)
	e.baseline = base
	return rt.Sinks(), nil
}

// Run iterates force execution from the baseline until no new UCBs are
// resolved, running the baseline first unless Baseline already did.
func (e *Engine) Run(tracker *coverage.Tracker) (*Stats, error) {
	stats := &Stats{Workers: e.workers()}
	if e.baseline == nil {
		if _, err := e.Baseline(tracker); err != nil {
			return nil, err
		}
	}

	// Path files accumulate across iterations (Fig. 4: each iteration's
	// files feed the next), so a UCB nested behind an earlier UCB becomes
	// reachable once the outer path is on file. Within an iteration the
	// set is frozen — runs target distinct UCBs and see only the previous
	// iterations' files plus their own path, which is what makes them
	// order-independent and safe to run concurrently.
	active := make(map[string]map[int]bool)
	prevCovered := tracker.Report().Instruction.Covered
	attempted := make(map[coverage.UCB]bool)
	for iter := 0; iter < e.MaxIterations; iter++ {
		stats.Iterations++
		iterSpan := e.Span.Start("forceexec.iter")
		ucbs := tracker.UncoveredBranches()
		// Scheduling is serial: path computation pins the task list and its
		// order before any run starts, so the merged outcome cannot depend
		// on pool timing.
		var tasks []*task
		for _, ucb := range ucbs {
			if e.Collector.Skipped(ucb.Method) {
				continue // served from the method cache; no run needed
			}
			if attempted[ucb] || len(tasks) >= e.MaxRunsPerIter {
				continue
			}
			attempted[ucb] = true
			path, ok := e.computePath(ucb)
			if !ok {
				stats.PathsUnreachable++
				continue
			}
			stats.PathsComputed++
			stats.Paths = append(stats.Paths, path)
			tasks = append(tasks, &task{path: path})
		}
		runs := e.runCertified(iterSpan, tracker, tasks, active, iter)
		if e.beforeMerge != nil {
			e.beforeMerge(iter, active, tasks)
		}
		e.mergeTasks(iterSpan, tracker, runs, stats, iter)
		// The barrier has passed: fold this iteration's paths into the
		// active set for the next one, in task order. Skipped tasks' paths
		// join too, so skipping never changes the next iteration's set.
		for _, t := range tasks {
			if active[t.path.Method] == nil {
				active[t.path.Method] = make(map[int]bool)
			}
			for pc, taken := range t.path.Decisions {
				active[t.path.Method][pc] = taken
			}
		}
		cur := tracker.Report().Instruction.Covered
		iterSpan.End()
		if cur == prevCovered {
			break // no new UCBs were resolved this iteration
		}
		prevCovered = cur
		// Newly covered code exposes new UCBs; allow re-attempting edges
		// that may have become reachable.
		attempted = make(map[coverage.UCB]bool)
	}
	if e.ForceExceptionEdges {
		e.forceHandlers(tracker, active, stats)
	}
	if e.Collector != nil {
		// Impose the history-independent record order; see Result.Canonicalize.
		e.Collector.Result().Canonicalize()
	}
	return stats, nil
}

// forceHandlers injects exceptions into uncovered try ranges, steering
// control into their handlers. It is one extra pool iteration: the same
// MaxRunsPerIter budget bounds it, and its runs land in Stats exactly like
// the main loop's.
func (e *Engine) forceHandlers(tracker *coverage.Tracker, active map[string]map[int]bool, stats *Stats) {
	span := e.Span.Start("forceexec.handlers")
	defer span.End()
	var tasks []*task
	for _, site := range tracker.UncoveredHandlers() {
		if e.Collector.Skipped(site.Method) {
			continue // served from the method cache; no injection needed
		}
		if len(tasks) >= e.MaxRunsPerIter {
			break // same per-iteration budget as branch forcing
		}
		decisions, ok := e.pathTo(site.Method, site.TryStart)
		if !ok {
			stats.PathsUnreachable++
			continue
		}
		path := PathFile{Method: site.Method, TargetPC: site.TryStart, Decisions: decisions}
		stats.PathsComputed++
		stats.Paths = append(stats.Paths, path)
		site := site
		tasks = append(tasks, &task{path: path, site: &site})
	}
	e.runTasks(span, tracker, tasks, active, stats.Iterations)
	e.mergeTasks(span, tracker, tasks, stats, stats.Iterations)
}

// runCertified runs one branch-forcing iteration and returns the tasks to
// merge. With two or more tasks it first runs the base run alone and skips
// every task whose target method the base reached no branch in; the base
// run merges first, and drops its shards when it certified nothing, so only
// what a task would have contributed merges. A failed base run certifies
// nothing. With no path file on record, iteration 0's base run would
// repeat the baseline step for step unless it tolerated an exception the
// baseline let escape, so when none escaped the baseline, which already
// merged, certifies in its place.
func (e *Engine) runCertified(span *obs.Span, tracker *coverage.Tracker, tasks []*task, active map[string]map[int]bool, iter int) []*task {
	if iter == 0 && e.baseline.escaped == 0 {
		e.runTasks(span, tracker, certify(e.baseline, tasks), active, iter)
		return tasks
	}
	if len(tasks) < 2 {
		e.runTasks(span, tracker, tasks, active, iter)
		return tasks
	}
	base := &task{}
	e.runTasks(span, tracker, []*task{base}, active, iter)
	rest := certify(base, tasks)
	if len(rest) == len(tasks) {
		base.tracker, base.col = nil, nil
	}
	e.runTasks(span, tracker, rest, active, iter)
	return append([]*task{base}, tasks...)
}

// certify marks as certified by base every task whose target method base
// reached no branch in, and returns the others.
func certify(base *task, tasks []*task) (rest []*task) {
	for _, t := range tasks {
		if base.err == nil && !base.reach[t.path.Method] {
			t.certifier = base
		} else {
			rest = append(rest, t)
		}
	}
	return rest
}

// runTasks executes tasks on the pipeline pool, each against fresh shards.
// active is read-only until every task has finished. A task whose run
// panicked or could not set up its runtime keeps that as its err.
func (e *Engine) runTasks(span *obs.Span, tracker *coverage.Tracker, tasks []*task, active map[string]map[int]bool, iter int) {
	for _, t := range tasks {
		t.tracker = tracker.Shard()
		if e.Collector != nil {
			t.col = e.Collector.Shard()
		}
	}
	errs := pipeline.New(e.workers()).Run(len(tasks), func(i int) error {
		return e.runTask(tasks[i], active, iter, span)
	})
	for i, t := range tasks {
		t.err = errs[i]
	}
}

// runTask performs one forced run against the task's own shards. An error
// here is an infrastructure failure on this path only: that run then
// contributes nothing, and the campaign goes on. App-level failures are
// expected on infeasible paths and are not errors.
func (e *Engine) runTask(t *task, active map[string]map[int]bool, iter int, span *obs.Span) error {
	start := time.Now()
	defer func() { t.busy = time.Since(start) }()
	t.reach = make(map[string]bool)
	var extra []*art.Hooks
	if t.site != nil {
		injected := false
		site := t.site
		extra = append(extra, &art.Hooks{
			InjectException: func(m *art.Method, pc int) string {
				if injected || m.Key() != site.Method || pc != site.TryStart {
					return ""
				}
				injected = true
				return site.Type
			},
		})
	}
	extra = append(extra, e.forcingHooks(active, t, iter, span))
	rt, err := e.newRuntime(t.tracker, t.col, extra...)
	if err != nil {
		return err
	}
	_ = e.driver()(rt)
	return nil
}

// mergeTasks is the iteration barrier: shards fold back in task order —
// coverage unions, collection trees dedup by fingerprint — and the
// campaign counters accumulate. Failed and skipped tasks contribute
// nothing; a base run without shards contributes only its counters.
func (e *Engine) mergeTasks(span *obs.Span, tracker *coverage.Tracker, tasks []*task, stats *Stats, iter int) {
	for ti, t := range tasks {
		if t.certifier != nil {
			stats.RunsSkipped++
			continue
		}
		if t.err != nil {
			continue
		}
		if t.tracker != nil {
			tracker.Merge(t.tracker)
		}
		if t.col != nil {
			st := e.Collector.Merge(t.col)
			if span.Enabled() {
				span.WorkerMerge(ti, iter, st.TreesOffered, st.TreesKept)
			}
		}
		stats.ExceptionsCleared += t.cleared
		stats.BusyNS += int64(t.busy)
		stats.ForcedRuns++
	}
}

// forcingHooks builds the branch-override and exception-tolerance hooks for
// one forced run: all path files on record apply, with the fresh target
// path winning conflicts in its own method. iter tags the run's trace
// events with the campaign iteration that scheduled it. The hooks record
// the methods the run reached a branch in and count tolerated exceptions
// in t, without sharing state across concurrent runs.
func (e *Engine) forcingHooks(active map[string]map[int]bool, t *task, iter int, span *obs.Span) *art.Hooks {
	path := t.path
	var last *art.Method
	return &art.Hooks{
		Branch: func(m *art.Method, pc int, in bytecode.Inst, taken bool) (bool, bool) {
			if m != last {
				last = m
				t.reach[m.Key()] = true
			}
			if m.Key() == path.Method {
				if forcedOutcome, ok := path.Decisions[pc]; ok {
					if forcedOutcome != taken && span.Enabled() {
						span.UCBFlip(m.Key(), pc, forcedOutcome, iter)
					}
					return true, forcedOutcome
				}
			}
			if decisions, ok := active[m.Key()]; ok {
				if forcedOutcome, ok := decisions[pc]; ok {
					if forcedOutcome != taken && span.Enabled() {
						span.UCBFlip(m.Key(), pc, forcedOutcome, iter)
					}
					return true, forcedOutcome
				}
			}
			return false, false
		},
		Unhandled: func(m *art.Method, pc int, ex *art.Object) bool {
			t.cleared++
			if span.Enabled() {
				span.ExceptionTolerated(m.Key(), pc)
			}
			return true
		},
	}
}

// computePath finds branch decisions steering control from the method entry
// to the UCB edge.
func (e *Engine) computePath(ucb coverage.UCB) (PathFile, bool) {
	decisions, ok := e.pathTo(ucb.Method, ucb.PC)
	if !ok {
		return PathFile{}, false
	}
	decisions[ucb.PC] = ucb.Taken
	return PathFile{
		Method:    ucb.Method,
		TargetPC:  ucb.PC,
		Taken:     ucb.Taken,
		Decisions: decisions,
	}, true
}

// pathStep is one BFS visit: the decision that reached this pc and the
// parent link to walk the chain back to the entry.
type pathStep struct {
	pc       int
	branchPC int // decision made to get here (-1 none)
	taken    bool
	prev     int // index into the BFS order
}

// methodPaths memoizes one full BFS over a method's static CFG: shortest
// decision chains from the entry to every reachable pc. Computing it once
// per method amortizes what used to be a fresh BFS per UCB per iteration.
type methodPaths struct {
	visited []int32 // pc -> index into order plus one; 0 = unreached
	order   []pathStep
}

// pathTo returns the branch decisions steering control from the method
// entry to targetPC, from the memoized per-method BFS. Only the serial
// scheduling phase may call it — the caches are unsynchronized.
func (e *Engine) pathTo(method string, targetPC int) (map[int]bool, bool) {
	mp, ok := e.cfgs[method]
	if !ok {
		if code := e.codeIdx[method]; code != nil {
			mp = buildPaths(code)
		}
		e.cfgs[method] = mp // negative results memoize too
	}
	if mp == nil || targetPC < 0 || targetPC >= len(mp.visited) || mp.visited[targetPC] == 0 {
		return nil, false
	}
	// Walk the BFS parent chain, collecting the branch decisions that
	// steered here.
	decisions := map[int]bool{}
	for i := int(mp.visited[targetPC]) - 1; i > 0; i = mp.order[i].prev {
		if mp.order[i].branchPC >= 0 {
			decisions[mp.order[i].branchPC] = mp.order[i].taken
		}
	}
	return decisions, true
}

// buildPaths BFS-walks the static CFG from the method entry, recording the
// shortest decision chain to every reachable instruction. It visits an
// instruction's fall-through before its jumps, so of two equally short
// chains the one that does not take a branch wins.
func buildPaths(code *dex.Code) *methodPaths {
	prog := bytecode.Read(code.Insns)
	if prog.Err() != nil {
		return nil
	}
	mp := &methodPaths{visited: make([]int32, len(code.Insns))}
	push := func(pc, branchPC int, taken bool, prev int) {
		if prog.Index(pc) < 0 || mp.visited[pc] != 0 {
			return
		}
		mp.order = append(mp.order, pathStep{pc: pc, branchPC: branchPC, taken: taken, prev: prev})
		mp.visited[pc] = int32(len(mp.order))
	}
	push(0, -1, false, -1)
	for qi := 0; qi < len(mp.order); qi++ {
		in := prog.Lookup(mp.order[qi].pc)
		branchPC := -1
		if in.Op.IsBranch() {
			branchPC = int(in.PC)
		}
		if next := in.Next(); next >= 0 {
			push(next, branchPC, false, qi)
		}
		for j := 0; j < in.Jumps(); j++ {
			push(in.Jump(j), branchPC, branchPC >= 0, qi)
		}
	}
	return mp
}

// buildCodeIndex maps method keys to their bodies, replacing what used to
// be a linear scan over every class per lookup. First occurrence wins,
// matching the scan order it replaces.
func buildCodeIndex(files []*dex.File) map[string]*dex.Code {
	idx := make(map[string]*dex.Code)
	for _, f := range files {
		for ci := range f.Classes {
			cd := &f.Classes[ci]
			for mi := range cd.NumMethods() {
				em := cd.Method(mi)
				key := f.MethodAt(em.Method).Key()
				if _, ok := idx[key]; !ok {
					idx[key] = em.Code
				}
			}
		}
	}
	return idx
}

// WritePathFiles saves the computed paths, one JSON file per UCB, matching
// the paper's description of path files feeding the next iteration.
func WritePathFiles(dir string, paths []PathFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("forceexec: %w", err)
	}
	for i, p := range paths {
		data, err := json.MarshalIndent(p, "", " ")
		if err != nil {
			return fmt.Errorf("forceexec: marshal path: %w", err)
		}
		name := filepath.Join(dir, fmt.Sprintf("path_%04d.json", i))
		if err := os.WriteFile(name, data, 0o644); err != nil {
			return fmt.Errorf("forceexec: %w", err)
		}
	}
	return nil
}
