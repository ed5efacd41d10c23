package forceexec

import (
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dexlego/internal/bytecode"
	"dexlego/internal/collector"
	"dexlego/internal/coverage"
	"dexlego/internal/dex"
	"dexlego/internal/dexgen"
	"dexlego/internal/pipeline"
	"dexlego/internal/workload"
)

// treeFingerprints lists each method's collected tree fingerprints.
func treeFingerprints(res *collector.Result) map[string][]string {
	out := make(map[string][]string)
	for key, rec := range res.Methods {
		for _, tr := range rec.Trees {
			out[key] = append(out[key], tr.Fingerprint())
		}
	}
	return out
}

// sameCoverage reports whether two shards of parent cover exactly the same
// sets: a union whose every count equals both shards' counts adds nothing
// to either.
func sameCoverage(parent, a, b *coverage.Tracker) bool {
	union := parent.Shard()
	union.Merge(a)
	union.Merge(b)
	return a.Report() == b.Report() && union.Report() == a.Report()
}

// campaignWorkers returns the pool sizes to run campaigns at:
// DEXLEGO_GOLDEN_WORKERS (comma-separated) when set, else 1.
func campaignWorkers(t *testing.T) []int {
	env := os.Getenv("DEXLEGO_GOLDEN_WORKERS")
	if env == "" {
		return []int{1}
	}
	var counts []int
	for _, field := range strings.Split(env, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil {
			t.Fatalf("DEXLEGO_GOLDEN_WORKERS %q: %v", env, err)
		}
		counts = append(counts, n)
	}
	return counts
}

// TestSkippedRunsRepeatCertifier re-runs every task the slice's campaign
// skips, alone against the same frozen active set and collector parent, and
// requires exactly its iteration's base run's coverage shard, collected
// trees, reach set and tolerated exceptions. Iteration 0's tasks are
// skipped on the baseline's evidence instead, which merged before the
// iteration and kept no shards: each such re-run must add no coverage bit
// and no tree to the parent as it stands after the baseline, reach the
// baseline's methods, and tolerate nothing. The campaign skips the same
// tasks at every worker count.
func TestSkippedRunsRepeatCertifier(t *testing.T) {
	if testing.Short() {
		t.Skip("forced campaigns")
	}
	for _, app := range tableVIISlice(t) {
		t.Run(app.Package, func(t *testing.T) {
			var first []string
			for _, workers := range campaignWorkers(t) {
				skipped := skippedRunsRepeatCertifier(t, app, workers)
				if first == nil {
					first = skipped
				} else if !slices.Equal(skipped, first) {
					t.Errorf("workers=%d skipped %v, want %v", workers, skipped, first)
				}
			}
		})
	}
}

// skippedRunsRepeatCertifier runs app's campaign at the given pool size,
// checks every skipped task against the base run that certified it, and
// lists the skipped tasks as iteration/method/pc/edge.
func skippedRunsRepeatCertifier(t *testing.T, app workload.FDroidApp, workers int) []string {
	t.Helper()
	e, tracker := sliceEngine(t, app, nil)
	e.Workers = workers
	e.Collector = collector.New()
	if _, err := e.Baseline(tracker); err != nil {
		t.Fatal(err)
	}
	if e.baseline.escaped != 0 {
		t.Fatalf("workers=%d: %d exceptions escaped the baseline; it certifies nothing", workers, e.baseline.escaped)
	}
	var skipped []string
	// Every iteration with two or more tasks runs one base run, except
	// iteration 0, which the baseline certifies.
	bases, baselineSkips := 0, 0
	e.beforeMerge = func(iter int, active map[string]map[int]bool, tasks []*task) {
		if len(tasks) >= 2 && iter > 0 {
			bases++
		}
		for _, tk := range tasks {
			x := tk.certifier
			if x == nil {
				continue
			}
			skipped = append(skipped, fmt.Sprintf("%d/%s/%d/%v", iter, tk.path.Method, tk.path.TargetPC, tk.path.Taken))
			alone := &task{path: tk.path, tracker: tracker.Shard(), col: e.Collector.Shard()}
			alone.err = pipeline.Isolate(func() error { return e.runTask(alone, active, iter, nil) })
			where := fmt.Sprintf("workers=%d, iteration %d, %s", workers, iter, tk.path.Method)
			if x == e.baseline {
				baselineSkips++
				if iter != 0 {
					t.Fatalf("%s: the baseline certified a task past iteration 0", where)
				}
				if alone.err != nil {
					t.Fatalf("%s: run error %v", where, alone.err)
				}
				// Nothing of iteration 0 has merged yet: the parent holds
				// the baseline alone.
				parent := tracker.Shard()
				parent.Merge(tracker)
				before := parent.Report()
				if parent.Merge(alone.tracker); parent.Report() != before {
					t.Errorf("%s: coverage %+v, after the baseline %+v", where, parent.Report(), before)
				}
				known := treeFingerprints(e.Collector.Result())
				for key, fps := range treeFingerprints(alone.col.Result()) {
					for _, fp := range fps {
						if !slices.Contains(known[key], fp) {
							t.Errorf("%s: collected a tree of %s the baseline did not", where, key)
						}
					}
				}
				if !maps.Equal(alone.reach, x.reach) || alone.cleared != 0 {
					t.Errorf("%s: reach %v cleared %d, baseline reach %v",
						where, alone.reach, alone.cleared, x.reach)
				}
				if alone.reach[tk.path.Method] {
					t.Errorf("%s: the skipped run reached its own target method", where)
				}
				continue
			}
			if alone.err != nil || x.err != nil {
				t.Fatalf("%s: run errors %v, %v", where, alone.err, x.err)
			}
			if !sameCoverage(tracker, alone.tracker, x.tracker) {
				t.Errorf("%s: coverage %+v, base run %+v", where, alone.tracker.Report(), x.tracker.Report())
			}
			if got, want := treeFingerprints(alone.col.Result()), treeFingerprints(x.col.Result()); !maps.EqualFunc(got, want, slices.Equal) {
				t.Errorf("%s: collected trees differ from the base run's", where)
			}
			if !maps.Equal(alone.reach, x.reach) || alone.cleared != x.cleared {
				t.Errorf("%s: reach %v cleared %d, base run reach %v cleared %d",
					where, alone.reach, alone.cleared, x.reach, x.cleared)
			}
			if alone.reach[tk.path.Method] {
				t.Errorf("%s: the skipped run reached its own target method", where)
			}
		}
	}
	stats, err := e.Run(tracker)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) == 0 || len(skipped) != stats.RunsSkipped {
		t.Errorf("workers=%d: re-ran %d skipped tasks, Stats.RunsSkipped = %d", workers, len(skipped), stats.RunsSkipped)
	}
	if baselineSkips == 0 {
		t.Errorf("workers=%d: the baseline certified no task", workers)
	}
	if stats.ForcedRuns+stats.RunsSkipped != stats.PathsComputed+bases {
		t.Errorf("workers=%d: forced %d + skipped %d != %d paths + %d base runs",
			workers, stats.ForcedRuns, stats.RunsSkipped, stats.PathsComputed, bases)
	}
	return skipped
}

// TestEscapingBaselineCertifiesNothing: onCreate lets an exception escape
// its frame. A base run would tolerate it and go on where the baseline
// stopped, so the baseline does not stand in for iteration 0's base run:
// that iteration runs its own, which certifies both tasks in a method
// nothing calls.
func TestEscapingBaselineCertifiesNothing(t *testing.T) {
	p := dexgen.New()
	main := p.Class("Les/Main;", "Landroid/app/Activity;")
	main.Ctor("Landroid/app/Activity;", nil)
	main.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.Const(0, 0)
		a.Binop(bytecode.OpDivInt, 1, 0, 0) // ArithmeticException, uncaught
		a.ReturnVoid()
	})
	p.Class("Les/Dead;", "Ljava/lang/Object;").Static("run", "V", []string{"I"}, func(a *dexgen.Asm) {
		a.IfZ(bytecode.OpIfNez, a.P(0), "out")
		a.Nop()
		a.Label("out")
		a.ReturnVoid()
	})
	pkg, err := p.BuildAPK("es", "1.0", "Les/Main;")
	if err != nil {
		t.Fatal(err)
	}
	f, err := pkg.DexFile()
	if err != nil {
		t.Fatal(err)
	}
	files := []*dex.File{f}
	tracker, err := coverage.NewTracker(files)
	if err != nil {
		t.Fatal(err)
	}
	e := New(pkg, files)
	e.Workers = 1
	var first []*task
	e.beforeMerge = func(iter int, _ map[string]map[int]bool, tasks []*task) {
		if iter == 0 {
			first = tasks
		}
	}
	if _, err := e.Run(tracker); err != nil {
		t.Fatal(err)
	}
	if e.baseline.escaped != 1 {
		t.Fatalf("%d exceptions escaped the baseline, want 1", e.baseline.escaped)
	}
	if len(first) != 2 {
		t.Fatalf("iteration 0 scheduled %d tasks, want 2", len(first))
	}
	for _, tk := range first {
		if tk.certifier == nil || tk.certifier == e.baseline {
			t.Errorf("%s pc %d taken=%v: certifier %p, want iteration 0's base run (baseline %p)",
				tk.path.Method, tk.path.TargetPC, tk.path.Taken, tk.certifier, e.baseline)
		}
	}
}
