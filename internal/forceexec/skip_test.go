package forceexec

import (
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dexlego/internal/collector"
	"dexlego/internal/coverage"
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
// trees, reach set and tolerated exceptions. The campaign skips the same
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
	var skipped []string
	bases := 0 // every iteration with two or more tasks runs one base run
	e.beforeMerge = func(iter int, active map[string]map[int]bool, tasks []*task) {
		if len(tasks) >= 2 {
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
	if stats.ForcedRuns+stats.RunsSkipped != stats.PathsComputed+bases {
		t.Errorf("workers=%d: forced %d + skipped %d != %d paths + %d base runs",
			workers, stats.ForcedRuns, stats.RunsSkipped, stats.PathsComputed, bases)
	}
	return skipped
}
