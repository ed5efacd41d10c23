package forceexec

import (
	"slices"
	"testing"

	"dexlego/internal/art"
	"dexlego/internal/coverage"
	"dexlego/internal/dex"
	"dexlego/internal/workload"
)

// tableVIISlice returns the two F-Droid apps whose forced reveals the
// coverage goldens pin.
func tableVIISlice(t *testing.T) []workload.FDroidApp {
	t.Helper()
	apps, err := workload.FDroidApps()
	if err != nil {
		t.Fatal(err)
	}
	var out []workload.FDroidApp
	for _, app := range apps {
		if app.Package == "be.ppareit.swiftp" || app.Package == "fr.gaulupeau.apps.InThePoche" {
			out = append(out, app)
		}
	}
	if len(out) != 2 {
		t.Fatalf("Table VII slice has %d apps, want 2", len(out))
	}
	return out
}

// sliceEngine builds a serial engine over app driven like a reveal: launch,
// click every clickable, finish. observe, when set, is attached to every
// runtime after the engine's own hooks, so it sees each branch's final
// decision.
func sliceEngine(t *testing.T, app workload.FDroidApp, observe *art.Hooks) (*Engine, *coverage.Tracker) {
	t.Helper()
	raw, err := app.APK.Dex()
	if err != nil {
		t.Fatal(err)
	}
	f, err := dex.Read(raw)
	if err != nil {
		t.Fatal(err)
	}
	files := []*dex.File{f}
	tracker, err := coverage.NewTracker(files)
	if err != nil {
		t.Fatal(err)
	}
	e := New(app.APK, files)
	e.Workers = 1
	e.InstallNatives = func(rt *art.Runtime) {
		for key, fn := range app.Natives {
			rt.RegisterNative(key, fn)
		}
	}
	e.Driver = func(rt *art.Runtime) error {
		if observe != nil {
			rt.AddHooks(observe)
		}
		activity, err := rt.LaunchActivity()
		if err != nil {
			return err
		}
		for _, id := range rt.Clickables() {
			if err := rt.PerformClick(id); err != nil {
				return err
			}
		}
		return rt.FinishActivity(activity)
	}
	return e, tracker
}

// iterationPaths returns the paths app's campaign schedules, grouped by
// iteration: iteration k's group is what a campaign capped at k+1
// iterations computes beyond one capped at k.
func iterationPaths(t *testing.T, app workload.FDroidApp) [][]PathFile {
	t.Helper()
	var groups [][]PathFile
	prev := 0
	for k := 1; ; k++ {
		e, tracker := sliceEngine(t, app, nil)
		e.MaxIterations = k
		stats, err := e.Run(tracker)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Iterations < k {
			return groups // the campaign converged within k-1 iterations
		}
		groups = append(groups, stats.Paths[prev:])
		prev = len(stats.Paths)
	}
}

// branchRead is one decision a forced run's branch read.
type branchRead struct {
	method string
	pc     int
	taken  bool
}

// TestForcedRunsDeterministic checks the assumption the engine's skip rule
// rests on: a forced run is a pure function of its path and the frozen
// active set. Every forced run the Table VII slice's campaign schedules
// runs twice against that iteration's active set, and both runs must read
// the same (method, pc, decision) sequence.
func TestForcedRunsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("forced campaigns")
	}
	for _, app := range tableVIISlice(t) {
		t.Run(app.Package, func(t *testing.T) {
			var reads []branchRead
			e, tracker := sliceEngine(t, app, &art.Hooks{
				Branch: func(m *art.Method, pc int, taken bool) (bool, bool) {
					reads = append(reads, branchRead{m.Key(), pc, taken})
					return false, false
				},
			})
			active := make(map[string]map[int]bool)
			runs, total := 0, 0
			for iter, paths := range iterationPaths(t, app) {
				for _, path := range paths {
					var seqs [2][]branchRead
					for i := range seqs {
						reads = nil
						e.runTask(&task{path: path, tracker: tracker.Shard()}, active, iter, nil)
						seqs[i] = reads
					}
					if !slices.Equal(seqs[0], seqs[1]) {
						t.Errorf("iteration %d, %s pc %d taken=%v: the two runs read %d and %d decisions, first difference at %d",
							iter, path.Method, path.TargetPC, path.Taken, len(seqs[0]), len(seqs[1]), firstDiff(seqs[0], seqs[1]))
					}
					runs++
					total += len(seqs[0])
				}
				// Fold the iteration's paths in task order, as the engine does.
				for _, path := range paths {
					if active[path.Method] == nil {
						active[path.Method] = make(map[int]bool)
					}
					for pc, taken := range path.Decisions {
						active[path.Method][pc] = taken
					}
				}
			}
			if runs == 0 || total == 0 {
				t.Fatalf("%d forced runs read %d decisions; the campaign forced nothing", runs, total)
			}
		})
	}
}

func firstDiff(a, b []branchRead) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
