package dexlego_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	root "dexlego"
	"dexlego/internal/art"
	"dexlego/internal/collector"
	"dexlego/internal/coverage"
	"dexlego/internal/dex"
	"dexlego/internal/forceexec"
	"dexlego/internal/workload"
)

// forcedGolden pins one Table VII app's forced reveal exactly: the full
// coverage report, the residual UCB and handler-site counts, a SHA-256 over
// both residual lists in order, and the SHA-256 of the revealed classes.dex.
type forcedGolden struct {
	report   coverage.Report
	ucbs     int
	handlers int
	listSHA  string
	dexSHA   string
}

// rep builds a Report from covered/total pairs in the order class, method,
// line, branch, instruction.
func rep(p [5][2]int) coverage.Report {
	r := func(i int) coverage.Ratio { return coverage.Ratio{Covered: p[i][0], Total: p[i][1]} }
	return coverage.Report{Class: r(0), Method: r(1), Line: r(2), Branch: r(3), Instruction: r(4)}
}

var forcedGoldens = map[string]forcedGolden{
	"be.ppareit.swiftp": {rep([5][2]int{{33, 46}, {110, 153}, {2792, 4244}, {34, 54}, {5524, 8812}}), 20, 1,
		"76481ba19e62d01424bfe4168b02cf92399da1847b6abf194f32d998302443af",
		"22676d11f14b9096721fa838928a784b064542b5cc6058fc74d6331b4b60cf0c"},
	"fr.gaulupeau.apps.InThePoche": {rep([5][2]int{{33, 46}, {110, 153}, {9600, 14280}, {34, 54}, {19132, 29231}}), 20, 1,
		"76481ba19e62d01424bfe4168b02cf92399da1847b6abf194f32d998302443af",
		"684c8f0109611cfd3ce4ee5a92c39eb54de369424740cccb70635fbb86d4ac19"},
	"org.gnucash.android": {rep([5][2]int{{33, 46}, {110, 153}, {18344, 27490}, {34, 54}, {36628, 56565}}), 20, 1,
		"76481ba19e62d01424bfe4168b02cf92399da1847b6abf194f32d998302443af",
		"ec11dc7ba720ed0d84ca46101cc1bb74699aaf19b849e6f4ceb6522bea46e780"},
	"org.liberty.android.fantastischmemopro": {rep([5][2]int{{33, 46}, {110, 153}, {18672, 27982}, {34, 54}, {37276, 57575}}), 20, 1,
		"76481ba19e62d01424bfe4168b02cf92399da1847b6abf194f32d998302443af",
		"4d8c2f3d73affe4da7331e059020f490b03508998e6ac9a4279f042660a61b2d"},
	"com.fastaccess.github": {rep([5][2]int{{33, 46}, {110, 153}, {30336, 45554}, {34, 54}, {60604, 93913}}), 20, 1,
		"76481ba19e62d01424bfe4168b02cf92399da1847b6abf194f32d998302443af",
		"38bca4649d1721f310048d13411d65c89dc64cf14e50726c92c376c44ec1ff15"},
}

// goldenWorkers returns the worker counts the forced goldens run at:
// DEXLEGO_GOLDEN_WORKERS (comma-separated) when set, else 1 and 2.
func goldenWorkers(t *testing.T) []int {
	env := os.Getenv("DEXLEGO_GOLDEN_WORKERS")
	if env == "" {
		return []int{1, 2}
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

// TestForcedCoverageGolden pins the exact coverage outcome of every Table
// VII forced reveal. TestTable7 checks percentages within a tolerance; this
// test proves identity: any change to the coverage tracker, the force
// engine or the reassembler that moves one covered instruction, one
// residual UCB or one revealed byte fails here.
func TestForcedCoverageGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("forced reveals are slow under -short")
	}
	apps, err := workload.FDroidApps()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps {
		want, ok := forcedGoldens[app.Package]
		if !ok {
			t.Errorf("no golden for %s", app.Package)
		}
		for _, workers := range goldenWorkers(t) {
			res, err := root.Reveal(app.APK, root.Options{ForceExecution: true, Natives: app.Natives, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", app.Package, workers, err)
			}
			data, err := res.Revealed.Dex()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)

			// The residual lists are not part of Result, so rerun the same
			// campaign against a tracker the test can query.
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
			eng := forceexec.New(app.APK, files)
			eng.InstallNatives = func(rt *art.Runtime) {
				for key, fn := range app.Natives {
					rt.RegisterNative(key, fn)
				}
			}
			eng.Driver = root.DefaultDriver
			eng.Workers = workers
			eng.Collector = collector.New()
			if _, err := eng.Run(tracker); err != nil {
				t.Fatal(err)
			}

			ucbs, handlers := tracker.UncoveredBranches(), tracker.UncoveredHandlers()
			lists := sha256.Sum256(fmt.Appendf(nil, "%v\n%v", ucbs, handlers))
			got := forcedGolden{
				report:   *res.Coverage,
				ucbs:     len(ucbs),
				handlers: len(handlers),
				listSHA:  hex.EncodeToString(lists[:]),
				dexSHA:   hex.EncodeToString(sum[:]),
			}
			if tracker.Report() != got.report {
				t.Errorf("%s workers=%d: engine report %+v differs from Reveal's %+v",
					app.Package, workers, tracker.Report(), got.report)
			}
			if got != want {
				t.Errorf("%s workers=%d:\n got %+v\nwant %+v", app.Package, workers, got, want)
			}
		}
	}
}
