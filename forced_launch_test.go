package dexlego_test

import (
	"sync"
	"sync/atomic"
	"testing"

	root "dexlego"
	"dexlego/internal/art"
	"dexlego/internal/collector"
	"dexlego/internal/coverage"
	"dexlego/internal/dex"
	"dexlego/internal/forceexec"
	"dexlego/internal/workload"
)

// tableVIISlice returns the two F-Droid apps whose forced campaigns the
// force engine's skip tests pin.
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

// sliceCampaign runs app's forced campaign on a standalone engine, as a
// forced reveal configures it, and returns its stats.
func sliceCampaign(t *testing.T, app workload.FDroidApp, workers int) *forceexec.Stats {
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
	eng := forceexec.New(app.APK, files)
	eng.InstallNatives = func(rt *art.Runtime) {
		for key, fn := range app.Natives {
			rt.RegisterNative(key, fn)
		}
	}
	eng.Driver = root.DefaultDriver
	eng.Workers = workers
	eng.Collector = collector.New()
	stats, err := eng.Run(tracker)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestForcedRevealLaunchesBaselineOnce: a forced reveal's collection launch
// is its campaign's baseline, so the reveal calls its driver once per
// forced run plus once for that launch. The baseline also certifies
// iteration 0, which therefore runs no base run: 15 forced runs and 60
// skipped per slice app.
func TestForcedRevealLaunchesBaselineOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("forced reveals are slow under -short")
	}
	for _, app := range tableVIISlice(t) {
		for _, workers := range goldenWorkers(t) {
			stats := sliceCampaign(t, app, workers)
			if stats.ForcedRuns != 15 || stats.RunsSkipped != 60 {
				t.Errorf("%s workers=%d: %d forced runs, %d skipped; want 15, 60",
					app.Package, workers, stats.ForcedRuns, stats.RunsSkipped)
			}
			var launches atomic.Int64
			_, err := root.Reveal(app.APK, root.Options{
				ForceExecution: true, Natives: app.Natives, Workers: workers,
				Driver: func(rt *art.Runtime) error {
					launches.Add(1)
					return root.DefaultDriver(rt)
				},
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", app.Package, workers, err)
			}
			if got, want := launches.Load(), int64(stats.ForcedRuns+1); got != want {
				t.Errorf("%s workers=%d: driver called %d times, want %d (the baseline and %d forced runs)",
					app.Package, workers, got, want, stats.ForcedRuns)
			}
		}
	}
}

// TestForcedRevealHonoursDevice: every runtime of a forced reveal — the
// collection launch and each forced run — runs on Options.Device.
func TestForcedRevealHonoursDevice(t *testing.T) {
	if testing.Short() {
		t.Skip("forced reveals are slow under -short")
	}
	app := tableVIISlice(t)[0]
	dev := art.EmulatorDevice()
	for _, workers := range goldenWorkers(t) {
		var mu sync.Mutex
		runtimes, wrong := 0, 0
		_, err := root.Reveal(app.APK, root.Options{
			Device: &dev, ForceExecution: true, Natives: app.Natives, Workers: workers,
			Driver: func(rt *art.Runtime) error {
				mu.Lock()
				runtimes++
				if rt.Device != dev {
					wrong++
				}
				mu.Unlock()
				return root.DefaultDriver(rt)
			},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if runtimes < 2 || wrong != 0 {
			t.Errorf("workers=%d: %d of %d runtimes off the requested device", workers, wrong, runtimes)
		}
	}
}
