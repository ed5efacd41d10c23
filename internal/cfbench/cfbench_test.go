package cfbench_test

import (
	"testing"

	"dexlego/internal/cfbench"
	"dexlego/internal/workload"
)

func TestRunSmallConfig(t *testing.T) {
	// Five rounds, so the slowdowns are true medians: with two, the
	// "median" is the mean of both, and one slow round flips the check.
	cmp, err := cfbench.Run(cfbench.Config{
		JavaIters: 2000, NativeIters: 50_000, Rounds: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Unmodified.Java <= 0 || cmp.Unmodified.Native <= 0 {
		t.Fatalf("non-positive baseline scores: %+v", cmp.Unmodified)
	}
	java, native, overall := cmp.Slowdowns()
	if java < 1 {
		t.Errorf("collection sped up interpretation? java slowdown = %.2f", java)
	}
	// After unit normalization, baseline overall equals both components.
	if cmp.Unmodified.Overall <= 0 {
		t.Errorf("overall = %f", cmp.Unmodified.Overall)
	}
	_ = native
	_ = overall
}

func TestMeasureLaunch(t *testing.T) {
	apps, err := workload.PopularApps()
	if err != nil {
		t.Fatal(err)
	}
	// Eight paired runs (WhatsApp: the smallest app), so summarize's
	// upper-trimmed mean drops the slowest two of each side; at three it
	// drops none and the "not slower" check compares raw means.
	p, err := cfbench.MeasureLaunchPair(apps[2].APK, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.Orig.Mean <= 0 {
		t.Errorf("mean = %v", p.Orig.Mean)
	}
	if p.DexLego.Mean <= p.Orig.Mean {
		t.Errorf("collection launch %v not slower than baseline %v", p.DexLego.Mean, p.Orig.Mean)
	}
	if p.Slowdown <= 1 {
		t.Errorf("median paired slowdown = %.2f, want > 1", p.Slowdown)
	}
	if _, err := cfbench.MeasureLaunchPair(apps[2].APK, 0); err == nil {
		t.Error("zero runs must fail")
	}
}
