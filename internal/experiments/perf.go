package experiments

import (
	"fmt"
	"strings"
	"time"

	"dexlego/internal/cfbench"
	"dexlego/internal/workload"
)

// Figure6Result carries the CF-Bench comparison of Fig. 6.
type Figure6Result struct {
	cfbench.Comparison
}

// RunFigure6 runs the CF-Bench pair. Absolute scores are host-dependent;
// the paper's shape is Java ~7.5x, native ~1.4x, overall ~2.3x slowdown.
// The slowdowns are medians of per-round paired ratios (see
// cfbench.Comparison.Slowdowns), so one loaded round cannot flip them.
func RunFigure6() (*Figure6Result, error) {
	cmp, err := cfbench.Run(cfbench.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return &Figure6Result{Comparison: cmp}, nil
}

// Figure6String renders the CF-Bench comparison.
func (r *Figure6Result) Figure6String() string {
	var sb strings.Builder
	sb.WriteString("Figure 6: Performance Measured by CF-Bench (ops/ms, higher is better)\n")
	fmt.Fprintf(&sb, "%-16s %12s %12s %12s\n", "", "Java", "Native", "Overall")
	fmt.Fprintf(&sb, "%-16s %12.0f %12.0f %12.0f\n", "Unmodified ART",
		r.Unmodified.Java, r.Unmodified.Native, r.Unmodified.Overall)
	fmt.Fprintf(&sb, "%-16s %12.0f %12.0f %12.0f\n", "DexLego",
		r.DexLego.Java, r.DexLego.Native, r.DexLego.Overall)
	j, n, o := r.Slowdowns()
	fmt.Fprintf(&sb, "%-16s %11.1fx %11.1fx %11.1fx\n", "Slowdown", j, n, o)
	return sb.String()
}

// Table8Row is one application's launch-time comparison.
type Table8Row struct {
	App     string
	Version string
	Orig    cfbench.LaunchSample
	DexLego cfbench.LaunchSample
	// slowdown is the median paired per-run ratio (cfbench.LaunchPair).
	slowdown float64
}

// Slowdown returns the launch-time ratio: the median of the per-run
// DexLego/original ratios, not the ratio of the displayed means.
func (r Table8Row) Slowdown() float64 { return r.slowdown }

// RunTable8 measures the launch time of the three popular applications
// with and without DexLego over the given number of runs (the paper uses
// 30). The two configurations are interleaved run by run.
func RunTable8(runs int) ([]Table8Row, error) {
	apps, err := workload.PopularApps()
	if err != nil {
		return nil, err
	}
	var rows []Table8Row
	for _, app := range apps {
		p, err := cfbench.MeasureLaunchPair(app.APK, runs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", app.Name, err)
		}
		rows = append(rows, Table8Row{
			App: app.Name, Version: app.Version,
			Orig: p.Orig, DexLego: p.DexLego, slowdown: p.Slowdown,
		})
	}
	return rows, nil
}

// Table8String renders Table VIII.
func Table8String(rows []Table8Row) string {
	var sb strings.Builder
	sb.WriteString("Table VIII: Time Consumption of DexLego (launch time)\n")
	fmt.Fprintf(&sb, "%-12s %-10s %14s %12s %14s %12s %9s\n",
		"Application", "Version", "Mean", "STD", "Mean(DL)", "STD(DL)", "Slowdown")
	ms := func(d time.Duration) string {
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	}
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %-10s %14s %12s %14s %12s %8.1fx\n",
			r.App, r.Version, ms(r.Orig.Mean), ms(r.Orig.Std),
			ms(r.DexLego.Mean), ms(r.DexLego.Std), r.Slowdown())
	}
	return sb.String()
}
