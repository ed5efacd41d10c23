// Package experiments regenerates every table and figure of the paper's
// evaluation section (Tables I-VIII, Figures 5-6) from the substrates in
// this repository. Each experiment returns a structured result with a
// formatted rendering, so the cmd/ tools, the benchmark harness and
// EXPERIMENTS.md all draw from the same computation.
package experiments

import (
	"fmt"
	"strings"

	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/dex"
	"dexlego/internal/droidbench"
	"dexlego/internal/dyntaint"
	"dexlego/internal/packer"
	"dexlego/internal/pipeline"
	"dexlego/internal/taint"
	"dexlego/internal/unpacker"

	root "dexlego"
)

// ToolCounts is one TP/FP cell pair of Tables II/III.
type ToolCounts struct {
	TP int
	FP int
}

// SampleVerdicts records the per-tool decisions for one sample.
type SampleVerdicts struct {
	Name     string
	Leaky    bool
	Original map[string]bool
	DexLego  map[string]bool
	Dumped   map[string]bool // DexHunter/AppSpear processed (Table III)
}

// DroidBenchResult aggregates Tables II and III plus Figure 5 inputs.
type DroidBenchResult struct {
	Samples int
	Malware int

	Original map[string]ToolCounts // Table II left
	DexLego  map[string]ToolCounts // Table II right / Table III right
	Dumped   map[string]ToolCounts // Table III: DexHunter / AppSpear

	PerSample []SampleVerdicts
}

// tools lists the three evaluated static analyses in the paper's order.
func tools() []taint.Profile { return taint.Profiles() }

// RunDroidBench executes the full Table II + Table III experiment: analyze
// every sample's original APK, its 360-packed-then-dumped form, and its
// DexLego-revealed form with all three tools. The 134 samples run over the
// batch pipeline with GOMAXPROCS workers.
func RunDroidBench() (*DroidBenchResult, error) { return RunDroidBenchJobs(0) }

// RunDroidBenchJobs is RunDroidBench with an explicit worker cap (<= 0
// selects runtime.GOMAXPROCS). Samples are independent — each builds its
// own APK, packer shell and runtimes — and verdicts are tallied in suite
// order, so the result is identical for any cap.
func RunDroidBenchJobs(workers int) (*DroidBenchResult, error) {
	res := &DroidBenchResult{
		Original: map[string]ToolCounts{},
		DexLego:  map[string]ToolCounts{},
		Dumped:   map[string]ToolCounts{},
	}
	suite := droidbench.Suite()
	verdicts, errs := pipeline.Map(pipeline.New(workers), len(suite),
		func(i int) (SampleVerdicts, error) { return runDroidBenchSample(suite[i]) })
	if err := pipeline.FirstError(errs); err != nil {
		return nil, err
	}
	for i, s := range suite {
		res.Samples++
		if s.Leaky {
			res.Malware++
		}
		sv := verdicts[i]
		for _, tool := range tools() {
			tally(res.Original, tool.Name, s.Leaky, sv.Original[tool.Name])
			tally(res.Dumped, tool.Name, s.Leaky, sv.Dumped[tool.Name])
			tally(res.DexLego, tool.Name, s.Leaky, sv.DexLego[tool.Name])
		}
		res.PerSample = append(res.PerSample, sv)
	}
	return res, nil
}

// runDroidBenchSample processes one sample end to end; it owns every
// runtime, packer and unpacker it touches, so samples can run in parallel.
func runDroidBenchSample(s *droidbench.Sample) (SampleVerdicts, error) {
	sv := SampleVerdicts{
		Name: s.Name, Leaky: s.Leaky,
		Original: map[string]bool{},
		DexLego:  map[string]bool{},
		Dumped:   map[string]bool{},
	}
	p360, err := packer.ByName("360")
	if err != nil {
		return sv, err
	}
	dh := unpacker.DexHunter()
	pkg, err := s.Build()
	if err != nil {
		return sv, err
	}

	// Original APK.
	orig, err := analysisInput(pkg)
	if err != nil {
		return sv, fmt.Errorf("%s: %w", s.Name, err)
	}
	for _, tool := range tools() {
		r, err := taint.Analyze(orig, tool)
		if err != nil {
			return sv, fmt.Errorf("%s/%s: %w", s.Name, tool.Name, err)
		}
		sv.Original[tool.Name] = r.Leaky()
	}

	// 360-packed, then dumped by DexHunter/AppSpear (identical output).
	packed, err := p360.Pack(pkg)
	if err != nil {
		return sv, fmt.Errorf("%s: pack: %w", s.Name, err)
	}
	install := func(rt *art.Runtime) {
		p360.InstallNatives(rt)
		s.InstallNatives(rt)
	}
	dumped, err := dh.Unpack(packed, install, nil)
	if err != nil {
		return sv, fmt.Errorf("%s: unpack: %w", s.Name, err)
	}
	for _, tool := range tools() {
		r, err := taint.Analyze(dumped, tool)
		if err != nil {
			return sv, fmt.Errorf("%s/%s dumped: %w", s.Name, tool.Name, err)
		}
		sv.Dumped[tool.Name] = r.Leaky()
	}

	// DexLego-revealed (from the packed APK, like the paper).
	revealed, err := root.Reveal(packed, root.Options{
		InstallNatives: install,
	})
	if err != nil {
		return sv, fmt.Errorf("%s: reveal: %w", s.Name, err)
	}
	for _, tool := range tools() {
		r, err := taint.Analyze([]*dex.File{revealed.RevealedDex}, tool)
		if err != nil {
			return sv, fmt.Errorf("%s/%s revealed: %w", s.Name, tool.Name, err)
		}
		sv.DexLego[tool.Name] = r.Leaky()
	}
	return sv, nil
}

func tally(m map[string]ToolCounts, tool string, leaky, detected bool) {
	c := m[tool]
	if detected {
		if leaky {
			c.TP++
		} else {
			c.FP++
		}
	}
	m[tool] = c
}

// analysisInput parses the APK's classes.dex for static analysis.
func analysisInput(pkg *apk.APK) ([]*dex.File, error) {
	data, err := pkg.Dex()
	if err != nil {
		return nil, err
	}
	f, err := dex.Read(data)
	if err != nil {
		return nil, err
	}
	return []*dex.File{f}, nil
}

// FMeasure computes the paper's Formula (1).
func FMeasure(tp, fp, samples, malware int) float64 {
	fn := malware - tp
	tn := samples - malware - fp
	sens := float64(tp) / float64(tp+fn)
	spec := float64(tn) / float64(tn+fp)
	if sens+spec == 0 {
		return 0
	}
	return 2 * sens * spec / (sens + spec)
}

// Figure5Row is one tool's F-measures across the four configurations.
type Figure5Row struct {
	Tool                                   string
	Original, DexHunter, AppSpear, DexLego float64
}

// Figure5 derives the F-measure chart from the DroidBench result.
func Figure5(r *DroidBenchResult) []Figure5Row {
	var rows []Figure5Row
	for _, tool := range tools() {
		o := r.Original[tool.Name]
		d := r.Dumped[tool.Name]
		x := r.DexLego[tool.Name]
		rows = append(rows, Figure5Row{
			Tool:      tool.Name,
			Original:  FMeasure(o.TP, o.FP, r.Samples, r.Malware),
			DexHunter: FMeasure(d.TP, d.FP, r.Samples, r.Malware),
			AppSpear:  FMeasure(d.TP, d.FP, r.Samples, r.Malware),
			DexLego:   FMeasure(x.TP, x.FP, r.Samples, r.Malware),
		})
	}
	return rows
}

// Table2String renders the Table II layout.
func (r *DroidBenchResult) Table2String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table II: Analysis Result of Static Analysis Tools\n")
	fmt.Fprintf(&sb, "%-12s %8s %9s | %4s %4s | %4s %4s\n",
		"Tool", "#Samples", "#Malware", "TP", "FP", "TP", "FP")
	fmt.Fprintf(&sb, "%-12s %8s %9s | %9s | %9s\n", "", "", "", " Original", "  DexLego")
	for _, tool := range tools() {
		o, x := r.Original[tool.Name], r.DexLego[tool.Name]
		fmt.Fprintf(&sb, "%-12s %8d %9d | %4d %4d | %4d %4d\n",
			tool.Name, r.Samples, r.Malware, o.TP, o.FP, x.TP, x.FP)
	}
	return sb.String()
}

// Table3String renders the Table III layout.
func (r *DroidBenchResult) Table3String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table III: Analysis Result of Packed Samples (360 packer)\n")
	fmt.Fprintf(&sb, "%-12s %8s %9s | %4s %4s | %4s %4s\n",
		"Tool", "#Samples", "#Malware", "TP", "FP", "TP", "FP")
	fmt.Fprintf(&sb, "%-12s %8s %9s | %9s | %9s\n", "", "", "", "  DH / AS", "  DexLego")
	for _, tool := range tools() {
		d, x := r.Dumped[tool.Name], r.DexLego[tool.Name]
		fmt.Fprintf(&sb, "%-12s %8d %9d | %4d %4d | %4d %4d\n",
			tool.Name, r.Samples, r.Malware, d.TP, d.FP, x.TP, x.FP)
	}
	return sb.String()
}

// Figure5String renders the F-measure chart data.
func Figure5String(rows []Figure5Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 5: F-measures of Static Analysis Tools\n")
	fmt.Fprintf(&sb, "%-12s %9s %10s %9s %8s\n",
		"Tool", "Original", "DexHunter", "AppSpear", "DexLego")
	for _, row := range rows {
		fmt.Fprintf(&sb, "%-12s %8.0f%% %9.0f%% %8.0f%% %7.0f%%\n",
			row.Tool, 100*row.Original, 100*row.DexHunter, 100*row.AppSpear, 100*row.DexLego)
	}
	return sb.String()
}

// Table4Row is one sample's dynamic-analysis comparison.
type Table4Row struct {
	Sample     string
	Leaks      int
	TaintDroid int
	TaintART   int
	DexLegoHD  int
}

// RunTable4 compares TaintDroid and TaintART with DexLego+HornDroid on the
// five samples of Table IV.
func RunTable4() ([]Table4Row, error) {
	names := []string{"Button1", "Button3", "EmulatorDetection1", "ImplicitFlow1", "PrivateDataLeak3"}
	var rows []Table4Row
	for _, name := range names {
		s := droidbench.ByName(name)
		if s == nil {
			return nil, fmt.Errorf("experiments: sample %s missing", name)
		}
		pkg, err := s.Build()
		if err != nil {
			return nil, err
		}
		row := Table4Row{Sample: name, Leaks: s.LeakCount}
		// Dynamic tools run their own (launch-only) exploration.
		td, err := dyntaint.TaintDroid().Analyze(pkg, s.InstallNatives, nil)
		if err != nil {
			return nil, err
		}
		row.TaintDroid = td.Count()
		ta, err := dyntaint.TaintART().Analyze(pkg, s.InstallNatives, nil)
		if err != nil {
			return nil, err
		}
		row.TaintART = ta.Count()
		// DexLego (with its coverage driver) feeding HornDroid.
		revealed, err := root.Reveal(pkg, root.Options{Natives: s.Natives()})
		if err != nil {
			return nil, err
		}
		hd, err := taint.Analyze([]*dex.File{revealed.RevealedDex}, taint.HornDroid())
		if err != nil {
			return nil, err
		}
		row.DexLegoHD = hd.Count()
		rows = append(rows, row)
	}
	return rows, nil
}

// Table4String renders Table IV.
func Table4String(rows []Table4Row) string {
	var sb strings.Builder
	sb.WriteString("Table IV: Analysis Result of Dynamic Analysis Tools and DexLego\n")
	fmt.Fprintf(&sb, "%-22s %6s %4s %4s %14s\n", "Sample", "Leak#", "TD", "TA", "DexLego + HD")
	for _, row := range rows {
		fmt.Fprintf(&sb, "%-22s %6d %4d %4d %14d\n",
			row.Sample, row.Leaks, row.TaintDroid, row.TaintART, row.DexLegoHD)
	}
	return sb.String()
}
