package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dexlego/internal/art"
	"dexlego/internal/collector"
	"dexlego/internal/coverage"
	"dexlego/internal/dex"
	"dexlego/internal/forceexec"
	"dexlego/internal/fuzzer"
	"dexlego/internal/workload"
)

// Table6Row is one F-Droid sample of Table VI.
type Table6Row struct {
	Package      string
	Version      string
	Instructions int
	DumpBytes    int64
}

// RunTable6 generates the F-Droid applications, executes each under JIT
// collection with the fuzzer, and reports the total collection-file sizes.
func RunTable6(dir string) ([]Table6Row, error) {
	apps, err := workload.FDroidApps()
	if err != nil {
		return nil, err
	}
	var rows []Table6Row
	for i, app := range apps {
		rt := art.NewRuntime(art.DefaultPhone())
		for key, fn := range app.Natives {
			rt.RegisterNative(key, fn)
		}
		col := collector.New()
		rt.AddHooks(col.Hooks())
		if err := rt.LoadAPK(app.APK); err != nil {
			return nil, err
		}
		fz := fuzzer.New(int64(i) + 1)
		if err := fz.Drive(rt, nil); err != nil {
			return nil, err
		}
		sub := filepath.Join(dir, fmt.Sprintf("dump%d", i))
		if err := col.Result().WriteFiles(sub); err != nil {
			return nil, err
		}
		var total int64
		entries, err := os.ReadDir(sub)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			info, err := e.Info()
			if err != nil {
				return nil, err
			}
			total += info.Size()
		}
		rows = append(rows, Table6Row{
			Package:      app.Package,
			Version:      app.Version,
			Instructions: app.Insns,
			DumpBytes:    total,
		})
	}
	return rows, nil
}

// Table6String renders Table VI.
func Table6String(rows []Table6Row) string {
	var sb strings.Builder
	sb.WriteString("Table VI: Samples from F-Droid\n")
	fmt.Fprintf(&sb, "%-42s %-10s %14s %12s\n", "Package Name", "Version", "# Instructions", "Dump Size")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-42s %-10s %14d %9.2f KB\n",
			r.Package, r.Version, r.Instructions, float64(r.DumpBytes)/1024)
	}
	return sb.String()
}

// Table7Result holds the average coverage of Table VII.
type Table7Result struct {
	Sapienz coverage.Report
	Forced  coverage.Report
	PerApp  []AppCoverage
}

// AppCoverage is one application's coverage pair.
type AppCoverage struct {
	Package string
	Sapienz coverage.Report
	Forced  coverage.Report
}

// RunTable7 measures Sapienz-only coverage versus Sapienz-plus-force-
// execution coverage over the five F-Droid applications.
func RunTable7() (*Table7Result, error) {
	return runTable7(false)
}

// RunTable7ExceptionEdges is the ablation of the paper's future-work
// extension: force execution additionally treats try/catch edges as
// forceable branches, recovering the "instructions in exception handlers"
// coverage-loss category.
func RunTable7ExceptionEdges() (*Table7Result, error) {
	return runTable7(true)
}

func runTable7(exceptionEdges bool) (*Table7Result, error) {
	apps, err := workload.FDroidApps()
	if err != nil {
		return nil, err
	}
	res := &Table7Result{}
	var sumS, sumF [5]float64
	for i, app := range apps {
		data, err := app.APK.Dex()
		if err != nil {
			return nil, err
		}
		f, err := dex.Read(data)
		if err != nil {
			return nil, err
		}
		files := []*dex.File{f}
		install := func(rt *art.Runtime) {
			for key, fn := range app.Natives {
				rt.RegisterNative(key, fn)
			}
		}
		fz := fuzzer.New(int64(i) + 1)
		driver := func(rt *art.Runtime) error { return fz.Drive(rt, nil) }

		// Sapienz alone is the campaign's baseline launch; force execution
		// then iterates from it on the same tracker.
		tracker, err := coverage.NewTracker(files)
		if err != nil {
			return nil, err
		}
		eng := forceexec.New(app.APK, files)
		eng.InstallNatives = install
		eng.Driver = driver
		eng.ForceExceptionEdges = exceptionEdges
		if _, err := eng.Baseline(tracker); err != nil {
			return nil, err
		}
		sapienz := tracker.Report()
		if _, err := eng.Run(tracker); err != nil {
			return nil, err
		}
		forced := tracker.Report()

		res.PerApp = append(res.PerApp, AppCoverage{
			Package: app.Package, Sapienz: sapienz, Forced: forced,
		})
		for j, pair := range [][2]coverage.Ratio{
			{sapienz.Class, forced.Class}, {sapienz.Method, forced.Method},
			{sapienz.Line, forced.Line}, {sapienz.Branch, forced.Branch},
			{sapienz.Instruction, forced.Instruction},
		} {
			sumS[j] += pair[0].Percent()
			sumF[j] += pair[1].Percent()
		}
	}
	n := float64(len(apps))
	mk := func(sums [5]float64) coverage.Report {
		return coverage.Report{
			Class:       coverage.Ratio{Covered: int(sums[0] / n), Total: 100},
			Method:      coverage.Ratio{Covered: int(sums[1] / n), Total: 100},
			Line:        coverage.Ratio{Covered: int(sums[2] / n), Total: 100},
			Branch:      coverage.Ratio{Covered: int(sums[3] / n), Total: 100},
			Instruction: coverage.Ratio{Covered: int(sums[4] / n), Total: 100},
		}
	}
	res.Sapienz = mk(sumS)
	res.Forced = mk(sumF)
	return res, nil
}

// Table7String renders Table VII (percentages averaged over the samples).
func Table7String(r *Table7Result) string {
	var sb strings.Builder
	sb.WriteString("Table VII: Code Coverage with F-Droid Applications\n")
	fmt.Fprintf(&sb, "%-20s %6s %7s %5s %7s %12s\n",
		"", "Class", "Method", "Line", "Branch", "Instruction")
	row := func(name string, rep coverage.Report) {
		fmt.Fprintf(&sb, "%-20s %5d%% %6d%% %4d%% %6d%% %11d%%\n", name,
			rep.Class.Covered, rep.Method.Covered, rep.Line.Covered,
			rep.Branch.Covered, rep.Instruction.Covered)
	}
	row("Sapienz", r.Sapienz)
	row("Sapienz + DexLego", r.Forced)
	return sb.String()
}
