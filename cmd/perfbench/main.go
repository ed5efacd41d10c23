// Command perfbench runs the performance experiments of the paper's
// Section V-E — the CF-Bench comparison of Figure 6 and the launch-time
// measurements of Table VIII — and the reveal hot-path benchmark harness
// that backs the CI bench-gate.
//
// Usage:
//
//	perfbench -figure 6
//	perfbench -table 8 [-runs 30]
//	perfbench -bench [-bench-out BENCH_8.json] [-baseline bench/baseline.json]
//	perfbench -bench -profile prof/ [-bench-time 2s] [-workers 0]
//
// -bench measures ns/op, B/op and allocs/op per hot-path stage over the
// pinned corpus (internal/hotbench) and writes the machine-readable report.
// With -baseline it additionally gates the run: any stage regressing more
// than -ns-tol (default 15%) in ns/op or -allocs-tol (default 10%) in
// allocs/op — or, on the reassembly and encode stages, more than -bytes-tol
// (default 15%) in B/op — against the baseline exits non-zero, with a
// benchstat-style delta table on stderr. -profile writes cpu.pprof and heap.pprof captured
// over the benchmark loop into the given directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"dexlego/internal/experiments"
	"dexlego/internal/hotbench"
	"dexlego/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	figure := fs.Int("figure", 0, "figure to regenerate (6)")
	table := fs.Int("table", 0, "table to regenerate (8)")
	runs := fs.Int("runs", 30, "launch repetitions per app (table 8)")
	bench := fs.Bool("bench", false, "run the reveal hot-path benchmark harness")
	benchOut := fs.String("bench-out", "BENCH_8.json", "benchmark report output path")
	baseline := fs.String("baseline", "", "baseline report to gate against (fails on regression)")
	benchTime := fs.Duration("bench-time", time.Second, "minimum measuring time per stage")
	workers := fs.Int("workers", 0, "intra-reveal workers: forced-run pool size; reassembly is serial (0 = GOMAXPROCS, 1 = serial)")
	profileDir := fs.String("profile", "", "directory for cpu.pprof and heap.pprof of the bench run")
	nsTol := fs.Float64("ns-tol", hotbench.DefaultNsTolerance, "ns/op regression tolerance (fraction)")
	allocsTol := fs.Float64("allocs-tol", hotbench.DefaultAllocsTolerance, "allocs/op regression tolerance (fraction)")
	bytesTol := fs.Float64("bytes-tol", hotbench.DefaultBytesTolerance, "B/op regression tolerance on reassembly/encode (fraction)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *bench:
		return runBench(*benchOut, *baseline, *profileDir, *benchTime, *workers, *nsTol, *allocsTol, *bytesTol)
	case *figure == 6:
		res, err := experiments.RunFigure6()
		if err != nil {
			return err
		}
		fmt.Print(res.Figure6String())
	case *table == 8:
		rows, err := experiments.RunTable8(*runs)
		if err != nil {
			return err
		}
		fmt.Print(experiments.Table8String(rows))
	default:
		fs.Usage()
		return fmt.Errorf("pick -figure 6, -table 8 or -bench")
	}
	return nil
}

func runBench(outPath, baselinePath, profileDir string, benchTime time.Duration, workers int, nsTol, allocsTol, bytesTol float64) error {
	if profileDir != "" {
		if err := os.MkdirAll(profileDir, 0o755); err != nil {
			return err
		}
		cpu, err := os.Create(filepath.Join(profileDir, "cpu.pprof"))
		if err != nil {
			return err
		}
		defer cpu.Close()
		if err := pprof.StartCPUProfile(cpu); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	rep, err := hotbench.Run(hotbench.Config{
		BenchTime: benchTime,
		Workers:   workers,
		Tracer:    obs.New(nil),
	})
	if err != nil {
		return err
	}

	if profileDir != "" {
		heap, err := os.Create(filepath.Join(profileDir, "heap.pprof"))
		if err != nil {
			return err
		}
		defer heap.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(heap); err != nil {
			return err
		}
	}

	data, err := rep.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Print(rep.String())
	fmt.Println("report written to", outPath)

	if baselinePath == "" {
		return nil
	}
	baseData, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	base, err := hotbench.DecodeReport(baseData)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	fmt.Print(hotbench.Delta(base, rep))
	if violations := hotbench.Compare(base, rep, nsTol, allocsTol, bytesTol); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "REGRESSION:", v)
		}
		return fmt.Errorf("bench gate failed: %d regression(s) against %s", len(violations), baselinePath)
	}
	fmt.Println("bench gate passed against", baselinePath)
	return nil
}
