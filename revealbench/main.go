// Command revealbench is the repository benchmark of the DexLego reveal
// system. It runs one of four closed-loop workloads for a fixed time,
// checks every output, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as one JSON object on the last line of
// standard output:
//
//	bash revealbench/run.sh --workload corpus-oneshot --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads, the metrics and the
// layer-to-metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_mean_ms", "ms"},
	{"peak_heap_mib", "MiB"},
}

// perLayer are the metrics of a traced run, reported on every workload; a
// layer the workload never enters reports 0 (see README.md).
var perLayer = []metricDef{
	{"latency.p99_ms", "ms"},
	{"wall.ops_per_s", "1/s"},
	{"wall.latency_p50_ms", "ms"},
	{"wall.setup_s", "s"},
	{"host.speed", "ratio"},
	{"art.load_us", "us"},
	{"art.load_alloc_kib", "KiB"},
	{"art.execute_bare_us", "us"},
	{"art.execute_us", "us"},
	{"art.execute_coverage_us", "us"},
	{"art.execute_both_us", "us"},
	{"collector.hook_us", "us"},
	{"coverage.hook_us", "us"},
	{"coverage.tracker_us", "us"},
	{"coverage.insn_pct", "%"},
	{"coverage.branch_pct", "%"},
	{"forceexec.campaign_ms", "ms"},
	{"forceexec.forced_runs", "count"},
	{"forceexec.iterations", "count"},
	{"forceexec.ms_per_run", "ms"},
	{"forceexec.useful_ratio", "ratio"},
	{"reassembler.reassemble_us", "us"},
	{"reassembler.alloc_kib", "KiB"},
	{"reassembler.methods", "count"},
	{"reassembler.stubs", "count"},
	{"reassembler.variants", "count"},
	{"reassembler.divergences", "count"},
	{"dex.encode_us", "us"},
	{"dex.encode_stream_us", "us"},
	{"dex.verify_us", "us"},
	{"reveal.stage.collection_us", "us"},
	{"reveal.stage.force-execution_us", "us"},
	{"reveal.stage.reassembly_us", "us"},
	{"reveal.stage.verify_us", "us"},
	{"reveal.wall_us", "us"},
	{"reveal.layers_us", "us"},
	{"reveal.residual_pct", "%"},
	{"server.queue_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.http_overhead_ms", "ms"},
	{"server.coalesced", "count"},
	{"server.rejected", "count"},
	{"store.hit_ratio", "ratio"},
	{"served.hit_p50_ms", "ms"},
	{"served.miss_p50_ms", "ms"},
	{"methodcache.hit_ratio", "ratio"},
	{"incremental.methods_cached", "count"},
	{"incremental.methods_executed", "count"},
	{"spill.methods", "count"},
	{"spill.mib", "MiB"},
	{"spillcache.evicted", "count"},
	{"trace.overhead_pct", "%"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// setups is how many times a run sets its workload up.
const setups = 5

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setups is how many times the workload is set up (setups, or 1 in
	// the self-test); setup_s is the median and the last instance is
	// measured.
	setups   int
	traceDir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("revealbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{setups: setups}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured window length in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&cfg.traceDir, "trace-dir", "", "directory receiving the span file of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "revealbench: -trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "revealbench: -seconds must be positive")
		return 2
	}
	res, err := runBenchmark(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "revealbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "revealbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runBenchmark sets the workload up, measures it and assembles the result.
// Informational lines (seed, workload-specific figures) go to out before
// the caller prints the result line.
func runBenchmark(cfg config, out io.Writer) (*result, error) {
	def, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)",
			cfg.workload, strings.Join(workloadNames(), ", "))
	}
	fmt.Fprintf(out, "# revealbench workload=%s seed=%d seconds=%g trace=%t\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace)

	// One P per caller: a P with no caller on it would run the collector's
	// idle-priority workers and spinning threads, which take as much CPU as
	// the host happens to leave free, so the figures would follow the other
	// tenants' load. It also puts the collector's work inside the ops.
	prev := runtime.GOMAXPROCS(def.callers)
	defer runtime.GOMAXPROCS(prev)
	inst, setupS, setupWallS, err := setUp(def, cfg.seed, cfg.seconds, cfg.setups)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	fmt.Fprintf(out, "# setup: scaled=%.4fs wall=%.4fs (medians of %d)\n", setupS, setupWallS, cfg.setups)

	window := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		w := runWindow(inst, def.callers, window, nil)
		extraFailed, err := inst.finish(out)
		if err != nil {
			return nil, err
		}
		m := map[string]float64{
			"setup_s":         setupS,
			"latency_p50_ms":  ms(w.scaledP50()),
			"latency_mean_ms": ms(w.scaledMean()),
			"peak_heap_mib":   float64(w.peakHeap()) / (1 << 20),
		}
		info := inst.info()
		info["latency.p99_ms"] = ms(w.p99())
		info["wall.ops_per_s"] = w.opsPerSecond()
		info["wall.latency_p50_ms"] = ms(w.p50())
		info["wall.setup_s"] = setupWallS
		info["host.speed"] = w.hostSpeed()
		hs := make([]time.Duration, len(w.heap))
		for i, h := range w.heap {
			hs[i] = time.Duration(h.bytes)
		}
		info["heap.p50_mib"] = float64(percentile(hs, 0.5)) / (1 << 20)
		info["heap.p90_mib"] = float64(percentile(hs, 0.9)) / (1 << 20)
		info["heap.p99_mib"] = float64(percentile(hs, 0.99)) / (1 << 20)
		printInfo(out, w, info)
		return assemble(endToEnd, m, w.attempted, w.failed+extraFailed)
	}

	// The traced run: an untraced half-window and a traced half-window
	// give the tracing overhead; the layer replay gives the per-layer split.
	plain := runWindow(inst, def.callers, window/2, nil)
	inst.reset()
	tr := newTracer()
	traced := runWindow(inst, def.callers, window/2, tr)
	m := inst.info()
	lay, err := replayLayers(tr, inst.replayApps())
	if err != nil {
		return nil, err
	}
	for k, v := range lay {
		m[k] = v
	}
	if p := plain.opsPerSecond(); p > 0 {
		m["trace.overhead_pct"] = 100 * (p - traced.opsPerSecond()) / p
	}
	m["latency.p99_ms"] = ms(plain.p99())
	m["wall.ops_per_s"] = plain.opsPerSecond()
	m["wall.latency_p50_ms"] = ms(plain.p50())
	m["wall.setup_s"] = setupWallS
	m["host.speed"] = plain.hostSpeed()
	extraFailed, err := inst.finish(out)
	if err != nil {
		return nil, err
	}
	if cfg.traceDir != "" {
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.writeFile(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "# spans written to %s\n", path)
	}
	printInfo(out, traced, m)
	return assemble(perLayer, m, plain.attempted+traced.attempted,
		plain.failed+traced.failed+extraFailed)
}

// setUp generates the workload's inputs and warms it up n times, keeping
// the last instance. Each set-up is bracketed by probe bursts; it returns
// the median set-up time scaled to the reference host speed (the reported
// set-up time) and the median wall time.
func setUp(def workloadDef, seed int64, seconds float64, n int) (inst instance, scaledS, wallS float64, err error) {
	pr := newProber()
	scaled := make([]float64, 0, n)
	wall := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC() // start every set-up from the same heap state
		before := pr.burst()
		start := time.Now()
		inst, err = def.setup(seed, seconds)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("set up %s: %w", def.name, err)
		}
		d := time.Since(start).Seconds()
		wall = append(wall, d)
		scaled = append(scaled, d*scale(before, pr.burst()))
	}
	sort.Float64s(scaled)
	sort.Float64s(wall)
	return inst, median(scaled), median(wall), nil
}

// assemble builds the result for one metric list: every listed metric must
// be present (missing ones are 0) and finite.
func assemble(defs []metricDef, m map[string]float64, attempted, failed int) (*result, error) {
	if attempted < 1 {
		return nil, errors.New("no operation completed in the measured window")
	}
	res := &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// printInfo writes the human-readable figures of a window plus the
// workload-specific extras, one per line, ahead of the result line.
func printInfo(out io.Writer, w *windowStats, extra map[string]float64) {
	fmt.Fprintf(out, "# ops=%d failed=%d window=%.3fs\n", w.attempted, w.failed, w.elapsed.Seconds())
	if gs := w.groups(); gs != nil {
		fmt.Fprint(out, "# group rates (ops/s):")
		var from time.Duration
		for _, g := range gs {
			to := g[len(g)-1].end
			fmt.Fprintf(out, " %.0f", float64(len(g))/(to-from).Seconds())
			from = to
		}
		fmt.Fprintln(out)
	}
	classes := make([]string, 0, len(w.byClass))
	for c := range w.byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		lat := w.byClass[c]
		fmt.Fprintf(out, "# class %s: n=%d p50=%.4fms p99=%.4fms\n", c, len(lat),
			ms(percentile(lat, 0.5)), ms(percentile(lat, 0.99)))
	}
	keys := make([]string, 0, len(extra))
	for k := range extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "# %s=%.6g\n", k, extra[k])
	}
	for _, e := range w.errs {
		fmt.Fprintf(out, "# failed op: %v\n", e)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of sorted values.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
