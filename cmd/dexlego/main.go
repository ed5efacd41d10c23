// Command dexlego reveals an APK: it executes the application under
// just-in-time collection in the runtime substrate and writes back an APK
// whose classes.dex is the reassembled, analyzable bytecode.
//
// Usage:
//
//	dexlego -apk app.apk -out revealed.apk [-collect dir] [-force] [-fuzz] [-workers n]
//	dexlego -sample SelfModifying1 -out revealed.apk [-trace-out trace.jsonl]
//	dexlego -batch -out dir [-jobs n] [-metrics-out report.json] a.apk b.apk ...
//	dexlego -serve [-addr host:port] [-store-dir dir] [-queue-depth n] [-jobs n]
//	dexlego -serve -fleet-peers http://n2:8080,http://n3:8080 [-fleet-self url] [-fleet-replication r]
//	dexlego -trace-report trace.jsonl ...
//
// In -batch mode every argument is an input APK; the corpus is revealed
// over a bounded worker pool (-jobs, default GOMAXPROCS), each job is
// panic-isolated, and -out names a directory receiving one
// <name>.revealed.apk per input. -metrics-out writes the per-stage batch
// metrics report as JSON (also honored in single-APK mode).
//
// In -serve mode the process runs the reveal-as-a-service HTTP job API
// (internal/server) until SIGTERM: POST /v1/reveal submits an APK (or
// ?sample=Name), GET /v1/jobs/{id} polls, GET /v1/metrics snapshots the
// service, and identical submissions are served from the content-addressed
// artifact store under -store-dir without re-running the reveal. -jobs
// sets the worker pool, -queue-depth the admission bound (full queue =
// HTTP 429). See the README "Service mode" section for curl examples.
//
// -fleet-peers turns the service into one node of a reveal fleet
// (internal/fleet): submissions are placed on a consistent-hash ring over
// all nodes, artifacts are shared over a peer protocol, and each unique
// reveal runs exactly once fleet-wide. Every node lists the others in
// -fleet-peers; -fleet-self overrides the node's own advertised URL when
// it differs from http://<-addr> (e.g. behind 0.0.0.0 binds). See the
// README "Fleet mode" section for a 3-node loopback quickstart.
//
// Observability: -trace-out streams the run's spans and domain events as
// JSONL (schema: internal/obs); -trace-report renders trace files back
// into per-app tables, and -trace-job filters that report down to one
// job's content-hash trace id; -flight-dir arms a per-job flight-recorder
// ring and dumps it as <name>.flight.jsonl when a reveal fails or exceeds
// the -slo latency objective; -log-level sets the stderr log threshold;
// -pprof serves net/http/pprof on the given address for the duration of
// the run. In -serve mode the same -flight-dir/-slo flags feed the
// service's incident plane, and GET /metrics exposes the OpenMetrics
// telemetry (lint it with cmd/omlint).
// -sample builds a named droidbench sample in memory (with its native
// stand-ins installed) instead of reading -apk, which gives a
// self-contained quickstart for exercising the tracer.
//
// The shell native libraries of all five supported packers are installed,
// so packed APKs produced by cmd/packbench unpack transparently.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	root "dexlego"
	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/droidbench"
	"dexlego/internal/obs"
	"dexlego/internal/packer"
	"dexlego/internal/pipeline"
	"dexlego/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dexlego:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dexlego", flag.ContinueOnError)
	apkPath := fs.String("apk", "", "input APK path (single mode)")
	samplePath := fs.String("sample", "", "build the named droidbench sample instead of reading -apk")
	outPath := fs.String("out", "", "output (revealed) APK path; a directory in -batch mode")
	collectDir := fs.String("collect", "", "directory for the five collection files")
	force := fs.Bool("force", false, "enable the force-execution coverage module")
	fuzz := fs.Bool("fuzz", false, "run the input-generation fuzzer during collection")
	seed := fs.Int64("seed", 1, "fuzzer seed")
	batch := fs.Bool("batch", false, "batch mode: reveal every APK argument over a worker pool")
	jobs := fs.Int("jobs", 0, "worker parallelism for -batch and -serve (default GOMAXPROCS)")
	workers := fs.Int("workers", 0, "intra-reveal parallelism: reassembly fan-out and forced-run pool per APK (default GOMAXPROCS; output is byte-identical at any count)")
	metricsOut := fs.String("metrics-out", "", "write the batch metrics report JSON to this file")
	serve := fs.Bool("serve", false, "service mode: run the HTTP reveal job API until SIGTERM")
	incremental := fs.Bool("incremental", false, "incremental reveal: cache per-method collection trees and splice them for unchanged methods (on by default in -serve; -incremental=false disables)")
	memBudget := fs.String("mem-budget", "", "reveal heap-footprint budget, e.g. 512MiB or 2G (empty = unlimited): reveals spill collection records to a cache mid-run and stream the DEX output; in -serve mode admission additionally gates on the budget")
	addr := fs.String("addr", "localhost:8080", "service listen address")
	storeDir := fs.String("store-dir", "", "service artifact store directory (empty = in-memory cache only)")
	queueDepth := fs.Int("queue-depth", 64, "service job queue bound; a full queue answers HTTP 429")
	traceOut := fs.String("trace-out", "", "write the observability trace (JSONL) to this file")
	traceReport := fs.Bool("trace-report", false, "render per-app tables from trace file arguments and exit")
	traceJob := fs.String("trace-job", "", "filter -trace-report output to one job's trace id (a content-hash prefix)")
	flightDir := fs.String("flight-dir", "", "directory receiving one JSONL flight recording per failed or SLO-violating reveal")
	slo := fs.Duration("slo", 0, "per-reveal latency objective; runs exceeding it dump their flight recording (0 = failures only)")
	logLevel := fs.String("log-level", "info", "stderr log threshold: debug, info, warn, error, off")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	fleetPeers := fs.String("fleet-peers", "", "comma-separated base URLs of the other fleet nodes (enables fleet mode; requires -serve)")
	fleetSelf := fs.String("fleet-self", "", "this node's base URL as its peers address it (default http://<-addr>)")
	fleetReplication := fs.Int("fleet-replication", 2, "fleet replica-set size: hot artifacts replicate to this many nodes and 429s escalate within the set")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateFlags(fs, *serve, *jobs, *workers, *queueDepth, *slo, *fleetReplication); err != nil {
		return err
	}
	memBudgetBytes, err := parseByteSize(*memBudget)
	if err != nil {
		return fmt.Errorf("-mem-budget: %w", err)
	}
	lvl, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	obs.SetLogLevel(lvl)
	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof: %w", err)
		}
		defer ln.Close()
		obs.Infof("pprof listening on http://%s/debug/pprof/", ln.Addr())
		go func() { _ = http.Serve(ln, nil) }()
	}
	if *traceReport {
		return runTraceReport(fs.Args(), *traceJob)
	}
	opts := root.Options{
		InstallNatives: func(rt *art.Runtime) {
			for _, pk := range packer.All() {
				pk.InstallNatives(rt)
			}
		},
		Fuzz:           *fuzz,
		FuzzSeed:       *seed,
		ForceExecution: *force,
		Workers:        *workers,
	}
	if *incremental && !*serve {
		// One-shot modes get a memory-only cache: useless for a lone APK,
		// but -batch runs over a version corpus share trees across inputs.
		mc, err := store.OpenMethodCache("", 0)
		if err != nil {
			return err
		}
		opts.MethodCache = mc
	}
	if memBudgetBytes > 0 && !*serve {
		// One-shot and batch modes get the spill tier (records displaced to
		// a memory-bounded cache mid-reveal, streamed DEX output) but no
		// admission gate — gating belongs to the service, where independent
		// submissions contend for one heap.
		sc, err := store.OpenMethodCache("", memBudgetBytes/4)
		if err != nil {
			return err
		}
		opts.SpillCache = sc
	}
	var sink *obs.JSONLSink
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("-trace-out: %w", err)
		}
		defer f.Close()
		sink = obs.NewJSONLSink(f)
	}
	if *serve {
		// Incremental reveal is the service default: a long-lived job API is
		// exactly where version chains of the same app keep arriving. Only an
		// explicit -incremental=false opts out.
		serveIncremental := *incremental || !flagWasSet(fs, "incremental")
		return runServe(serveConfig{
			addr:             *addr,
			storeDir:         *storeDir,
			incremental:      serveIncremental,
			memBudget:        memBudgetBytes,
			queueDepth:       *queueDepth,
			jobs:             *jobs,
			revealWorkers:    *workers,
			sink:             sink,
			flightDir:        *flightDir,
			slo:              *slo,
			fleetPeers:       splitPeers(*fleetPeers),
			fleetSelf:        *fleetSelf,
			fleetReplication: *fleetReplication,
		})
	}
	if *batch {
		return runBatch(fs.Args(), *outPath, *jobs, *metricsOut, sink, *flightDir, *slo, opts)
	}
	var pkg *apk.APK
	label := *apkPath
	switch {
	case *samplePath != "":
		s := droidbench.ByName(*samplePath)
		if s == nil {
			return fmt.Errorf("-sample: unknown droidbench sample %q", *samplePath)
		}
		pkg, err = s.Build()
		if err != nil {
			return err
		}
		opts.Natives = s.Natives()
		label = *samplePath
		obs.Debugf("built sample %s in memory", *samplePath)
	case *apkPath != "":
		pkg, err = readAPK(*apkPath)
		if err != nil {
			return err
		}
	default:
		fs.Usage()
		return fmt.Errorf("-apk (or -sample) and -out are required")
	}
	if *outPath == "" {
		fs.Usage()
		return fmt.Errorf("-apk (or -sample) and -out are required")
	}
	// The flight recorder arms even without -trace-out: its ring is the
	// only place the trace survives for a post-mortem dump in that case.
	var rec *obs.FlightRecorder
	if *flightDir != "" {
		rec = obs.NewFlightRecorder(teeSink(sink), 0)
		opts.Tracer = obs.New(rec)
	} else if sink != nil {
		opts.Tracer = obs.New(sink)
	}
	if opts.Tracer != nil {
		opts.TraceLabel = label
		opts.Tracer.SetTraceID(traceIDForAPK(pkg))
	}
	opts.CollectDir = *collectDir
	runStart := time.Now()
	res, err := root.Reveal(pkg, opts)
	if err != nil {
		if ferr := dumpFlight(rec, *flightDir, label, obs.FlightReasonFailed, opts.Tracer); ferr != nil {
			obs.Warnf("flight dump: %v", ferr)
		}
		return err
	}
	if dur := time.Since(runStart); *slo > 0 && dur > *slo {
		sp := opts.Tracer.Start("slo-check", label)
		sp.SLOViolation(label, dur, *slo)
		sp.End()
		if ferr := dumpFlight(rec, *flightDir, label, obs.FlightReasonSLO, opts.Tracer); ferr != nil {
			obs.Warnf("flight dump: %v", ferr)
		}
	}
	out, err := res.Revealed.Bytes()
	if err != nil {
		return err
	}
	if err := os.WriteFile(*outPath, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("revealed %s -> %s\n", label, *outPath)
	fmt.Printf("  classes: %d  methods: %d (executed %d, stubs %d)\n",
		res.Stats.Classes, res.Stats.Methods, res.Stats.ExecutedMethods, res.Stats.Stubs)
	fmt.Printf("  self-modification layers merged: %d  variants: %d  reflection rewrites: %d\n",
		res.Stats.Divergences, res.Stats.Variants, res.Stats.ReflectionRewrites)
	if res.Coverage != nil {
		fmt.Printf("  coverage: instructions %s, branches %s\n",
			res.Coverage.Instruction, res.Coverage.Branch)
	}
	for _, ev := range res.Sinks {
		if ev.Leaky() {
			fmt.Printf("  runtime leak: %s via %s at %s\n", ev.Taint, ev.Sink, ev.Caller)
		}
	}
	if err := checkSink(sink, opts.Tracer, *traceOut); err != nil {
		return err
	}
	if *metricsOut != "" {
		return writeMetrics(*metricsOut, label, res)
	}
	return nil
}

// checkSink surfaces trace loss after the run: a trace file missing events
// is worse than a failed run that says so, and a non-zero dropped count
// means the written file is silently incomplete even when no write error
// latched.
func checkSink(sink *obs.JSONLSink, tr *obs.Tracer, path string) error {
	if sink != nil {
		if err := sink.Err(); err != nil {
			return fmt.Errorf("trace %s lost %d events: %w", path, tr.Dropped(), err)
		}
	}
	if n := tr.Dropped(); n > 0 {
		return fmt.Errorf("trace %s is incomplete: %d events dropped", path, n)
	}
	if sink != nil {
		obs.Debugf("trace written to %s", path)
	}
	return nil
}

// teeSink converts the optional JSONL sink into a Sink without producing
// a typed-nil interface when -trace-out is unset.
func teeSink(sink *obs.JSONLSink) obs.Sink {
	if sink == nil {
		return nil
	}
	return sink
}

// traceIDForAPK derives the stable trace identity stamped on every event
// of one APK's reveal: a content-hash prefix, so reruns of the same input
// share it and -trace-job can filter them out of any trace file.
func traceIDForAPK(pkg *apk.APK) string {
	h := pkg.ContentHash()
	return fmt.Sprintf("%x", h[:6])
}

// dumpFlight writes rec's ring to dir as a JSONL flight recording and
// announces the dump in the main trace. A nil recorder or empty dir is a
// no-op, so callers invoke it unconditionally on the incident path.
func dumpFlight(rec *obs.FlightRecorder, dir, label, reason string, tr *obs.Tracer) error {
	if rec == nil || dir == "" {
		return nil
	}
	var buf bytes.Buffer
	n, err := rec.Dump(&buf)
	if err != nil {
		return err
	}
	sp := tr.Start("flight", label)
	sp.FlightDump(label, n, reason)
	sp.End()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := strings.TrimSuffix(filepath.Base(label), ".apk") + ".flight.jsonl"
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	obs.Warnf("flight recording (%s, %d events) written to %s", reason, n, path)
	return nil
}

// runTraceReport renders per-app tables from JSONL trace files; a
// non-empty job filters the report down to one job's trace id.
func runTraceReport(paths []string, job string) error {
	if len(paths) == 0 {
		return fmt.Errorf("-trace-report needs at least one trace file argument")
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		tr, err := obs.ReadTrace(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if job != "" {
			filtered := tr.FilterTrace(job)
			if len(filtered.Events) == 0 {
				return fmt.Errorf("%s: no events for job %q; trace ids present: %s",
					path, job, strings.Join(tr.TraceIDs(), ", "))
			}
			fmt.Printf("trace %s: %d of %d events for job %s\n",
				path, len(filtered.Events), len(tr.Events), job)
			fmt.Print(filtered.ReportString())
			continue
		}
		fmt.Printf("trace %s: %d events\n", path, len(tr.Events))
		fmt.Print(tr.ReportString())
	}
	return nil
}

// runBatch reveals every path over the worker pool and writes one
// <name>.revealed.apk per input into outDir. With -flight-dir every job
// carries a flight-recorder ring; failed or SLO-violating jobs dump it.
func runBatch(paths []string, outDir string, workers int, metricsOut string,
	sink *obs.JSONLSink, flightDir string, slo time.Duration, opts root.Options) error {
	if len(paths) == 0 {
		return fmt.Errorf("-batch needs at least one APK argument")
	}
	if outDir == "" {
		return fmt.Errorf("-out directory is required in -batch mode")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	jobs := make([]root.BatchJob, 0, len(paths))
	recs := make([]*obs.FlightRecorder, 0, len(paths))
	tracers := make([]*obs.Tracer, 0, len(paths))
	outNames := make(map[string]string, len(paths))
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".apk") + ".revealed.apk"
		if prev, dup := outNames[name]; dup {
			return fmt.Errorf("%s and %s would both write %s; rename one input",
				prev, path, filepath.Join(outDir, name))
		}
		outNames[name] = path
		pkg, err := readAPK(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		jobOpts := opts
		var rec *obs.FlightRecorder
		if flightDir != "" {
			// One ring per job, all teeing into the shared sink.
			rec = obs.NewFlightRecorder(teeSink(sink), 0)
			jobOpts.Tracer = obs.New(rec)
		} else if sink != nil {
			// One tracer per job (per-app snapshots), one shared sink
			// (interleaved JSONL lines segment by root span on read).
			jobOpts.Tracer = obs.New(sink)
		}
		jobOpts.Tracer.SetTraceID(traceIDForAPK(pkg))
		recs = append(recs, rec)
		tracers = append(tracers, jobOpts.Tracer)
		jobs = append(jobs, root.BatchJob{Name: path, APK: pkg, Options: jobOpts})
	}
	batch := root.RevealBatch(jobs, workers)
	failed := 0
	for i, item := range batch.Items {
		if item.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "dexlego: %s: %v\n", item.Name, item.Err)
			if err := dumpFlight(recs[i], flightDir, item.Name, obs.FlightReasonFailed, tracers[i]); err != nil {
				obs.Warnf("flight dump: %v", err)
			}
			continue
		}
		if slo > 0 && item.Result.Metrics != nil && item.Result.Metrics.Wall() > slo {
			sp := tracers[i].Start("slo-check", item.Name)
			sp.SLOViolation(item.Name, item.Result.Metrics.Wall(), slo)
			sp.End()
			if err := dumpFlight(recs[i], flightDir, item.Name, obs.FlightReasonSLO, tracers[i]); err != nil {
				obs.Warnf("flight dump: %v", err)
			}
		}
		data, err := item.Result.Revealed.Bytes()
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(filepath.Base(item.Name), ".apk") + ".revealed.apk"
		if err := os.WriteFile(filepath.Join(outDir, name), data, 0o644); err != nil {
			return err
		}
	}
	fmt.Print(batch.Report.String())
	if sink != nil {
		if err := sink.Err(); err != nil {
			return fmt.Errorf("trace lost events: %w", err)
		}
	}
	var dropped int64
	for _, tr := range tracers {
		dropped += tr.Dropped()
	}
	if dropped > 0 {
		return fmt.Errorf("trace is incomplete: %d events dropped across jobs", dropped)
	}
	if metricsOut != "" {
		data, err := batch.Report.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(metricsOut, data, 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d jobs failed", failed, len(jobs))
	}
	return nil
}

// writeMetrics writes a one-app report for single mode, reusing the batch
// schema so tooling can parse both.
func writeMetrics(path, apkPath string, res *root.Result) error {
	m := *res.Metrics
	if m.Name == "" {
		m.Name = apkPath
	}
	report := pipeline.BuildReport(1, m.Wall(), []pipeline.AppMetrics{m})
	data, err := report.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// flagWasSet reports whether the named flag appeared explicitly on the
// command line, distinguishing a default from a deliberate choice.
func flagWasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// validateFlags rejects contradictory invocations before any work runs.
// -jobs defaults to 0 (= GOMAXPROCS) when unset, but an explicit -jobs
// below 1 is a typo'd pool size, not a request for the default. -serve is
// a long-running mode, so combining it with any one-shot input or output
// flag silently ignoring one of them would be worse than an error.
func validateFlags(fs *flag.FlagSet, serve bool, jobs, workers, queueDepth int, slo time.Duration, fleetReplication int) error {
	explicit := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	for _, name := range []string{"fleet-peers", "fleet-self", "fleet-replication"} {
		if explicit[name] && !serve {
			return fmt.Errorf("-%s configures fleet mode and requires -serve", name)
		}
	}
	if (explicit["fleet-self"] || explicit["fleet-replication"]) && !explicit["fleet-peers"] {
		return fmt.Errorf("fleet flags do nothing without -fleet-peers")
	}
	if explicit["fleet-replication"] && fleetReplication < 1 {
		return fmt.Errorf("-fleet-replication must be at least 1 (got %d)", fleetReplication)
	}
	if explicit["jobs"] && jobs < 1 {
		return fmt.Errorf("-jobs must be at least 1 (got %d); omit it for GOMAXPROCS", jobs)
	}
	if explicit["workers"] && workers < 1 {
		return fmt.Errorf("-workers must be at least 1 (got %d); omit it for GOMAXPROCS", workers)
	}
	if slo < 0 {
		return fmt.Errorf("-slo must be non-negative (got %v)", slo)
	}
	if explicit["trace-job"] && !explicit["trace-report"] {
		return fmt.Errorf("-trace-job filters -trace-report output and does nothing without it")
	}
	if !serve {
		return nil
	}
	if queueDepth < 1 {
		return fmt.Errorf("-queue-depth must be at least 1 (got %d)", queueDepth)
	}
	oneShot := []string{"apk", "sample", "batch", "out", "collect", "metrics-out", "trace-report", "trace-job"}
	for _, name := range oneShot {
		if explicit[name] {
			return fmt.Errorf("-serve runs a long-lived service and cannot be combined with -%s; drop one of them", name)
		}
	}
	return nil
}

// parseByteSize parses a human byte size: a non-negative integer with an
// optional binary-scale suffix (K/M/G, KB/MB/GB, KiB/MiB/GiB — all 1024
// multiples, case-insensitive). "" parses to 0, the unlimited default.
func parseByteSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	upper := strings.ToUpper(s)
	shift := 0
	for _, suf := range []struct {
		text  string
		shift int
	}{
		{"KIB", 10}, {"MIB", 20}, {"GIB", 30},
		{"KB", 10}, {"MB", 20}, {"GB", 30},
		{"K", 10}, {"M", 20}, {"G", 30},
	} {
		if strings.HasSuffix(upper, suf.text) {
			upper = strings.TrimSuffix(upper, suf.text)
			shift = suf.shift
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(upper), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad byte size %q (want e.g. 512MiB, 2G, 1048576)", s)
	}
	if shift > 0 && n > (1<<62)>>shift {
		return 0, fmt.Errorf("byte size %q overflows", s)
	}
	return n << shift, nil
}

// splitPeers parses the -fleet-peers list, dropping empty segments so a
// trailing comma is harmless.
func splitPeers(raw string) []string {
	if raw == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(raw, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, strings.TrimRight(p, "/"))
		}
	}
	return out
}

func readAPK(path string) (*apk.APK, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return apk.Read(data)
}
