package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dexlego/internal/dexgen"
	"dexlego/internal/obs"
	"dexlego/internal/packer"
	"dexlego/internal/pipeline"
)

func TestRunRevealsPackedAPK(t *testing.T) {
	p := dexgen.New()
	cls := p.Class("Lcli/Main;", "Landroid/app/Activity;")
	cls.Ctor("Landroid/app/Activity;", nil)
	cls.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.GetIMEI(0, 1)
		a.LogLeak("cli", 0, 2)
		a.ReturnVoid()
	})
	pkg, err := p.BuildAPK("cli", "1.0", "Lcli/Main;")
	if err != nil {
		t.Fatal(err)
	}
	pk, err := packer.ByName("360")
	if err != nil {
		t.Fatal(err)
	}
	packed, err := pk.Pack(pkg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "packed.apk")
	out := filepath.Join(dir, "revealed.apk")
	data, err := packed.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}
	collectDir := filepath.Join(dir, "collect")
	if err := run([]string{"-apk", in, "-out", out, "-collect", collectDir}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Errorf("revealed apk missing: %v", err)
	}
	entries, err := os.ReadDir(collectDir)
	if err != nil || len(entries) != 5 {
		t.Errorf("collection files = %d (%v), want 5", len(entries), err)
	}
	if err := run([]string{"-apk", in}); err == nil {
		t.Error("missing -out must fail")
	}
}

func buildPackedAPK(t *testing.T, pkg, desc string) []byte {
	t.Helper()
	p := dexgen.New()
	cls := p.Class(desc, "Landroid/app/Activity;")
	cls.Ctor("Landroid/app/Activity;", nil)
	cls.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.GetIMEI(0, 1)
		a.LogLeak(pkg, 0, 2)
		a.ReturnVoid()
	})
	app, err := p.BuildAPK(pkg, "1.0", desc)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := packer.ByName("360")
	if err != nil {
		t.Fatal(err)
	}
	packed, err := pk.Pack(app)
	if err != nil {
		t.Fatal(err)
	}
	data, err := packed.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestRunBatchRevealsCorpus(t *testing.T) {
	dir := t.TempDir()
	var ins []string
	for i, name := range []string{"alpha", "beta", "gamma"} {
		in := filepath.Join(dir, name+".apk")
		desc := "Lbatch/Main" + string(rune('A'+i)) + ";"
		if err := os.WriteFile(in, buildPackedAPK(t, name, desc), 0o644); err != nil {
			t.Fatal(err)
		}
		ins = append(ins, in)
	}
	outDir := filepath.Join(dir, "revealed")
	metrics := filepath.Join(dir, "metrics.json")
	args := append([]string{
		"-batch", "-jobs", "2", "-out", outDir, "-metrics-out", metrics}, ins...)
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alpha", "beta", "gamma"} {
		out := filepath.Join(outDir, name+".revealed.apk")
		if _, err := os.Stat(out); err != nil {
			t.Errorf("revealed apk missing: %v", err)
		}
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var report pipeline.Report
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("metrics report does not parse: %v", err)
	}
	if report.Jobs != 3 || report.Failed != 0 {
		t.Errorf("report jobs/failed = %d/%d, want 3/0", report.Jobs, report.Failed)
	}
	if len(report.Apps) != 3 || report.Apps[0].Name != ins[0] {
		t.Errorf("report apps out of order: %+v", report.Apps)
	}
}

// TestRunSampleWithTrace is the quickstart acceptance path: reveal a
// self-modifying droidbench sample built in memory, stream the trace, and
// check the trace validates with at least one span per executed stage and
// at least one tree fork.
func TestRunSampleWithTrace(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "revealed.apk")
	trace := filepath.Join(dir, "trace.jsonl")
	metrics := filepath.Join(dir, "metrics.json")
	err := run([]string{"-sample", "SelfModifying1", "-out", out,
		"-trace-out", trace, "-metrics-out", metrics, "-log-level", "off"})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := obs.ReadTrace(f)
	if err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	apps := tr.Apps()
	if len(apps) != 1 || apps[0].App != "SelfModifying1" {
		t.Fatalf("trace apps = %+v, want one SelfModifying1", apps)
	}
	for _, stage := range []string{"collection", "reassembly", "verify"} {
		if apps[0].StageNS[stage] <= 0 {
			t.Errorf("stage %s has no span: %+v", stage, apps[0].StageNS)
		}
	}
	forks := 0
	for _, n := range apps[0].ForksByMethod {
		forks += n
	}
	if forks < 1 {
		t.Error("self-modifying sample produced no tree_fork event")
	}
	// The metrics report embeds the same run's obs snapshot and validates.
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pipeline.DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Obs == nil || rep.Obs.EventCount(obs.EventTreeFork) < 1 {
		t.Errorf("report obs snapshot missing forks: %+v", rep.Obs)
	}
	// The trace renders back into a per-app report.
	if err := run([]string{"-trace-report", trace}); err != nil {
		t.Errorf("trace-report failed: %v", err)
	}
	// Unknown samples and corrupt traces fail loudly.
	if err := run([]string{"-sample", "NoSuchSample", "-out", out}); err == nil {
		t.Error("unknown sample must fail")
	}
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte(`{"ev":"warp"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-trace-report", bad}); err == nil {
		t.Error("corrupt trace must be rejected")
	}
	if err := run([]string{"-trace-report"}); err == nil {
		t.Error("trace-report without arguments must fail")
	}
	if err := run([]string{"-log-level", "loud", "-sample", "SelfModifying1", "-out", out}); err == nil {
		t.Error("bad log level must fail")
	}
}

// TestRunBatchWithTrace checks batch tracing: per-job tracers share one
// sink, and the interleaved trace segments back into one app per job.
func TestRunBatchWithTrace(t *testing.T) {
	dir := t.TempDir()
	var ins []string
	for i, name := range []string{"one", "two"} {
		in := filepath.Join(dir, name+".apk")
		desc := "Ltrace/Main" + string(rune('A'+i)) + ";"
		if err := os.WriteFile(in, buildPackedAPK(t, name, desc), 0o644); err != nil {
			t.Fatal(err)
		}
		ins = append(ins, in)
	}
	outDir := filepath.Join(dir, "revealed")
	trace := filepath.Join(dir, "trace.jsonl")
	args := append([]string{
		"-batch", "-jobs", "2", "-out", outDir, "-trace-out", trace, "-log-level", "off"}, ins...)
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := obs.ReadTrace(f)
	if err != nil {
		t.Fatalf("batch trace does not validate: %v", err)
	}
	apps := tr.Apps()
	if len(apps) != 2 {
		t.Fatalf("trace apps = %d, want 2", len(apps))
	}
	for _, a := range apps {
		if a.Count(obs.EventMethodCollected) == 0 || a.StageNS["collection"] <= 0 {
			t.Errorf("app %s trace incomplete: %+v", a.App, a)
		}
	}
}

// TestRunFlightRecorderAndTraceJob exercises the incident tooling in one
// pass: a 1ns SLO forces a flight dump for a healthy reveal, the dump
// validates as a trace whose events all carry the job's content-hash
// trace id, and -trace-report -trace-job filters the main trace to it.
func TestRunFlightRecorderAndTraceJob(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "revealed.apk")
	trace := filepath.Join(dir, "trace.jsonl")
	flightDir := filepath.Join(dir, "flight")
	err := run([]string{"-sample", "SelfModifying1", "-out", out,
		"-trace-out", trace, "-flight-dir", flightDir, "-slo", "1ns", "-log-level", "off"})
	if err != nil {
		t.Fatal(err)
	}
	flight := filepath.Join(flightDir, "SelfModifying1.flight.jsonl")
	f, err := os.Open(flight)
	if err != nil {
		t.Fatalf("slo-violating run wrote no flight recording: %v", err)
	}
	ftr, err := obs.ReadTrace(f)
	f.Close()
	if err != nil {
		t.Fatalf("flight recording does not validate: %v", err)
	}
	ids := ftr.TraceIDs()
	if len(ids) != 1 || ids[0] == "" {
		t.Fatalf("flight recording trace ids = %v, want exactly one non-empty id", ids)
	}
	if n := len(ftr.FilterTrace(ids[0]).Events); n != len(ftr.Events) {
		t.Errorf("only %d of %d flight events carry trace id %s", n, len(ftr.Events), ids[0])
	}
	// The main trace filters down to the same job.
	if err := run([]string{"-trace-report", "-trace-job", ids[0], trace}); err != nil {
		t.Errorf("trace-report -trace-job %s failed: %v", ids[0], err)
	}
	// An unknown job id fails and names the ids that are present.
	err = run([]string{"-trace-report", "-trace-job", "feedfacedead", trace})
	if err == nil || !strings.Contains(err.Error(), ids[0]) {
		t.Errorf("unknown -trace-job error = %v, want list containing %s", err, ids[0])
	}
	// A healthy run under a generous SLO leaves no recording behind.
	calmDir := filepath.Join(dir, "calm")
	err = run([]string{"-sample", "SelfModifying1", "-out", out,
		"-flight-dir", calmDir, "-slo", "10m", "-log-level", "off"})
	if err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(calmDir); len(entries) != 0 {
		t.Errorf("healthy run dumped %d flight recordings, want 0", len(entries))
	}
}

// TestRunBatchFlightDumps checks the batch path arms one ring per job and
// dumps each SLO-violating job separately.
func TestRunBatchFlightDumps(t *testing.T) {
	dir := t.TempDir()
	var ins []string
	for i, name := range []string{"fast", "slow"} {
		in := filepath.Join(dir, name+".apk")
		desc := "Lflight/Main" + string(rune('A'+i)) + ";"
		if err := os.WriteFile(in, buildPackedAPK(t, name, desc), 0o644); err != nil {
			t.Fatal(err)
		}
		ins = append(ins, in)
	}
	outDir := filepath.Join(dir, "revealed")
	flightDir := filepath.Join(dir, "flight")
	args := append([]string{"-batch", "-out", outDir,
		"-flight-dir", flightDir, "-slo", "1ns", "-log-level", "off"}, ins...)
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fast", "slow"} {
		flight := filepath.Join(flightDir, name+".flight.jsonl")
		f, err := os.Open(flight)
		if err != nil {
			t.Errorf("job %s has no flight recording: %v", name, err)
			continue
		}
		ftr, err := obs.ReadTrace(f)
		f.Close()
		if err != nil {
			t.Errorf("job %s flight recording invalid: %v", name, err)
			continue
		}
		if ids := ftr.TraceIDs(); len(ids) != 1 {
			t.Errorf("job %s flight recording has trace ids %v, want exactly one", name, ids)
		}
	}
}

func TestRunBatchIsolatesBadAPK(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.apk")
	if err := os.WriteFile(good, buildPackedAPK(t, "good", "Lbatch/Good;"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.apk")
	if err := os.WriteFile(bad, []byte("not an apk"), 0o644); err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(dir, "revealed")
	// A file that is not even a zip fails upfront, before the batch runs.
	if err := run([]string{"-batch", "-out", outDir, good, bad}); err == nil {
		t.Fatal("corrupt input must fail")
	}
	// Batch mode without inputs or without -out must fail.
	if err := run([]string{"-batch", "-out", outDir}); err == nil {
		t.Error("batch without inputs must fail")
	}
	if err := run([]string{"-batch", good}); err == nil {
		t.Error("batch without -out must fail")
	}
}

func TestParseByteSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"", 0, true},
		{"0", 0, true},
		{"1048576", 1 << 20, true},
		{"512K", 512 << 10, true},
		{"512KB", 512 << 10, true},
		{"512KiB", 512 << 10, true},
		{"512MiB", 512 << 20, true},
		{"2G", 2 << 30, true},
		{"2gib", 2 << 30, true},
		{" 64 MiB ", 64 << 20, true},
		{"-1", 0, false},
		{"12x", 0, false},
		{"MiB", 0, false},
		{"1.5G", 0, false},
		{"9999999999G", 0, false},
	}
	for _, tc := range cases {
		got, err := parseByteSize(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("parseByteSize(%q) error = %v, want ok=%t", tc.in, err, tc.ok)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("parseByteSize(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestBadMemBudgetRejected(t *testing.T) {
	err := run([]string{"-mem-budget", "lots", "-sample", "SelfModifying1", "-out", "x.apk"})
	if err == nil || !strings.Contains(err.Error(), "-mem-budget") {
		t.Fatalf("bad -mem-budget not rejected: %v", err)
	}
}

// TestRunSampleWithMemBudget runs a one-shot reveal through the spill tier
// and streaming writer; the output must be a valid revealed APK exactly as
// without the flag.
func TestRunSampleWithMemBudget(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.apk")
	budgeted := filepath.Join(dir, "budgeted.apk")
	if err := run([]string{"-sample", "SelfModifying1", "-out", plain}); err != nil {
		t.Fatalf("plain run: %v", err)
	}
	if err := run([]string{"-sample", "SelfModifying1", "-out", budgeted, "-mem-budget", "64MiB"}); err != nil {
		t.Fatalf("budgeted run: %v", err)
	}
	a, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(budgeted)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("budgeted reveal differs from plain (%d vs %d bytes)", len(a), len(b))
	}
}
