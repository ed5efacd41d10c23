package main

import (
	"fmt"
	"io"
	"time"

	"dexlego"
	"dexlego/internal/art"
	"dexlego/internal/collector"
	"dexlego/internal/coverage"
	"dexlego/internal/dex"
	"dexlego/internal/forceexec"
	"dexlego/internal/pipeline"
	"dexlego/internal/reassembler"
)

// The layer replay of a traced run. For each replayed app it first runs
// the app's own end-to-end Reveal, then calls each layer's public
// functions in turn, each inside a span of the benchmark's trace:
//
//	art.load          art.NewRuntime + natives + hooks + LoadAPK
//	art.execute.*     dexlego.DefaultDriver, four ways: bare, +collector,
//	                  +coverage, +both (the Fig. 6 / Table VIII split)
//	coverage.tracker  coverage.NewTracker + Report
//	forceexec         forceexec.Engine.Run (with a collector)
//	reassembler       reassembler.ReassembleCfg
//	dex.encode        dex.File.Write; dex.encode_stream: WriteStream
//	dex.verify        dex.ReadShared + dex.Verify
//
// The reconcile block compares the Reveal walls with the sum of the layer
// calls the same reveal makes: load and execute (+collector), the forced
// campaign when the workload forces, reassembly, encode and verify.

// hookWay is one of the four instrumentation set-ups of a launch.
type hookWay struct {
	name     string
	col, cov bool
}

var hookWays = []hookWay{
	{"bare", false, false},
	{"collector", true, false},
	{"coverage", false, true},
	{"both", true, true},
}

// layerSums accumulates the replay over all apps.
type layerSums struct {
	apps                                  int
	load, loadAlloc                       float64 // us, KiB (collector way)
	exec                                  map[string]float64
	tracker                               float64
	campaign                              time.Duration
	forcedRuns, iterations                int
	newBranches                           int
	insnCov, insnTot, brCov, brTot        int
	reassemble, reassembleAlloc           float64
	methods, stubs, variants, divergences int
	encode, stream, verify                float64
	stages                                map[pipeline.Stage]time.Duration
	revealWall, layers                    time.Duration
}

// replayLayers replays every app and returns the per-layer metrics.
func replayLayers(tr *tracer, apps []*app) (map[string]float64, error) {
	s := &layerSums{exec: make(map[string]float64), stages: make(map[pipeline.Stage]time.Duration)}
	root := tr.begin(0, "replay", "")
	defer tr.end(root)
	for _, a := range apps {
		if err := replayApp(tr, root, a, s); err != nil {
			return nil, fmt.Errorf("replay %s: %w", a.name, err)
		}
	}
	if s.apps == 0 {
		return nil, fmt.Errorf("replay: no app to replay")
	}
	n := float64(s.apps)
	m := map[string]float64{
		"art.load_us":               s.load / n,
		"art.load_alloc_kib":        s.loadAlloc / n,
		"art.execute_bare_us":       s.exec["bare"] / n,
		"art.execute_us":            s.exec["collector"] / n,
		"art.execute_coverage_us":   s.exec["coverage"] / n,
		"art.execute_both_us":       s.exec["both"] / n,
		"collector.hook_us":         (s.exec["collector"] - s.exec["bare"]) / n,
		"coverage.hook_us":          (s.exec["coverage"] - s.exec["bare"]) / n,
		"coverage.tracker_us":       s.tracker / n,
		"coverage.insn_pct":         pct(s.insnCov, s.insnTot),
		"coverage.branch_pct":       pct(s.brCov, s.brTot),
		"forceexec.campaign_ms":     ms(s.campaign) / n,
		"forceexec.forced_runs":     float64(s.forcedRuns) / n,
		"forceexec.iterations":      float64(s.iterations) / n,
		"reassembler.reassemble_us": s.reassemble / n,
		"reassembler.alloc_kib":     s.reassembleAlloc / n,
		"reassembler.methods":       float64(s.methods) / n,
		"reassembler.stubs":         float64(s.stubs) / n,
		"reassembler.variants":      float64(s.variants) / n,
		"reassembler.divergences":   float64(s.divergences) / n,
		"dex.encode_us":             s.encode / n,
		"dex.encode_stream_us":      s.stream / n,
		"dex.verify_us":             s.verify / n,
		"reveal.wall_us":            us(s.revealWall) / n,
		"reveal.layers_us":          us(s.layers) / n,
	}
	if s.forcedRuns > 0 {
		m["forceexec.ms_per_run"] = ms(s.campaign) / float64(s.forcedRuns)
		m["forceexec.useful_ratio"] = float64(s.newBranches) / float64(s.forcedRuns)
	}
	for _, st := range []pipeline.Stage{pipeline.StageCollection, pipeline.StageForceExec,
		pipeline.StageReassembly, pipeline.StageVerify} {
		m["reveal.stage."+st.String()+"_us"] = us(s.stages[st]) / n
	}
	if s.revealWall > 0 {
		m["reveal.residual_pct"] = 100 * float64(s.revealWall-s.layers) / float64(s.revealWall)
	}
	return m, nil
}

func pct(covered, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(covered) / float64(total)
}

// allocKiB returns the heap bytes allocated since before, in KiB.
func allocKiB(before pipeline.MemSample) float64 {
	return float64(pipeline.ReadMemSample().AllocBytes-before.AllocBytes) / 1024
}

func replayApp(tr *tracer, parent int64, a *app, s *layerSums) error {
	opts := a.opts()
	appSpan := tr.begin(parent, "app", a.name)
	defer tr.end(appSpan)
	setup := func(rt *art.Runtime) {
		for key, fn := range opts.Natives {
			rt.RegisterNative(key, fn)
		}
		if opts.InstallNatives != nil {
			opts.InstallNatives(rt)
		}
	}

	// The end-to-end reveal the layer calls reconcile against.
	var res *dexlego.Result
	var err error
	wall := tr.time(appSpan, "dexlego.Reveal", a.name, func() { res, err = dexlego.Reveal(a.pkg, opts) })
	if err != nil {
		return err
	}
	for _, st := range res.Metrics.Stages {
		s.stages[st.Stage] += st.Wall()
	}

	data, err := a.pkg.Dex()
	if err != nil {
		return err
	}
	f, err := dex.Read(data)
	if err != nil {
		return err
	}
	files := []*dex.File{f}

	// The launch four ways; the collector way is the collection stage.
	var collected *collector.Result
	var loadD, execD time.Duration
	baseBranches := 0
	for _, w := range hookWays {
		var col *collector.Collector
		var trk *coverage.Tracker
		if w.cov {
			var err error
			d := tr.time(appSpan, "coverage.tracker", w.name, func() { trk, err = coverage.NewTracker(files) })
			if err != nil {
				return err
			}
			s.tracker += us(d) / 2 // two of the four ways build a tracker
		}
		var rt *art.Runtime
		before := pipeline.ReadMemSample()
		ld := tr.time(appSpan, "art.load", w.name, func() {
			rt = art.NewRuntime(art.DefaultPhone())
			setup(rt)
			if w.col {
				col = collector.New()
				rt.AddHooks(col.Hooks())
			}
			if trk != nil {
				rt.AddHooks(trk.Hooks())
			}
			err = rt.LoadAPK(a.pkg)
		})
		if err != nil {
			return err
		}
		ed := tr.time(appSpan, "art.execute", w.name, func() {
			_ = dexlego.DefaultDriver(rt) // app-level crashes do not abort collection
		})
		s.exec[w.name] += us(ed)
		if w.name == "collector" {
			s.load += us(ld)
			s.loadAlloc += allocKiB(before)
			loadD, execD = ld, ed
			collected = col.Result()
		}
		if w.name == "coverage" {
			baseBranches = trk.Report().Branch.Covered
		}
	}

	// The forced campaign over the same app.
	trk, err := coverage.NewTracker(files)
	if err != nil {
		return err
	}
	eng := forceexec.New(a.pkg, files)
	eng.InstallNatives = setup
	eng.Driver = dexlego.DefaultDriver
	eng.Workers = opts.Workers
	eng.Collector = collector.New()
	var stats *forceexec.Stats
	campaign := tr.time(appSpan, "forceexec.Engine.Run", a.name, func() { stats, err = eng.Run(trk) })
	if err != nil {
		return err
	}
	var rep coverage.Report
	s.tracker += us(tr.time(appSpan, "coverage.report", a.name, func() { rep = trk.Report() }))
	s.campaign += campaign
	s.forcedRuns += stats.ForcedRuns
	s.iterations += stats.Iterations
	if d := rep.Branch.Covered - baseBranches; d > 0 {
		s.newBranches += d
	}
	s.insnCov += rep.Instruction.Covered
	s.insnTot += rep.Instruction.Total
	s.brCov += rep.Branch.Covered
	s.brTot += rep.Branch.Total
	layers := loadD + execD
	if opts.ForceExecution {
		collected = eng.Collector.Result()
		layers += campaign
	}

	// Reassembly, encode (buffered and streamed) and verify.
	var out *dex.File
	var rstats *reassembler.Stats
	before := pipeline.ReadMemSample()
	rd := tr.time(appSpan, "reassembler.ReassembleCfg", a.name, func() {
		out, rstats, err = reassembler.ReassembleCfg(collected, nil, reassembler.Config{Workers: opts.Workers})
	})
	if err != nil {
		return err
	}
	s.reassembleAlloc += allocKiB(before)
	s.reassemble += us(rd)
	s.methods += rstats.Methods
	s.stubs += rstats.Stubs
	s.variants += rstats.Variants
	s.divergences += rstats.Divergences
	var encoded []byte
	ed := tr.time(appSpan, "dex.File.Write", a.name, func() { encoded, err = out.Write() })
	if err != nil {
		return err
	}
	s.encode += us(ed)
	s.stream += us(tr.time(appSpan, "dex.File.WriteStream", a.name, func() {
		_, err = out.WriteStream(io.Discard)
	}))
	if err != nil {
		return err
	}
	var defects []error
	vd := tr.time(appSpan, "dex.Verify", a.name, func() {
		var parsed *dex.File
		if parsed, err = dex.ReadShared(encoded); err == nil {
			defects = dex.Verify(parsed)
		}
	})
	if err != nil {
		return err
	}
	if len(defects) > 0 {
		return fmt.Errorf("replayed reassembly has %d defects, first: %w", len(defects), defects[0])
	}
	s.verify += us(vd)

	s.revealWall += wall
	s.layers += layers + rd + ed + vd
	s.apps++
	return nil
}
