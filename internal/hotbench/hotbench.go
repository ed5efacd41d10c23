// Package hotbench is the steady-state benchmark harness of the reveal hot
// path: the per-APK pipeline DEX decode → JIT collection → reassembly →
// DEX encode → structural verify that every job of the reveal service pays.
// It measures ns/op, B/op and allocs/op per stage over a pinned corpus and
// emits the machine-readable report (BENCH_8.json) that the CI bench-gate
// compares against the checked-in baseline.
//
// One op is one full pass over the corpus, so numbers are comparable only
// between runs with the identical corpus; Compare refuses to gate across
// corpus changes. Stage spans are attributed through internal/obs when a
// Tracer is supplied, reusing the "stage.<name>" span vocabulary of
// dexlego.Reveal so trace reports group bench and production runs alike.
package hotbench

import (
	"fmt"
	"runtime"
	"time"

	root "dexlego"
	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/bytecode"
	"dexlego/internal/collector"
	"dexlego/internal/coverage"
	"dexlego/internal/dex"
	"dexlego/internal/dexgen"
	"dexlego/internal/droidbench"
	"dexlego/internal/forceexec"
	"dexlego/internal/obs"
	"dexlego/internal/pipeline"
	"dexlego/internal/reassembler"
	"dexlego/internal/store"
	"dexlego/internal/workload"
)

// The stage vocabulary of the report, in hot-path order. StageReveal is the
// end-to-end number the acceptance gate tracks; StageForceExec measures one
// full force-execution campaign over the gate farm at the configured worker
// count, with StageForceExecW1 as the serial reference — their ratio is the
// intra-reveal speedup.
const (
	StageDecode      = "decode"
	StageCollection  = "collection"
	StageReassembly  = "reassembly"
	StageEncode      = "encode"
	StageVerify      = "verify"
	StageReveal      = "reveal"
	StageForceExec   = "forceexec"
	StageForceExecW1 = "forceexec-w1"
	// The incremental pair: StageRevealChain cold-reveals v2 of the
	// generated version chain with force execution; StageRevealIncr reveals
	// the same link against a warm method cache, splicing cached trees for
	// every unchanged method. Their ratio is the incremental speedup the
	// acceptance gate tracks (>= 3x).
	StageRevealChain = "reveal-chain"
	StageRevealIncr  = "reveal-incr"
)

// gateFarmGates sizes the force-execution benchmark body: that many
// independent never-taken branches, each becoming one forced run in the
// campaign's first iteration — an embarrassingly parallel worklist.
const gateFarmGates = 16

// chainMethods sizes the version-chain benchmark app: that many worker
// methods, each with its own never-taken gate, so a cold forced reveal pays
// one forced run per worker while the warm incremental reveal re-executes
// only the single mutated link.
const chainMethods = 32

// app is one prepared corpus entry with every stage input precomputed, so a
// stage benchmark measures exactly that stage.
type app struct {
	sample    *droidbench.Sample
	pkg       *apk.APK
	dexBytes  []byte            // input of decode
	collected *collector.Result // input of reassembly
	file      *dex.File         // input of encode
	encoded   []byte            // input of verify
}

// Config parameterizes a harness run.
type Config struct {
	// BenchTime is the minimum measuring time per stage (default 1s).
	BenchTime time.Duration
	// MinIters is the minimum op count per stage regardless of BenchTime
	// (default 3).
	MinIters int
	// Workers sizes the forced-run pool of the force-execution stages and
	// of the version-chain reveal (0 = GOMAXPROCS, 1 = serial). Reassembly
	// is serial at any setting.
	Workers int
	// Tracer, when set, receives one "stage.<name>" span per measured
	// stage; its snapshot is embedded in the report.
	Tracer *obs.Tracer
}

func (c Config) benchTime() time.Duration {
	if c.BenchTime <= 0 {
		return time.Second
	}
	return c.BenchTime
}

func (c Config) minIters() int {
	if c.MinIters <= 0 {
		return 3
	}
	return c.MinIters
}

// loadCorpus builds the pinned corpus and precomputes every stage input.
func loadCorpus() ([]*app, error) {
	apps := make([]*app, 0, len(droidbench.CorpusNames))
	for _, name := range droidbench.CorpusNames {
		s := droidbench.ByName(name)
		if s == nil {
			return nil, fmt.Errorf("hotbench: corpus sample %q does not exist", name)
		}
		pkg, err := s.Build()
		if err != nil {
			return nil, err
		}
		data, err := pkg.Dex()
		if err != nil {
			return nil, err
		}
		a := &app{sample: s, pkg: pkg, dexBytes: data}
		if a.collected, err = collect(a); err != nil {
			return nil, fmt.Errorf("hotbench: collect %s: %w", name, err)
		}
		f, _, err := reassembler.Reassemble(a.collected)
		if err != nil {
			return nil, fmt.Errorf("hotbench: reassemble %s: %w", name, err)
		}
		a.file = f
		if a.encoded, err = f.Write(); err != nil {
			return nil, fmt.Errorf("hotbench: encode %s: %w", name, err)
		}
		apps = append(apps, a)
	}
	return apps, nil
}

// gateFarm builds the force-execution benchmark app: gateFarmGates
// independent branches the launch never takes, each guarding a short block.
// Every gate is one UCB, so one campaign schedules gateFarmGates forced
// runs in its first iteration.
func gateFarm() (*apk.APK, []*dex.File, error) {
	p := dexgen.New()
	main := p.Class("Lbench/Gates;", "Landroid/app/Activity;")
	main.Ctor("Landroid/app/Activity;", nil)
	main.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		for i := 0; i < gateFarmGates; i++ {
			gate := fmt.Sprintf("gate%d", i)
			after := fmt.Sprintf("after%d", i)
			a.Const(0, 0)
			a.IfZ(bytecode.OpIfNez, 0, gate) // never taken naturally
			a.Goto(after)
			a.Label(gate)
			a.Const(1, int64(i))
			a.Const(2, 3)
			a.Binop(bytecode.OpAddInt, 3, 1, 2)
			a.Label(after)
			a.Nop()
		}
		a.ReturnVoid()
	})
	pkg, err := p.BuildAPK("bench.gates", "1.0", "Lbench/Gates;")
	if err != nil {
		return nil, nil, err
	}
	data, err := pkg.Dex()
	if err != nil {
		return nil, nil, err
	}
	f, err := dex.Read(data)
	if err != nil {
		return nil, nil, err
	}
	return pkg, []*dex.File{f}, nil
}

// chainBench prepares the incremental benchmark: the 1-mutation version
// chain (v1, v2) and a method cache warmed by one incremental reveal of v1.
// Warming is setup, not measurement. After the first measured op v2's own
// fresh methods are resident too, so steady-state ops splice every method —
// the intended hot case of a service revealing successive app versions.
func chainBench(workers int) (*apk.APK, *store.MethodCache, error) {
	chain, err := workload.VersionChain(workload.ChainConfig{
		Methods: chainMethods, Links: 1, Seed: 11,
	})
	if err != nil {
		return nil, nil, err
	}
	mc, err := store.OpenMethodCache("", 0)
	if err != nil {
		return nil, nil, err
	}
	if _, err := root.Reveal(chain[0].APK, root.Options{
		ForceExecution: true,
		Workers:        workers,
		MethodCache:    mc,
	}); err != nil {
		return nil, nil, err
	}
	return chain[1].APK, mc, nil
}

// collect runs one JIT-collection pass (the collection stage body).
func collect(a *app) (*collector.Result, error) {
	col := collector.New()
	rt := art.NewRuntime(art.DefaultPhone())
	a.sample.InstallNatives(rt)
	rt.AddHooks(col.Hooks())
	if err := rt.LoadAPK(a.pkg); err != nil {
		return nil, err
	}
	_ = root.DefaultDriver(rt) // app-level failures do not abort collection
	return col.Result(), nil
}

// measure runs op in a loop for at least benchTime and minIters ops and
// returns per-op wall time and allocation figures. The first call warms
// caches and is not measured, mirroring testing.B steady-state semantics.
func measure(benchTime time.Duration, minIters int, op func() error) (StageBench, error) {
	if err := op(); err != nil {
		return StageBench{}, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	// The accountant's ticker observes live-heap residency while ops run,
	// catching mid-stage balloons the boundary MemStats reads never see.
	acct := pipeline.NewResourceAccountant()
	stopSampling := acct.StartSampling(5 * time.Millisecond)
	start := time.Now()
	n := 0
	for time.Since(start) < benchTime || n < minIters {
		if err := op(); err != nil {
			stopSampling()
			return StageBench{}, err
		}
		n++
	}
	elapsed := time.Since(start)
	stopSampling()
	runtime.ReadMemStats(&after)
	_, heapPeak := acct.Finish()
	return StageBench{
		NsPerOp:       elapsed.Nanoseconds() / int64(n),
		BytesPerOp:    int64(after.TotalAlloc-before.TotalAlloc) / int64(n),
		AllocsPerOp:   int64(after.Mallocs-before.Mallocs) / int64(n),
		Iterations:    n,
		HeapPeakBytes: heapPeak,
	}, nil
}

// forceOp runs one full force-execution campaign over the gate farm — the
// body of the forceexec stages.
func forceOp(pkg *apk.APK, files []*dex.File, workers int) func() error {
	return func() error {
		tracker, err := coverage.NewTracker(files)
		if err != nil {
			return err
		}
		eng := forceexec.New(pkg, files)
		eng.Workers = workers
		eng.Collector = collector.New()
		if _, err := eng.Run(tracker); err != nil {
			return err
		}
		if left := len(tracker.UncoveredBranches()); left != 0 {
			return fmt.Errorf("gate farm left %d UCBs uncovered", left)
		}
		return nil
	}
}

// Run loads the pinned corpus and measures every stage of the hot path.
func Run(cfg Config) (*Report, error) {
	apps, err := loadCorpus()
	if err != nil {
		return nil, err
	}
	gfPkg, gfFiles, err := gateFarm()
	if err != nil {
		return nil, fmt.Errorf("hotbench: gate farm: %w", err)
	}
	chainV2, chainCache, err := chainBench(cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("hotbench: version chain: %w", err)
	}
	rep := &Report{
		Schema:      Schema,
		Corpus:      append([]string(nil), droidbench.CorpusNames...),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Workers:     cfg.Workers,
		BenchTimeNS: int64(cfg.benchTime()),
	}
	tr := cfg.Tracer
	benchRoot := tr.Start("bench", "hotbench")
	defer benchRoot.End()

	stages := []struct {
		name string
		op   func() error
	}{
		{StageDecode, func() error {
			for _, a := range apps {
				if _, err := dex.Read(a.dexBytes); err != nil {
					return err
				}
			}
			return nil
		}},
		{StageCollection, func() error {
			for _, a := range apps {
				if _, err := collect(a); err != nil {
					return err
				}
			}
			return nil
		}},
		{StageReassembly, func() error {
			for _, a := range apps {
				if _, _, err := reassembler.Reassemble(a.collected); err != nil {
					return err
				}
			}
			return nil
		}},
		{StageEncode, func() error {
			for _, a := range apps {
				if _, err := a.file.Write(); err != nil {
					return err
				}
			}
			return nil
		}},
		{StageVerify, func() error {
			for _, a := range apps {
				f, err := dex.ReadShared(a.encoded)
				if err != nil {
					return err
				}
				if errs := dex.Verify(f); len(errs) > 0 {
					return errs[0]
				}
			}
			return nil
		}},
		{StageReveal, func() error {
			for _, a := range apps {
				if _, err := root.Reveal(a.pkg, root.Options{
					Natives: a.sample.Natives(),
					Workers: cfg.Workers,
				}); err != nil {
					return err
				}
			}
			return nil
		}},
		{StageForceExec, forceOp(gfPkg, gfFiles, cfg.Workers)},
		{StageForceExecW1, forceOp(gfPkg, gfFiles, 1)},
		{StageRevealChain, func() error {
			_, err := root.Reveal(chainV2, root.Options{
				ForceExecution: true,
				Workers:        cfg.Workers,
			})
			return err
		}},
		{StageRevealIncr, func() error {
			_, err := root.Reveal(chainV2, root.Options{
				ForceExecution: true,
				Workers:        cfg.Workers,
				MethodCache:    chainCache,
			})
			return err
		}},
	}
	for _, st := range stages {
		sp := benchRoot.Start("stage." + st.name)
		sb, err := measure(cfg.benchTime(), cfg.minIters(), st.op)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("hotbench: stage %s: %w", st.name, err)
		}
		sb.Stage = st.name
		rep.Stages = append(rep.Stages, sb)
	}
	benchRoot.End()
	rep.Obs = tr.Snapshot()
	return rep, nil
}
