// Package dexlego is a reproduction of DexLego (Ning & Zhang, DSN 2018):
// reassembleable bytecode extraction for aiding static analysis of Android
// applications.
//
// The pipeline mirrors Fig. 1 of the paper: the target APK is executed in an
// instrumented Android Runtime substrate where just-in-time collection
// extracts every executed instruction (at dex_pc granularity, surviving
// packing and self-modifying code) together with the DEX metadata used by
// the class linker; an optional force-execution module improves code
// coverage; and the collected pieces are reassembled offline into a new,
// valid DEX file that replaces classes.dex in the original APK. The
// revealed APK is then suitable for any static analysis tool.
//
//	result, err := dexlego.Reveal(pkg, dexlego.Options{})
//	...
//	flows, _ := taint.Analyze([]*dex.File{result.RevealedDex}, taint.HornDroid())
package dexlego

import (
	"fmt"
	"time"

	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/collector"
	"dexlego/internal/coverage"
	"dexlego/internal/dex"
	"dexlego/internal/forceexec"
	"dexlego/internal/fuzzer"
	"dexlego/internal/obs"
	"dexlego/internal/pipeline"
	"dexlego/internal/reassembler"
	"dexlego/internal/store"
)

// Options configures a Reveal run.
type Options struct {
	// Device is the execution environment; the default is the paper's
	// Nexus 5X phone.
	Device *art.Device

	// Natives registers JNI stand-ins by method key (self-modifying
	// samples' tamper functions and similar).
	Natives map[string]art.NativeFunc

	// InstallNatives registers packer shell libraries with the runtime.
	InstallNatives func(*art.Runtime)

	// Driver runs the app during collection. The default launches the main
	// activity and clicks every registered click listener.
	Driver func(*art.Runtime) error

	// Fuzz additionally runs the Sapienz-style fuzzer as the input
	// generation stage of the code coverage improvement module.
	Fuzz bool
	// FuzzSeed seeds the fuzzer deterministically.
	FuzzSeed int64

	// ForceExecution enables the iterative force-execution module on top of
	// the driver, steering uncovered conditional branches.
	ForceExecution bool

	// CollectDir, when set, receives the five collection files.
	CollectDir string

	// Workers bounds the intra-reveal parallel fan-out: the reassembly
	// stage (method assembly and index remapping) and, when ForceExecution
	// is on, the per-iteration forced-run pool. 0 selects GOMAXPROCS, 1
	// forces the serial path. Output is byte-identical at any worker count.
	Workers int

	// Tracer, when set, records hierarchical spans and domain events for
	// this run (see internal/obs). Each Reveal call must own its Tracer —
	// concurrent jobs share a Sink, not a Tracer — so the tracer's
	// Snapshot stays per-app. Nil disables tracing at a pointer check per
	// event.
	Tracer *obs.Tracer
	// TraceLabel names the run in the trace (the root span's app label);
	// RevealBatch defaults it to the job name.
	TraceLabel string

	// MethodCache, when set, enables the incremental path: methods whose
	// body fingerprint (MethodFingerprints) resolves to a cached tree here
	// are skipped during execution and their trees spliced into the result,
	// producing byte-identical output to the full path; fresh records are
	// stored back after verify. It is excluded from Options.Fingerprint:
	// the incremental path is an execution strategy, not an output
	// parameter. Safe to share across concurrent Reveal calls.
	MethodCache *store.MethodCache

	// SpillCache, when set, enables the memory-budgeted output path: after
	// collection, completed method records are displaced from the live
	// result into this cache as flat bytes and re-inflated one class at a
	// time during reassembly, and the DEX image is emitted through the
	// section-streaming writer. Output stays byte-identical to the
	// all-resident path (pinned by TestWhaleSpillByteIdentity). Like the
	// method cache this is an execution strategy, not an output
	// parameter, so it is excluded from Options.Fingerprint. Safe to share
	// across concurrent Reveal calls.
	SpillCache *store.MethodCache
}

// Result is the outcome of a Reveal run.
type Result struct {
	// Revealed is the original APK with classes.dex replaced by the
	// reassembled DEX.
	Revealed *apk.APK
	// RevealedDex is the parsed reassembled DEX.
	RevealedDex *dex.File
	// Collection is the raw collection result. With Options.SpillCache set,
	// the records spilled during reassembly are absent from it.
	Collection *collector.Result
	// Stats summarizes the reassembly.
	Stats *reassembler.Stats
	// Sinks are the sink events observed while executing the app.
	Sinks []art.SinkEvent
	// Coverage reports the achieved coverage (force-execution runs only).
	Coverage *coverage.Report
	// Metrics holds per-stage wall times and the collection/reassembly
	// counters of this run (always populated).
	Metrics *pipeline.AppMetrics
}

// DefaultDriver drives the launch lifecycle, clicks every registered
// listener once, and finishes the activity (running the teardown
// lifecycle).
func DefaultDriver(rt *art.Runtime) error {
	activity, err := rt.LaunchActivity()
	if err != nil {
		return err
	}
	for _, id := range rt.Clickables() {
		if err := rt.PerformClick(id); err != nil {
			return err
		}
	}
	return rt.FinishActivity(activity)
}

// Reveal executes the application under JIT collection and reassembles the
// revealed APK.
//
// Each call owns its collector and runtimes, so independent Reveal calls
// are safe to run concurrently — RevealBatch builds on this.
func Reveal(pkg *apk.APK, opts Options) (*Result, error) {
	device := art.DefaultPhone()
	if opts.Device != nil {
		device = *opts.Device
	}
	driver := opts.Driver
	if driver == nil {
		driver = DefaultDriver
	}
	res := &Result{Metrics: &pipeline.AppMetrics{}}
	root := opts.Tracer.Start("reveal", opts.TraceLabel)
	defer root.End()
	start := time.Now()
	acct := pipeline.NewResourceAccountant()
	// stage times one pipeline phase and wraps it in a child span; the
	// closure receives the span so each phase can attribute its domain
	// events to the stage that produced them. Each boundary also folds a
	// heap reading into the run's peak.
	stage := func(s pipeline.Stage, f func(sp *obs.Span) error) error {
		sp := root.Start("stage." + s.String())
		t0 := time.Now()
		err := f(sp)
		res.Metrics.AddStage(s, time.Since(t0))
		acct.SampleNow()
		sp.End()
		return err
	}

	// The plan is computed before any execution: with a method cache it
	// fingerprints every method, looks each up, and builds the skip list
	// the collector — and through it the force engine — honors. That work
	// is the plan stage; without a cache there is nothing to plan.
	var p *plan
	if opts.MethodCache == nil {
		p = newPlan(pkg, opts, nil)
	} else {
		_ = stage(pipeline.StagePlan, func(sp *obs.Span) error {
			p = newPlan(pkg, opts, sp)
			return nil
		})
	}
	col := p.newCollector()

	setup := func(rt *art.Runtime) {
		for key, fn := range opts.Natives {
			rt.RegisterNative(key, fn)
		}
		if opts.InstallNatives != nil {
			opts.InstallNatives(rt)
		}
	}

	runPlain := func(dr func(*art.Runtime) error) error {
		rt := art.NewRuntime(device)
		setup(rt)
		rt.AddHooks(col.Hooks())
		if err := rt.LoadAPK(pkg); err != nil {
			return err
		}
		_ = dr(rt) // app-level crashes do not abort collection
		res.Sinks = append(res.Sinks, rt.Sinks()...)
		return nil
	}

	// runExecution runs the collection, fuzz and force-execution stages
	// against the current collector. It exists as a closure so a voided
	// plan (a cached method whose code was written at runtime) can discard
	// the collector and run it all again in full — AddStage merges the
	// re-entered stage timings. With force execution on, the collection
	// launch is the campaign's baseline, so the app's plain execution runs
	// once.
	runExecution := func() error {
		var eng *forceexec.Engine
		var tracker *coverage.Tracker
		if err := stage(pipeline.StageCollection, func(sp *obs.Span) error {
			col.SetSpan(sp)
			if !opts.ForceExecution {
				return runPlain(driver)
			}
			// The package's cached parse, which the runtime links too.
			f, err := pkg.DexFile()
			if err != nil {
				return fmt.Errorf("force execution needs a parsable classes.dex: %w", err)
			}
			files := []*dex.File{f}
			if tracker, err = coverage.NewTracker(files); err != nil {
				return err
			}
			eng = forceexec.New(pkg, files)
			eng.InstallNatives = setup
			eng.Driver = driver
			eng.Device = opts.Device
			eng.Workers = opts.Workers
			// The engine owns the collector from here on: the baseline
			// collects directly, forced runs collect into per-run shards
			// merged at each iteration barrier, and the result is
			// canonicalized — byte-identical output at any worker count.
			eng.Collector = col
			sinks, err := eng.Baseline(tracker)
			res.Sinks = append(res.Sinks, sinks...)
			return err
		}); err != nil {
			return fmt.Errorf("dexlego: collection run: %w", err)
		}
		if opts.Fuzz {
			if err := stage(pipeline.StageFuzz, func(sp *obs.Span) error {
				col.SetSpan(sp)
				fz := fuzzer.New(opts.FuzzSeed)
				return runPlain(func(rt *art.Runtime) error {
					return fz.Drive(rt, nil)
				})
			}); err != nil {
				return fmt.Errorf("dexlego: fuzzing run: %w", err)
			}
		}
		if eng != nil {
			if err := stage(pipeline.StageForceExec, func(sp *obs.Span) error {
				col.SetSpan(sp)
				eng.Span = sp
				stats, err := eng.Run(tracker)
				if err != nil {
					return fmt.Errorf("force execution: %w", err)
				}
				res.Metrics.AddStageCPU(pipeline.StageForceExec, time.Duration(stats.BusyNS))
				rep := tracker.Report()
				res.Coverage = &rep
				return nil
			}); err != nil {
				return fmt.Errorf("dexlego: %w", err)
			}
		}
		return nil
	}
	if err := runExecution(); err != nil {
		return nil, err
	}
	if p.voided(col) {
		// Discard the partial collection, sinks included, and run in full.
		col = p.newCollector()
		res.Sinks = nil
		if err := runExecution(); err != nil {
			return nil, err
		}
	}
	p.splice(col, res.Metrics, root)

	var revealed *apk.APK
	var stats *reassembler.Stats
	if err := stage(pipeline.StageReassembly, func(sp *obs.Span) error {
		if opts.CollectDir != "" {
			// The collection files need the full result; write them before
			// any record is spilled.
			if err := col.Result().WriteFiles(opts.CollectDir); err != nil {
				return err
			}
		}
		p.spill(col.Result(), sp)
		f, st, err := reassembler.ReassembleCfg(col.Result(), sp,
			reassembler.Config{Workers: opts.Workers, Fetch: p.fetch})
		if err != nil {
			return fmt.Errorf("dexlego: reassemble: %w", err)
		}
		data, err := p.encode(f)
		if err != nil {
			return fmt.Errorf("dexlego: reassemble: %w", err)
		}
		revealed, stats = pkg.Clone(), st
		revealed.SetDex(data)
		return nil
	}); err != nil {
		return nil, err
	}
	var parsed *dex.File
	if err := stage(pipeline.StageVerify, func(sp *obs.Span) error {
		data, err := revealed.Dex()
		if err != nil {
			return err
		}
		// Zero-copy parse: revealed.Dex() returns a fresh buffer that nothing
		// else mutates, so the parsed File may alias it.
		parsed, err = dex.ReadShared(data)
		if err != nil {
			return fmt.Errorf("dexlego: revealed dex did not re-parse: %w", err)
		}
		if errs := dex.Verify(parsed); len(errs) > 0 {
			if sp.Enabled() {
				for _, e := range errs {
					sp.VerifyDefect(e.Error())
				}
			}
			return fmt.Errorf("dexlego: revealed dex has %d structural defects, first: %w",
				len(errs), errs[0])
		}
		return nil
	}); err != nil {
		return nil, err
	}
	// Store back only after verify: a record enters the cache only from a
	// reveal whose output round-tripped, in its final (canonical on the
	// force path, execution-order on the plain path) tree order.
	p.storeBack(col.Result())
	res.Revealed = revealed
	res.RevealedDex = parsed
	res.Collection = col.Result()
	res.Stats = stats
	m := res.Metrics
	m.WallNS = int64(time.Since(start))
	m.ExecutedInsns = res.Collection.ExecutedInstructionCount()
	p.addMetrics(m)
	m.Methods = stats.Methods
	m.ExecutedMethods = stats.ExecutedMethods
	m.Stubs = stats.Stubs
	m.Variants = stats.Variants
	m.Divergences = stats.Divergences
	m.AllocBytes, m.HeapPeakBytes = acct.Finish()
	// End the root span before snapshotting so its duration lands in the
	// "reveal" histogram; the deferred End is a no-op afterwards.
	root.End()
	m.Obs = opts.Tracer.Snapshot()
	return res, nil
}
