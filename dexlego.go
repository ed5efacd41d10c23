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
	// Collection is the raw collection result.
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
	col := collector.New()
	res := &Result{Metrics: &pipeline.AppMetrics{}}
	root := opts.Tracer.Start("reveal", opts.TraceLabel)
	defer root.End()
	start := time.Now()
	acct := pipeline.NewResourceAccountant()
	// stage times one pipeline phase and wraps it in a child span; the
	// closure receives the span so each phase can attribute its domain
	// events to the stage that produced them. Each boundary also samples
	// the heap, so every stage carries its allocation bill.
	stage := func(s pipeline.Stage, f func(sp *obs.Span) error) error {
		sp := root.Start("stage." + s.String())
		t0 := time.Now()
		err := f(sp)
		res.Metrics.AddStage(s, time.Since(t0))
		alloc, heapDelta := acct.StageDone()
		res.Metrics.AddStageAlloc(s, alloc)
		sp.ResourceSample(s.String(), alloc, heapDelta)
		sp.End()
		return err
	}

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

	// The incremental path is planned before any execution: fingerprint
	// every method, look each up in the method cache, and build the skip
	// set the collector and force engine honor. A nil plan (incremental
	// off, cache empty, unparsable dex) leaves the full path untouched.
	inc := planIncremental(pkg, opts, root)
	if inc != nil {
		col.SetSkip(inc.skip)
	}

	// runExecution runs the collection, fuzz and force-execution stages
	// against the current collector. It exists as a closure so a skip
	// violation (a cached method whose code was written at runtime) can
	// discard the collector, drop the plan, and run it all again in full —
	// AddStage merges the re-entered stage timings.
	runExecution := func() error {
		if err := stage(pipeline.StageCollection, func(sp *obs.Span) error {
			col.SetSpan(sp)
			return runPlain(driver)
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
		if opts.ForceExecution {
			if err := stage(pipeline.StageForceExec, func(sp *obs.Span) error {
				col.SetSpan(sp)
				data, err := pkg.Dex()
				if err != nil {
					return err
				}
				f, err := dex.Read(data)
				if err != nil {
					return fmt.Errorf("force execution needs a parsable classes.dex: %w", err)
				}
				files := []*dex.File{f}
				tracker, err := coverage.NewTracker(files)
				if err != nil {
					return err
				}
				eng := forceexec.New(pkg, files)
				eng.InstallNatives = func(rt *art.Runtime) { setup(rt) }
				eng.Driver = driver
				eng.Workers = opts.Workers
				// The engine owns the collector for this stage: the baseline run
				// collects directly, forced runs collect into per-run shards
				// merged at each iteration barrier, and the result is
				// canonicalized — byte-identical output at any worker count.
				eng.Collector = col
				eng.Span = sp
				if inc != nil {
					eng.Skip = inc.skip
				}
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
	if inc != nil {
		if v := col.SkipViolations(); len(v) > 0 {
			// A skip-listed method's live code was written at runtime: its
			// cached tree describes a body that no longer exists, so the
			// plan is void. Discard the partial collection and run in full.
			obs.Warnf("incremental: %d skip violation(s) (first %s); falling back to full reveal",
				len(v), v[0])
			col = collector.New()
			inc = nil
			res.Sinks = nil
			if err := runExecution(); err != nil {
				return nil, err
			}
		} else {
			inc.splice(col, res.Metrics, root)
			if opts.ForceExecution {
				// Spliced trees entered after the engine canonicalized;
				// re-impose the history-independent order. Idempotent for
				// everything already sorted.
				col.Result().Canonicalize()
			}
		}
	}

	var revealed *apk.APK
	var stats *reassembler.Stats
	var spill *spillSet
	if err := stage(pipeline.StageReassembly, func(sp *obs.Span) error {
		if opts.CollectDir != "" {
			// The collection files need the full result; write them before
			// any record is displaced.
			if err := col.Result().WriteFiles(opts.CollectDir); err != nil {
				return err
			}
		}
		if opts.SpillCache != nil {
			spill = spillResult(col.Result(), opts.SpillCache, sp)
		}
		var err error
		revealed, stats, err = reassembler.ReassembleAPKCfg(pkg, col.Result(), sp,
			reassembler.Config{
				Workers: opts.Workers,
				Fetch:   spill.fetch,
				Stream:  opts.SpillCache != nil,
			})
		if err != nil {
			return fmt.Errorf("dexlego: reassemble: %w", err)
		}
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
	if inc != nil {
		// Store back only after verify: a record enters the cache only from
		// a reveal whose output round-tripped, in its final (canonical on
		// the force path, execution-order on the plain path) tree order.
		// Spilled records left the result before reassembly, so the spill
		// set stores them back from its retained bytes under the same rules.
		inc.storeBack(col.Result(), opts.MethodCache)
		spill.storeBack(inc, opts.MethodCache)
	}
	res.Revealed = revealed
	res.RevealedDex = parsed
	res.Collection = col.Result()
	res.Stats = stats
	m := res.Metrics
	m.WallNS = int64(time.Since(start))
	// Spilled records are no longer in the result map; their instruction
	// counts were banked at spill time.
	m.ExecutedInsns = res.Collection.ExecutedInstructionCount()
	if spill != nil {
		m.ExecutedInsns += spill.insns
		m.MethodsSpilled = spill.count()
		m.SpilledBytes = spill.bytes
	}
	m.Methods = stats.Methods
	m.ExecutedMethods = stats.ExecutedMethods
	m.Stubs = stats.Stubs
	m.Variants = stats.Variants
	m.Divergences = stats.Divergences
	var cpu int64
	for _, st := range m.Stages {
		cpu += st.CPUNS
	}
	m.Resources = acct.Finish(cpu, m.WallNS)
	// End the root span before snapshotting so its duration lands in the
	// "reveal" histogram; the deferred End is a no-op afterwards.
	root.End()
	m.Obs = opts.Tracer.Snapshot()
	return res, nil
}
