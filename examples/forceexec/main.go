// Force execution walkthrough: an application hides a leak behind an
// input check no fuzzer satisfies. The baseline (launch + fuzz) misses it;
// the iterative force-execution module computes a path to each uncovered
// conditional branch, steers the interpreter along it, tolerates the
// exceptions of infeasible paths, and reaches the hidden code — which the
// DexLego collection then reveals.
package main

import (
	"fmt"
	"log"

	root "dexlego"
	"dexlego/internal/apk"
	"dexlego/internal/bytecode"
	"dexlego/internal/coverage"
	"dexlego/internal/dex"
	"dexlego/internal/dexgen"
	"dexlego/internal/forceexec"
	"dexlego/internal/taint"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func buildGatedApp() (*apk.APK, error) {
	p := dexgen.New()
	cls := p.Class("Lgate/Main;", "Landroid/app/Activity;")
	cls.Ctor("Landroid/app/Activity;", nil)
	cls.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.InvokeVirtual("Landroid/app/Activity;", "getIntent",
			"()Landroid/content/Intent;", a.This())
		a.MoveResultObject(0)
		a.ConstString(1, "password")
		a.InvokeVirtual("Landroid/content/Intent;", "getStringExtra",
			"(Ljava/lang/String;)Ljava/lang/String;", 0, 1)
		a.MoveResultObject(2)
		a.IfZ(bytecode.OpIfEqz, 2, "locked") // extra missing: bail
		a.ConstString(3, "hunter2")
		a.InvokeVirtual("Ljava/lang/String;", "equals",
			"(Ljava/lang/Object;)Z", 2, 3)
		a.MoveResult(4)
		a.IfZ(bytecode.OpIfEqz, 4, "locked")
		// The hidden behavior: leak the device ID.
		a.GetIMEI(5, 6)
		a.LogLeak("gated", 5, 6)
		a.Label("locked")
		a.ReturnVoid()
	})
	return p.BuildAPK("com.gate", "1.0", "Lgate/Main;")
}

func run() error {
	pkg, err := buildGatedApp()
	if err != nil {
		return err
	}
	data, err := pkg.Dex()
	if err != nil {
		return err
	}
	f, err := dex.Read(data)
	if err != nil {
		return err
	}
	files := []*dex.File{f}

	// Baseline coverage: launch only. Force execution then iterates from
	// this launch on the same tracker.
	tracker, err := coverage.NewTracker(files)
	if err != nil {
		return err
	}
	eng := forceexec.New(pkg, files)
	if _, err := eng.Baseline(tracker); err != nil {
		return err
	}
	fmt.Printf("baseline coverage: instructions %s, branches %s\n",
		tracker.Report().Instruction, tracker.Report().Branch)
	fmt.Printf("uncovered conditional branches: %d\n", len(tracker.UncoveredBranches()))

	// Force execution.
	stats, err := eng.Run(tracker)
	if err != nil {
		return err
	}
	fmt.Printf("forced coverage:   instructions %s, branches %s\n",
		tracker.Report().Instruction, tracker.Report().Branch)
	fmt.Printf("iterations=%d forced runs=%d skipped=%d paths=%d exceptions cleared=%d\n",
		stats.Iterations, stats.ForcedRuns, stats.RunsSkipped, stats.PathsComputed, stats.ExceptionsCleared)
	for _, p := range stats.Paths {
		fmt.Printf("  path file: %s target pc=%d taken=%v decisions=%v\n",
			p.Method, p.TargetPC, p.Taken, p.Decisions)
	}

	// Full pipeline with force execution, then analyze the revealed DEX.
	res, err := root.Reveal(pkg, root.Options{ForceExecution: true})
	if err != nil {
		return err
	}
	hd, err := taint.Analyze([]*dex.File{res.RevealedDex}, taint.HornDroid())
	if err != nil {
		return err
	}
	fmt.Printf("revealed-apk analysis: %d flow(s) found\n", hd.Count())
	return nil
}
