package forceexec_test

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"dexlego/internal/apk"
	"dexlego/internal/bytecode"
	"dexlego/internal/collector"
	"dexlego/internal/coverage"
	"dexlego/internal/dex"
	"dexlego/internal/dexgen"
	"dexlego/internal/forceexec"
)

// buildGatedApp has three gates the default launch never opens: a branch on
// a constant, a nested branch behind it, and a branch that throws when
// forced.
func buildGatedApp(t *testing.T) (*apk.APK, []*dex.File) {
	t.Helper()
	p := dexgen.New()
	main := p.Class("Lfx/Main;", "Landroid/app/Activity;")
	main.Ctor("Landroid/app/Activity;", nil)
	main.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.Const(0, 0)
		a.IfZ(bytecode.OpIfNez, 0, "gate1") // never taken naturally
		a.Const(1, 1)
		a.ReturnVoid()
		a.Label("gate1")
		a.Const(2, 0)
		a.IfZ(bytecode.OpIfNez, 2, "gate2") // nested gate
		a.Const(1, 2)
		a.ReturnVoid()
		a.Label("gate2")
		// Forced control flow lands here with v3 unset: division by zero.
		a.Const(3, 0)
		a.Const(4, 10)
		a.Binop(bytecode.OpDivInt, 5, 4, 3)
		a.Const(1, 3)
		a.ReturnVoid()
	})
	pkg, err := p.BuildAPK("fx", "1.0", "Lfx/Main;")
	if err != nil {
		t.Fatal(err)
	}
	data, err := pkg.Dex()
	if err != nil {
		t.Fatal(err)
	}
	f, err := dex.Read(data)
	if err != nil {
		t.Fatal(err)
	}
	return pkg, []*dex.File{f}
}

func TestForceExecutionReachesGatedCode(t *testing.T) {
	pkg, files := buildGatedApp(t)
	tracker, err := coverage.NewTracker(files)
	if err != nil {
		t.Fatal(err)
	}
	eng := forceexec.New(pkg, files)
	stats, err := eng.Run(tracker)
	if err != nil {
		t.Fatal(err)
	}
	rep := tracker.Report()
	if rep.Instruction.Percent() < 95 {
		t.Errorf("instruction coverage = %v, want ~100%%", rep.Instruction)
	}
	if rep.Branch.Percent() < 95 {
		t.Errorf("branch coverage = %v, want ~100%%", rep.Branch)
	}
	if stats.ForcedRuns == 0 {
		t.Error("no forced runs happened")
	}
	if stats.ExceptionsCleared == 0 {
		t.Error("the division-by-zero on the infeasible path should have been cleared")
	}
	if len(stats.Paths) == 0 {
		t.Fatal("no path files produced")
	}
	dir := t.TempDir()
	if err := forceexec.WritePathFiles(dir, stats.Paths); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(stats.Paths) {
		t.Errorf("wrote %d path files, want %d", len(entries), len(stats.Paths))
	}
}

func TestBaselineCoverageWithoutForcing(t *testing.T) {
	pkg, files := buildGatedApp(t)
	tracker, err := coverage.NewTracker(files)
	if err != nil {
		t.Fatal(err)
	}
	eng := forceexec.New(pkg, files)
	eng.MaxIterations = 0 // baseline only
	if _, err := eng.Run(tracker); err != nil {
		t.Fatal(err)
	}
	rep := tracker.Report()
	if rep.Instruction.Percent() > 60 {
		t.Errorf("baseline instruction coverage = %v, expected the gates to block most code", rep.Instruction)
	}
	ucbs := tracker.UncoveredBranches()
	if len(ucbs) == 0 {
		t.Error("expected uncovered branches at baseline")
	}
}

func TestCoverageTrackerTotals(t *testing.T) {
	_, files := buildGatedApp(t)
	tracker, err := coverage.NewTracker(files)
	if err != nil {
		t.Fatal(err)
	}
	rep := tracker.Report()
	if rep.Class.Total != 1 {
		t.Errorf("class total = %d, want 1", rep.Class.Total)
	}
	if rep.Method.Total != 2 { // <init> + onCreate
		t.Errorf("method total = %d, want 2", rep.Method.Total)
	}
	if rep.Branch.Total != 4 { // two if instructions, two edges each
		t.Errorf("branch edge total = %d, want 4", rep.Branch.Total)
	}
	if rep.Instruction.Covered != 0 {
		t.Errorf("fresh tracker reports %d covered", rep.Instruction.Covered)
	}
	if rep.Class.Percent() != 0 {
		t.Errorf("percent of empty coverage = %f", rep.Class.Percent())
	}
	if (coverage.Ratio{Covered: 1, Total: 4}).Percent() != 25 {
		t.Error("Ratio.Percent arithmetic broken")
	}
}

// TestForceExceptionEdges exercises the extension the paper leaves as
// future work: treating try/catch edges as forceable branches. The handler
// below is never thrown into naturally; plain force execution cannot reach
// it, the exception-edge mode can.
func TestForceExceptionEdges(t *testing.T) {
	p := dexgen.New()
	main := p.Class("Lhx/Main;", "Landroid/app/Activity;")
	main.Ctor("Landroid/app/Activity;", nil)
	main.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		a.Label("ts")
		a.Const(0, 8)
		a.Const(1, 2)
		a.Binop(bytecode.OpDivInt, 2, 0, 1) // never throws
		a.Label("te")
		a.ReturnVoid()
		a.Label("handler")
		a.MoveException(3)
		a.Const(4, 1)
		a.Const(4, 2)
		a.Const(4, 3)
		a.ReturnVoid()
		a.Catch("ts", "te", "Ljava/lang/ArithmeticException;", "handler")
	})
	pkg, err := p.BuildAPK("hx", "1.0", "Lhx/Main;")
	if err != nil {
		t.Fatal(err)
	}
	data, err := pkg.Dex()
	if err != nil {
		t.Fatal(err)
	}
	f, err := dex.Read(data)
	if err != nil {
		t.Fatal(err)
	}
	files := []*dex.File{f}

	run := func(forceHandlers bool) coverage.Report {
		tracker, err := coverage.NewTracker(files)
		if err != nil {
			t.Fatal(err)
		}
		eng := forceexec.New(pkg, files)
		eng.ForceExceptionEdges = forceHandlers
		if _, err := eng.Run(tracker); err != nil {
			t.Fatal(err)
		}
		if forceHandlers && len(tracker.UncoveredHandlers()) != 0 {
			t.Errorf("handlers still uncovered: %v", tracker.UncoveredHandlers())
		}
		return tracker.Report()
	}

	plain := run(false)
	if plain.Instruction.Percent() >= 100 {
		t.Fatalf("handler should be unreachable without exception forcing: %v", plain.Instruction)
	}
	withHandlers := run(true)
	if withHandlers.Instruction.Covered <= plain.Instruction.Covered {
		t.Errorf("exception-edge forcing did not improve coverage: %v -> %v",
			plain.Instruction, withHandlers.Instruction)
	}
	if withHandlers.Instruction.Percent() < 100 {
		t.Errorf("exception-edge forcing left instructions uncovered: %v", withHandlers.Instruction)
	}
}

// TestParallelForceExecutionDeterministic is the engine half of the
// acceptance spine: the same campaign at every worker count must produce an
// identical coverage report, identical campaign counters, and a canonical
// collection result that encodes to identical bytes.
func TestParallelForceExecutionDeterministic(t *testing.T) {
	pkg, files := buildGatedApp(t)
	run := func(workers int) (string, *forceexec.Stats, coverage.Report) {
		tracker, err := coverage.NewTracker(files)
		if err != nil {
			t.Fatal(err)
		}
		col := collector.New()
		eng := forceexec.New(pkg, files)
		eng.Workers = workers
		eng.Collector = col
		eng.ForceExceptionEdges = true
		stats, err := eng.Run(tracker)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(col.Result())
		if err != nil {
			t.Fatal(err)
		}
		return string(data), stats, tracker.Report()
	}

	base, baseStats, baseRep := run(1)
	if baseStats.ForcedRuns == 0 {
		t.Fatal("campaign scheduled no forced runs")
	}
	for _, w := range []int{2, 4, 8} {
		got, stats, rep := run(w)
		if got != base {
			t.Errorf("workers=%d: collection result diverges from serial", w)
		}
		if rep != baseRep {
			t.Errorf("workers=%d: coverage %+v, serial %+v", w, rep, baseRep)
		}
		if stats.ForcedRuns != baseStats.ForcedRuns ||
			stats.Iterations != baseStats.Iterations ||
			stats.PathsComputed != baseStats.PathsComputed ||
			stats.ExceptionsCleared != baseStats.ExceptionsCleared ||
			len(stats.Paths) != len(baseStats.Paths) {
			t.Errorf("workers=%d: campaign counters diverge: %+v vs %+v", w, stats, baseStats)
		}
		if stats.Workers != w {
			t.Errorf("workers=%d: Stats.Workers = %d", w, stats.Workers)
		}
		if stats.BusyNS <= 0 {
			t.Errorf("workers=%d: no busy time attributed", w)
		}
	}
}

// TestForceHandlersBounded pins the budget fix: exception-edge forcing must
// honor MaxRunsPerIter instead of running once per handler site unbounded.
func TestForceHandlersBounded(t *testing.T) {
	p := dexgen.New()
	main := p.Class("Lhb/Main;", "Landroid/app/Activity;")
	main.Ctor("Landroid/app/Activity;", nil)
	main.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		for i := 0; i < 3; i++ {
			ts, te, h, after := // distinct labels per try range
				labelf("ts", i), labelf("te", i), labelf("h", i), labelf("after", i)
			a.Label(ts)
			a.Const(0, 8)
			a.Const(1, 2)
			a.Binop(bytecode.OpDivInt, 2, 0, 1) // never throws naturally
			a.Label(te)
			a.Goto(after)
			a.Label(h)
			a.MoveException(3)
			a.Const(4, int64(i))
			a.Label(after)
			a.Nop()
			a.Catch(ts, te, "Ljava/lang/ArithmeticException;", h)
		}
		a.ReturnVoid()
	})
	pkg, err := p.BuildAPK("hb", "1.0", "Lhb/Main;")
	if err != nil {
		t.Fatal(err)
	}
	data, err := pkg.Dex()
	if err != nil {
		t.Fatal(err)
	}
	f, err := dex.Read(data)
	if err != nil {
		t.Fatal(err)
	}
	files := []*dex.File{f}

	tracker, err := coverage.NewTracker(files)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tracker.UncoveredHandlers()); got != 3 {
		t.Fatalf("uncovered handler sites = %d, want 3", got)
	}
	eng := forceexec.New(pkg, files)
	eng.MaxIterations = 0 // isolate the handler phase
	eng.ForceExceptionEdges = true
	eng.MaxRunsPerIter = 2
	stats, err := eng.Run(tracker)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ForcedRuns > 2 {
		t.Errorf("handler phase ran %d forced runs, budget is 2", stats.ForcedRuns)
	}
	if stats.ForcedRuns == 0 {
		t.Error("handler phase scheduled nothing")
	}
	if got := len(tracker.UncoveredHandlers()); got != 1 {
		t.Errorf("uncovered handlers after budgeted phase = %d, want 1", got)
	}
}

func labelf(prefix string, i int) string { return fmt.Sprintf("%s%d", prefix, i) }

// buildApp assembles a one-activity app from onCreate's body and parses
// its DEX; extra adds further classes.
func buildApp(t *testing.T, name string, onCreate func(a *dexgen.Asm), extra func(p *dexgen.Program)) (*apk.APK, []*dex.File) {
	t.Helper()
	p := dexgen.New()
	cls := "L" + name + "/Main;"
	main := p.Class(cls, "Landroid/app/Activity;")
	main.Ctor("Landroid/app/Activity;", nil)
	main.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, onCreate)
	if extra != nil {
		extra(p)
	}
	pkg, err := p.BuildAPK(name, "1.0", cls)
	if err != nil {
		t.Fatal(err)
	}
	data, err := pkg.Dex()
	if err != nil {
		t.Fatal(err)
	}
	f, err := dex.Read(data)
	if err != nil {
		t.Fatal(err)
	}
	return pkg, []*dex.File{f}
}

// TestBaseRunReachingEveryTargetSkipsNothing: both UCBs of the first
// iteration sit in onCreate, where the base run executes both branches. The
// base run certifies neither task, so both run after it.
func TestBaseRunReachingEveryTargetSkipsNothing(t *testing.T) {
	pkg, files := buildApp(t, "rp", func(a *dexgen.Asm) {
		a.Const(0, 0)
		a.IfZ(bytecode.OpIfNez, 0, "a") // never taken naturally
		a.Label("back")
		a.IfZ(bytecode.OpIfNez, 0, "b") // never taken naturally
		a.ReturnVoid()
		a.Label("a")
		a.Const(1, 1)
		a.Goto("back")
		a.Label("b")
		a.Const(1, 2)
		a.ReturnVoid()
	}, nil)
	tracker, err := coverage.NewTracker(files)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := forceexec.New(pkg, files).Run(tracker)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PathsComputed != 2 || stats.ForcedRuns != 3 || stats.RunsSkipped != 0 {
		t.Errorf("paths %d, forced runs %d, skipped %d; want 2, 3 (the base run and both tasks), 0",
			stats.PathsComputed, stats.ForcedRuns, stats.RunsSkipped)
	}
	if rep := tracker.Report(); rep.Branch.Covered != rep.Branch.Total {
		t.Errorf("branch coverage %v, want full", rep.Branch)
	}
}

// TestExceptionEdgeRunsNeverSkipped: a method nothing calls holds two
// branches and two try ranges. The base run never reaches it, so it
// certifies every branch-forcing task and they are all skipped; the
// method's exception-injection runs are idle the same way but always run.
func TestExceptionEdgeRunsNeverSkipped(t *testing.T) {
	pkg, files := buildApp(t, "xs", func(a *dexgen.Asm) { a.ReturnVoid() }, func(p *dexgen.Program) {
		p.Class("Lxs/Dead;", "Ljava/lang/Object;").Static("run", "V", []string{"I"}, func(a *dexgen.Asm) {
			for i := range 2 {
				ts, te, h, after := labelf("ts", i), labelf("te", i), labelf("h", i), labelf("after", i)
				a.IfZ(bytecode.OpIfNez, a.P(0), after)
				a.Label(ts)
				a.Const(0, 8)
				a.Binop(bytecode.OpDivInt, 1, 0, a.P(0))
				a.Label(te)
				a.Goto(after)
				a.Label(h)
				a.MoveException(2)
				a.Label(after)
				a.Nop()
				a.Catch(ts, te, "Ljava/lang/ArithmeticException;", h)
			}
			a.ReturnVoid()
		})
	})
	tracker, err := coverage.NewTracker(files)
	if err != nil {
		t.Fatal(err)
	}
	handlers := len(tracker.UncoveredHandlers())
	if handlers != 2 {
		t.Fatalf("uncovered handler sites = %d, want 2", handlers)
	}
	eng := forceexec.New(pkg, files)
	eng.ForceExceptionEdges = true
	stats, err := eng.Run(tracker)
	if err != nil {
		t.Fatal(err)
	}
	branchTasks := stats.PathsComputed - handlers
	if branchTasks < 2 || stats.RunsSkipped != branchTasks {
		t.Errorf("%d branch-forcing tasks, %d skipped; want all skipped",
			branchTasks, stats.RunsSkipped)
	}
	if stats.ForcedRuns != 1+handlers {
		t.Errorf("forced runs = %d, want the base run plus %d injection runs", stats.ForcedRuns, handlers)
	}
}
