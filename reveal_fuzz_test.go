package dexlego_test

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"testing"

	root "dexlego"
	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/dex"
	"dexlego/internal/droidbench"
	"dexlego/internal/workload"
)

// fuzzSamples are the DroidBench samples FuzzReveal mutates: the
// reflection sample whose mutant once crashed the forced campaign, plus
// branch, switch, try/catch and reflection shapes.
var fuzzSamples = []string{"TabletReflection1", "Branching2", "SwitchFlow1", "CatchFlow1", "Reflection3"}

// methodBodies lists f's method bodies with code in class_defs order,
// direct methods before virtual ones.
func methodBodies(f *dex.File) []*dex.Code {
	var bodies []*dex.Code
	for ci := range f.Classes {
		cd := &f.Classes[ci]
		for mi := range cd.NumMethods() {
			em := cd.Method(mi)
			if code := em.Code; code != nil && len(code.Insns) > 0 {
				bodies = append(bodies, code)
			}
		}
	}
	return bodies
}

// mutateUnit returns a copy of pkg whose DEX has code unit unit of method
// body body (in methodBodies order) set to value; body and unit wrap around
// their ranges. It reports false when the mutated file fails dex.Verify or
// cannot be written.
func mutateUnit(t testing.TB, pkg *apk.APK, body, unit int, value uint16) (*apk.APK, bool) {
	t.Helper()
	raw, err := pkg.Dex() // a private copy: pkg.DexFile is shared and immutable
	if err != nil {
		t.Fatal(err)
	}
	f, err := dex.Read(raw)
	if err != nil {
		t.Fatal(err)
	}
	bodies := methodBodies(f)
	if len(bodies) == 0 {
		return nil, false
	}
	code := bodies[body%len(bodies)]
	code.Insns[unit%len(code.Insns)] = value
	if len(dex.Verify(f)) != 0 {
		return nil, false
	}
	data, err := f.Write()
	if err != nil {
		return nil, false
	}
	out := pkg.Clone()
	out.SetDex(data)
	return out, true
}

// tabletMutant is TabletReflection1 with unit 95 of onCreate (the second
// body) turned from 0x206e to 0x176e: an invoke-virtual of
// StringBuilder.append(C) that passes the receiver alone. The file passes
// dex.Verify, and the unforced launch never reaches the call: only a
// forced run steering the tablet branch executes it.
func tabletMutant(t testing.TB) (*apk.APK, *droidbench.Sample) {
	t.Helper()
	s := droidbench.ByName("TabletReflection1")
	pkg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	f, err := pkg.DexFile()
	if err != nil {
		t.Fatal(err)
	}
	if bodies := methodBodies(f); len(bodies) < 2 || len(bodies[1].Insns) <= 95 || bodies[1].Insns[95] != 0x206e {
		t.Fatal("TabletReflection1's second body no longer holds invoke-virtual {v4, v5} at unit 95")
	}
	mutant, ok := mutateUnit(t, pkg, 1, 95, 0x176e)
	if !ok {
		t.Fatal("the TabletReflection1 mutant fails dex.Verify")
	}
	return mutant, s
}

// oracleSteps bounds each call the behaviour oracle drives, far above what
// any sample needs, so a mutant that loops fails fast instead of running to
// the runtime's default budget.
const oracleSteps = 200_000

// objectAddr matches the address Object.String prints for a plain object.
var objectAddr = regexp.MustCompile(`@0x[0-9a-f]+`)

// sinkTrace runs pkg under DefaultDriver with the natives opts installs
// (Natives and InstallNatives) and a bounded step budget, and returns its
// sink events with object addresses in their arguments masked. Call sites
// are cleared too: the reassembler lays each body out anew and routes
// reflective calls through bridge methods, so a sink call may move within
// or between methods. It reports false when pkg does not load or a call ran
// out of steps.
func sinkTrace(pkg *apk.APK, opts root.Options) ([]art.SinkEvent, bool) {
	rt := art.NewRuntime(art.DefaultPhone())
	rt.MaxSteps = oracleSteps
	for key, fn := range opts.Natives {
		rt.RegisterNative(key, fn)
	}
	if opts.InstallNatives != nil {
		opts.InstallNatives(rt)
	}
	if err := rt.LoadAPK(pkg); err != nil {
		return nil, false
	}
	if err := root.DefaultDriver(rt); errors.Is(err, art.ErrStepBudget) {
		return nil, false
	}
	trace := rt.Sinks()
	for i := range trace {
		args := make([]string, len(trace[i].Args))
		for j, a := range trace[i].Args {
			args[j] = objectAddr.ReplaceAllString(a, "@obj")
		}
		trace[i].Args, trace[i].Caller, trace[i].CallerPC = args, "", 0
	}
	return trace, true
}

// checkReveal reveals pkg with opts (its natives, force execution on or
// off, a pool size) and requires an error or a DEX that passes dex.Verify
// and reads back. The revealed APK must also behave as pkg: run under
// DefaultDriver with the same natives, it must produce pkg's sink trace. An
// input whose own run does not load or runs out of steps has no trace to
// compare.
func checkReveal(t *testing.T, pkg *apk.APK, opts root.Options) {
	t.Helper()
	force, workers := opts.ForceExecution, opts.Workers
	res, err := root.Reveal(pkg, opts)
	if err != nil {
		return
	}
	if errs := dex.Verify(res.RevealedDex); len(errs) != 0 {
		t.Fatalf("force=%v workers=%d: revealed DEX fails verify: %v", force, workers, errs)
	}
	data, err := res.Revealed.Dex()
	if err != nil {
		t.Fatalf("force=%v workers=%d: revealed APK has no DEX: %v", force, workers, err)
	}
	if _, err := dex.Read(data); err != nil {
		t.Fatalf("force=%v workers=%d: revealed DEX does not read back: %v", force, workers, err)
	}
	want, ok := sinkTrace(pkg, opts)
	if !ok {
		return
	}
	if got, ok := sinkTrace(res.Revealed, opts); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("force=%v workers=%d: revealed APK's sink trace differs from the input's (completed %v):\n got %+v\nwant %+v",
			force, workers, ok, got, want)
	}
}

// TestForcedRevealSurvivesMalformedInvoke reveals the TabletReflection1
// mutant forced, serially and with a two-run pool: the call that passes too
// few argument words must not take the campaign down.
func TestForcedRevealSurvivesMalformedInvoke(t *testing.T) {
	pkg, s := tabletMutant(t)
	for _, workers := range []int{1, 2} {
		checkReveal(t, pkg, root.Options{Natives: s.Natives(), ForceExecution: true, Workers: workers})
	}
}

// TestRevealOracleOverGoldenInputs runs checkReveal's re-execution oracle
// over every golden input: the DroidBench suite and the Table VII slice
// with force execution off and on, and the packed market apps with their
// packers' natives. It runs at worker count 1, or at each count
// DEXLEGO_GOLDEN_WORKERS names.
func TestRevealOracleOverGoldenInputs(t *testing.T) {
	counts := []int{1}
	if os.Getenv("DEXLEGO_GOLDEN_WORKERS") != "" {
		counts = goldenWorkers(t)
	}
	type input struct {
		name   string
		pkg    *apk.APK
		opts   root.Options
		forced bool // also reveal it with force execution on
	}
	var inputs []input
	for _, s := range droidbench.Suite() {
		pkg, err := s.Build()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		inputs = append(inputs, input{s.Name, pkg, root.Options{Natives: s.Natives()}, true})
	}
	market, err := workload.MarketApps()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range market {
		inputs = append(inputs, input{app.Package, app.Packed, root.Options{InstallNatives: app.Packer.InstallNatives}, false})
	}
	for _, app := range tableVIISlice(t) {
		inputs = append(inputs, input{app.Package, app.APK, root.Options{Natives: app.Natives}, true})
	}
	for _, in := range inputs {
		for _, workers := range counts {
			for _, force := range []bool{false, true} {
				if force && !in.forced {
					continue
				}
				opts := in.opts
				opts.ForceExecution, opts.Workers = force, workers
				name := fmt.Sprintf("%s/force=%v/workers=%d", in.name, force, workers)
				t.Run(name, func(t *testing.T) { checkReveal(t, in.pkg, opts) })
			}
		}
	}
}

// FuzzReveal mutates one code unit of one method body of a DroidBench
// sample, keeps only files that pass dex.Verify, and reveals each with
// force execution off and on: Reveal must never panic, and must return an
// error or a DEX that passes dex.Verify, reads back and reproduces the
// input's sink trace.
func FuzzReveal(f *testing.F) {
	pkgs := make([]*apk.APK, len(fuzzSamples))
	samples := make([]*droidbench.Sample, len(fuzzSamples))
	for i, name := range fuzzSamples {
		samples[i] = droidbench.ByName(name)
		pkg, err := samples[i].Build()
		if err != nil {
			f.Fatal(err)
		}
		pkgs[i] = pkg
	}
	f.Add(uint8(0), uint16(1), uint16(95), uint16(0x176e)) // the TabletReflection1 mutant
	f.Add(uint8(0), uint16(1), uint16(6), uint16(0x0112))  // const/4 v1, #0 opens the tablet gate: the launch reaches the SMS sink
	for i := range fuzzSamples {
		f.Add(uint8(i), uint16(0), uint16(1), uint16(0x0000)) // <init>'s unit 1 already holds method@0: the sample unchanged
		f.Add(uint8(i), uint16(1), uint16(0), uint16(0x000e)) // return-void at onCreate's entry
		f.Add(uint8(i), uint16(1), uint16(3), uint16(0x0112)) // const/4 v2, #1
	}
	f.Fuzz(func(t *testing.T, sample uint8, body, unit, value uint16) {
		i := int(sample) % len(pkgs)
		pkg, ok := mutateUnit(t, pkgs[i], int(body), int(unit), value)
		if !ok {
			return
		}
		for _, force := range []bool{false, true} {
			checkReveal(t, pkg, root.Options{Natives: samples[i].Natives(), ForceExecution: force, Workers: 1})
		}
	})
}
