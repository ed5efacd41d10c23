package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dexlego"
	"dexlego/internal/apk"
	"dexlego/internal/coverage"
	"dexlego/internal/dex"
	"dexlego/internal/droidbench"
	"dexlego/internal/store"
	"dexlego/internal/taint"
	"dexlego/internal/workload"
)

// workloadDef is one named workload: its number of closed-loop callers and
// how to set it up from a seed.
type workloadDef struct {
	name    string
	callers int
	setup   func(seed int64, seconds float64) (instance, error)
}

var workloads = []workloadDef{
	{"corpus-oneshot", 1, setupOneshot},
	{"fdroid-forced", 1, setupForced},
	{"served-versions", 2, setupServed},
	{"whale-budgeted", 1, setupWhale},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// app is one input application and the options a workload reveals it with.
type app struct {
	name string
	pkg  *apk.APK
	// opts returns fresh options for one reveal (a spill cache, where the
	// workload uses one, belongs to one reveal).
	opts func() dexlego.Options
}

// digest is the content hash outputs are compared by.
type digest = [sha256.Size]byte

// revealDigest reveals a and returns the result and the digest of its DEX.
func revealDigest(a *app) (*dexlego.Result, digest, error) {
	res, err := dexlego.Reveal(a.pkg, a.opts())
	if err != nil {
		return nil, digest{}, fmt.Errorf("%s: %w", a.name, err)
	}
	data, err := res.Revealed.Dex()
	if err != nil {
		return nil, digest{}, fmt.Errorf("%s: revealed dex: %w", a.name, err)
	}
	return res, sha256.Sum256(data), nil
}

// verified checks that a revealed DEX passes dex.Verify.
func verified(name string, f *dex.File) error {
	if errs := dex.Verify(f); len(errs) > 0 {
		return fmt.Errorf("%s: revealed dex has %d defects, first: %w", name, len(errs), errs[0])
	}
	return nil
}

// newRand returns the workload's generator for a seed; stream selects an
// independent sequence so workloads never share draws.
func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// --- corpus-oneshot ---------------------------------------------------------

// oneshot reveals every DroidBench sample and every packed Table V market
// app, one app per operation, in a seeded order.
type oneshot struct {
	apps    []*app
	refs    []digest
	markets []marketRef
	next    atomic.Int64
}

// marketRef is a packed market app's reference reveal, checked once per run.
type marketRef struct {
	spec     workload.MarketApp
	revealed *dex.File
}

func setupOneshot(seed int64, _ float64) (instance, error) {
	var apps []*app
	for _, s := range droidbench.Suite() {
		pkg, err := s.Build()
		if err != nil {
			return nil, err
		}
		natives := s.Natives()
		apps = append(apps, &app{name: s.Name, pkg: pkg, opts: func() dexlego.Options {
			return dexlego.Options{Natives: natives, Workers: 1}
		}})
	}
	markets, err := workload.MarketApps()
	if err != nil {
		return nil, err
	}
	marketIdx := make(map[string]workload.MarketApp)
	for _, m := range markets {
		install := m.Packer.InstallNatives
		apps = append(apps, &app{name: m.Package, pkg: m.Packed, opts: func() dexlego.Options {
			return dexlego.Options{InstallNatives: install, Workers: 1}
		}})
		marketIdx[m.Package] = m
	}
	r := newRand(seed, 1)
	r.Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })

	// The warm-up pass reveals the corpus once; its outputs are the
	// references every later reveal must reproduce byte for byte.
	o := &oneshot{apps: apps, refs: make([]digest, len(apps))}
	for i, a := range apps {
		res, d, err := revealDigest(a)
		if err != nil {
			return nil, err
		}
		if err := verified(a.name, res.RevealedDex); err != nil {
			return nil, err
		}
		o.refs[i] = d
		if m, ok := marketIdx[a.name]; ok {
			o.markets = append(o.markets, marketRef{spec: m, revealed: res.RevealedDex})
		}
	}
	return o, nil
}

func (o *oneshot) op(int) opResult {
	i := int(o.next.Add(1)-1) % len(o.apps)
	a := o.apps[i]
	start := time.Now()
	res, err := dexlego.Reveal(a.pkg, a.opts())
	lat := time.Since(start)
	if err != nil {
		return opResult{latency: lat, err: fmt.Errorf("%s: %w", a.name, err)}
	}
	data, err := res.Revealed.Dex()
	if err != nil {
		return opResult{latency: lat, err: fmt.Errorf("%s: %w", a.name, err)}
	}
	if sha256.Sum256(data) != o.refs[i] {
		return opResult{latency: lat, err: fmt.Errorf("%s: revealed dex differs from the verified reference", a.name)}
	}
	return opResult{latency: lat}
}

// finish checks what the paper's Table V claims of every packed market
// app: the reveal exposes the hidden Lmarket/ classes, and FlowDroid on the
// revealed DEX finds the app's ground-truth flows.
func (o *oneshot) finish(log io.Writer) (int, error) {
	failed := 0
	for _, m := range o.markets {
		if err := checkMarket(m); err != nil {
			fmt.Fprintf(log, "# market check: %v\n", err)
			failed++
		}
	}
	return failed, nil
}

func checkMarket(m marketRef) error {
	hidden := 0
	for _, c := range m.revealed.Classes {
		if strings.HasPrefix(m.revealed.TypeName(c.Class), "Lmarket/") {
			hidden++
		}
	}
	if hidden == 0 {
		return fmt.Errorf("%s: no Lmarket/ class revealed", m.spec.Package)
	}
	flows, err := taint.Analyze([]*dex.File{m.revealed}, taint.FlowDroid())
	if err != nil {
		return fmt.Errorf("%s: flowdroid: %w", m.spec.Package, err)
	}
	if flows.Count() != m.spec.Flows {
		return fmt.Errorf("%s: flowdroid found %d flows, want %d", m.spec.Package, flows.Count(), m.spec.Flows)
	}
	return nil
}

func (o *oneshot) info() map[string]float64 { return map[string]float64{} }
func (o *oneshot) reset()                   {}
func (o *oneshot) replayApps() []*app       { return o.apps }
func (o *oneshot) close()                   {}

// --- fdroid-forced ----------------------------------------------------------

// forcedSlice is the pinned Table VII slice: the two smallest F-Droid apps.
var forcedSlice = []string{"be.ppareit.swiftp", "fr.gaulupeau.apps.InThePoche"}

// forced runs the force-execution campaign over the pinned slice; one
// operation is one pass over the slice.
type forced struct {
	apps   []*app
	refs   []digest
	refCov []coverage.Report
}

func setupForced(seed int64, _ float64) (instance, error) {
	all, err := workload.FDroidApps()
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	f := &forced{}
	for _, name := range forcedSlice {
		for _, fa := range all {
			if fa.Package != name {
				continue
			}
			natives := fa.Natives
			f.apps = append(f.apps, &app{name: fa.Package, pkg: fa.APK, opts: func() dexlego.Options {
				return dexlego.Options{ForceExecution: true, Natives: natives, Workers: workers}
			}})
		}
	}
	if len(f.apps) != len(forcedSlice) {
		return nil, errors.New("fdroid-forced: pinned slice app missing from workload.FDroidApps")
	}
	// The apps are fixed by the paper's Table VI; the seed picks which of
	// the two the pass starts with.
	if newRand(seed, 2).IntN(2) == 1 {
		f.apps[0], f.apps[1] = f.apps[1], f.apps[0]
	}
	// The warm-up pass records the reference output and coverage.
	for _, a := range f.apps {
		res, d, err := revealDigest(a)
		if err != nil {
			return nil, err
		}
		if err := verified(a.name, res.RevealedDex); err != nil {
			return nil, err
		}
		if res.Coverage == nil {
			return nil, fmt.Errorf("%s: forced reveal reported no coverage", a.name)
		}
		f.refs = append(f.refs, d)
		f.refCov = append(f.refCov, *res.Coverage)
	}
	return f, nil
}

func (f *forced) op(int) opResult {
	start := time.Now()
	var results []*dexlego.Result
	for _, a := range f.apps {
		res, err := dexlego.Reveal(a.pkg, a.opts())
		if err != nil {
			return opResult{latency: time.Since(start), err: fmt.Errorf("%s: %w", a.name, err)}
		}
		results = append(results, res)
	}
	lat := time.Since(start)
	for i, res := range results {
		name := f.apps[i].name
		data, err := res.Revealed.Dex()
		if err != nil {
			return opResult{latency: lat, err: fmt.Errorf("%s: %w", name, err)}
		}
		if sha256.Sum256(data) != f.refs[i] {
			return opResult{latency: lat, err: fmt.Errorf("%s: revealed dex differs from the reference", name)}
		}
		if res.Coverage == nil || *res.Coverage != f.refCov[i] {
			return opResult{latency: lat, err: fmt.Errorf("%s: coverage differs from the reference", name)}
		}
	}
	return opResult{latency: lat}
}

func (f *forced) finish(io.Writer) (int, error) { return 0, nil }

func (f *forced) info() map[string]float64 { return map[string]float64{} }

func (f *forced) reset()             {}
func (f *forced) replayApps() []*app { return f.apps }
func (f *forced) close()             {}

// --- whale-budgeted ---------------------------------------------------------

// whaleConfig sizes the whale so one budgeted reveal stays well under a
// second while its unspilled live-heap peak (~33 MiB) stays above
// whaleBudget.
var whaleConfig = workload.WhaleConfig{Classes: 30, GiantMethods: 2, GiantInsns: 20000}

// whaleBudget is the memory budget of the one-shot -mem-budget set-up; the
// spill cache gets a quarter of it, as cmd/dexlego sizes it.
const whaleBudget = 24 << 20

// whale reveals one large app through the spill tier and the streaming
// writer; one operation is one reveal with a fresh spill cache, as one
// invocation of `dexlego -mem-budget` would run it.
type whale struct {
	app *app
	ref digest

	mu      sync.Mutex
	ops     int
	spilled int
	bytes   int64
	evicted int64
}

func setupWhale(seed int64, _ float64) (instance, error) {
	cfg := whaleConfig
	cfg.Seed = uint32(seed)
	wa, err := workload.Whale(cfg)
	if err != nil {
		return nil, err
	}
	w := &whale{}
	// The reference is the unspilled, fully resident reveal.
	plain := &app{name: wa.Name, pkg: wa.APK, opts: func() dexlego.Options {
		return dexlego.Options{Workers: 1}
	}}
	res, ref, err := revealDigest(plain)
	if err != nil {
		return nil, err
	}
	if err := verified(wa.Name, res.RevealedDex); err != nil {
		return nil, err
	}
	w.ref = ref
	w.app = &app{name: wa.Name, pkg: wa.APK, opts: func() dexlego.Options {
		sc, _ := store.OpenMethodCache("", whaleBudget/4) // fails only creating a directory
		return dexlego.Options{Workers: 1, SpillCache: sc}
	}}
	if r := w.op(0); r.err != nil { // warm-up
		return nil, r.err
	}
	w.reset()
	return w, nil
}

func (w *whale) op(int) opResult {
	opts := w.app.opts()
	start := time.Now()
	res, err := dexlego.Reveal(w.app.pkg, opts)
	lat := time.Since(start)
	if err != nil {
		return opResult{latency: lat, err: err}
	}
	data, err := res.Revealed.Dex()
	if err != nil {
		return opResult{latency: lat, err: err}
	}
	if sha256.Sum256(data) != w.ref {
		return opResult{latency: lat, err: errors.New("whale: spilled reveal differs from the unspilled reference")}
	}
	if res.Metrics.MethodsSpilled == 0 {
		return opResult{latency: lat, err: errors.New("whale: reveal under the budget spilled nothing")}
	}
	w.mu.Lock()
	w.ops++
	w.spilled += res.Metrics.MethodsSpilled
	w.bytes += res.Metrics.SpilledBytes
	w.evicted += opts.SpillCache.Evicted()
	w.mu.Unlock()
	return opResult{latency: lat}
}

func (w *whale) finish(io.Writer) (int, error) { return 0, nil }

// info reports the spill tier's work per reveal.
func (w *whale) info() map[string]float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ops == 0 {
		return map[string]float64{}
	}
	n := float64(w.ops)
	return map[string]float64{
		"spill.methods":      float64(w.spilled) / n,
		"spill.mib":          float64(w.bytes) / n / (1 << 20),
		"spillcache.evicted": float64(w.evicted) / n,
	}
}

func (w *whale) reset() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ops, w.spilled, w.bytes, w.evicted = 0, 0, 0, 0
}

func (w *whale) replayApps() []*app { return []*app{w.app} }
func (w *whale) close()             {}
