package dexlego_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	root "dexlego"
	"dexlego/internal/apk"
	"dexlego/internal/collector"
	"dexlego/internal/dexgen"
	"dexlego/internal/droidbench"
	"dexlego/internal/obs"
	"dexlego/internal/store"
	"dexlego/internal/workload"
)

// The method-record codec property suite: every record the repository
// produces — DroidBench, the packed market apps, a forced F-Droid slice,
// the whale's spilled records and an incremental version chain — must
// survive collector.EncodeRecord/DecodeRecord with nothing lost. JSON is
// the oracle: it marshals every exported field, so a field the binary
// codec forgets shows up as a byte difference.

// codecTally counts the record features the suite exercised, so the test
// fails if an input change stops covering one of them.
type codecTally struct {
	records, children, tries, handlers, refl, written, switches int
	syms                                                        map[string]int
}

// checkRecordRoundTrip asserts that rec encodes deterministically, decodes
// to a record whose JSON is byte-equal to rec's, re-encodes to the same
// bytes, and comes back with its parent links and IIMs rebuilt.
func checkRecordRoundTrip(t *testing.T, where string, rec *collector.MethodRecord, tally *codecTally) {
	t.Helper()
	enc, err := collector.EncodeRecord(rec)
	if err != nil {
		t.Fatalf("%s %s: encode: %v", where, rec.Key(), err)
	}
	if again, _ := collector.EncodeRecord(rec); !bytes.Equal(enc, again) {
		t.Fatalf("%s %s: encoding not deterministic", where, rec.Key())
	}
	dec, err := collector.DecodeRecord(enc)
	if err != nil {
		t.Fatalf("%s %s: decode: %v", where, rec.Key(), err)
	}
	assertSameJSON(t, where+" "+rec.Key(), rec, dec)
	if re, _ := collector.EncodeRecord(dec); !bytes.Equal(enc, re) {
		t.Fatalf("%s %s: decoded record re-encodes differently", where, rec.Key())
	}
	for _, tr := range dec.Trees {
		if tr.Parent != nil {
			t.Fatalf("%s %s: decoded root has a parent", where, rec.Key())
		}
		checkRebuilt(t, where+" "+rec.Key(), tr)
	}
	tally.add(rec)
}

func assertSameJSON(t *testing.T, where string, want, got *collector.MethodRecord) {
	t.Helper()
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("%s: JSON differs after the binary round trip\n want %.400s\n  got %.400s",
			where, wantJSON, gotJSON)
	}
}

// checkRebuilt asserts that every node below n links back to its parent
// and that its IIM (TreeNode.Index) inverts its IL: each entry's dex_pc
// maps to that entry, and no other dex_pc maps at all. JSON does not carry
// the IIM, so the byte-equal JSON above cannot see a wrong one.
func checkRebuilt(t *testing.T, where string, n *collector.TreeNode) {
	t.Helper()
	maxPC := -1
	for i := range n.IL {
		pc := n.IL[i].DexPC
		if j, ok := n.Index(pc); !ok || j != i {
			t.Fatalf("%s: Index(%d) = %d, %v; want %d", where, pc, j, ok, i)
		}
		maxPC = max(maxPC, pc)
	}
	for pc := -1; pc <= maxPC+1; pc++ {
		if j, ok := n.Index(pc); ok && n.IL[j].DexPC != pc {
			t.Fatalf("%s: Index(%d) = %d, an entry at dex_pc %d", where, pc, j, n.IL[j].DexPC)
		}
	}
	for _, c := range n.Children {
		if c.Parent != n {
			t.Fatalf("%s: child at pc %d lost its parent link", where, c.SmStart)
		}
		checkRebuilt(t, where, c)
	}
}

func (c *codecTally) add(rec *collector.MethodRecord) {
	c.records++
	if rec.Written {
		c.written++
	}
	if len(rec.ReflTargets) > 0 {
		c.refl++
	}
	if len(rec.Tries) > 0 {
		c.tries++
	}
	for _, tr := range rec.Tries {
		if len(tr.Handlers) > 0 {
			c.handlers++
		}
	}
	var walk func(n *collector.TreeNode)
	walk = func(n *collector.TreeNode) {
		if len(n.Children) > 0 {
			c.children++
		}
		for i := range n.IL {
			e := &n.IL[i]
			if e.Inst.Op.IsSwitch() {
				c.switches++
			}
			if e.Sym != nil {
				c.syms[fmt.Sprint(e.Sym.Kind)]++
			}
		}
		for _, k := range n.Children {
			walk(k)
		}
	}
	for _, tr := range rec.Trees {
		walk(tr)
	}
}

// checkResultRecords round-trips every record of a collection result in
// key order.
func checkResultRecords(t *testing.T, where string, res *collector.Result, tally *codecTally) {
	t.Helper()
	keys := make([]string, 0, len(res.Methods))
	for k := range res.Methods {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		checkRecordRoundTrip(t, where, res.Methods[k], tally)
	}
}

func revealCollection(t *testing.T, name string, pkg *apk.APK, opts root.Options) *collector.Result {
	t.Helper()
	res, err := root.Reveal(pkg, opts)
	if err != nil {
		t.Fatalf("%s: reveal: %v", name, err)
	}
	return res.Collection
}

func TestRecordCodecRoundTrip(t *testing.T) {
	tally := &codecTally{syms: map[string]int{}}

	for _, s := range droidbench.Suite() {
		pkg, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		col := revealCollection(t, s.Name, pkg, root.Options{Natives: s.Natives(), Workers: 1})
		checkResultRecords(t, s.Name, col, tally)
	}

	market, err := workload.MarketApps()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range market {
		col := revealCollection(t, app.Package, app.Packed,
			root.Options{InstallNatives: app.Packer.InstallNatives, Workers: 1})
		checkResultRecords(t, app.Package, col, tally)
	}

	// The forced slice: the two smallest Table VII apps.
	fdroid, err := workload.FDroidApps()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range fdroid {
		if app.Package != "be.ppareit.swiftp" && app.Package != "fr.gaulupeau.apps.InThePoche" {
			continue
		}
		col := revealCollection(t, app.Package, app.APK,
			root.Options{ForceExecution: true, Natives: app.Natives, Workers: 2})
		checkResultRecords(t, app.Package+" forced", col, tally)
	}

	// A version chain through a shared method cache: later links splice
	// records that were themselves decoded from the cache.
	chain, err := workload.VersionChain(workload.ChainConfig{Methods: 12, Links: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := store.OpenMethodCache("", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range chain {
		col := revealCollection(t, app.Name, app.APK,
			root.Options{ForceExecution: true, Workers: 1, MethodCache: mc})
		checkResultRecords(t, app.Name+" chain", col, tally)
	}
	if mc.Hits() == 0 {
		t.Errorf("version chain never hit the method cache")
	}

	t.Logf("%d records: %d with divergence children, %d with tries (%d typed), %d reflective, %d written, %d switches, symbols %v",
		tally.records, tally.children, tally.tries, tally.handlers, tally.refl, tally.written, tally.switches, tally.syms)
	for name, n := range map[string]int{
		"divergence children": tally.children, "tries": tally.tries, "typed handlers": tally.handlers,
		"reflective targets": tally.refl, "written records": tally.written, "switches": tally.switches,
	} {
		if n == 0 {
			t.Errorf("no record exercised %s", name)
		}
	}
	if len(tally.syms) < 4 {
		t.Errorf("records carried symbols of %d kinds, want all 4", len(tally.syms))
	}
}

// TestRecordCodecWhaleSpill reads back the bytes the spill tier actually
// held: every mem_spill event names a store key, and the record stored
// there must decode to the record the unspilled reveal keeps resident,
// and re-encode to the stored bytes.
func TestRecordCodecWhaleSpill(t *testing.T) {
	app := testWhale(t)
	ref, err := root.Reveal(app.APK, root.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := store.OpenMethodCache("", 0) // large enough that nothing is evicted
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if _, err := root.Reveal(app.APK, root.Options{Workers: 1, SpillCache: sc, Tracer: obs.New(obs.NewJSONLSink(&trace))}); err != nil {
		t.Fatal(err)
	}
	spilled := 0
	for _, line := range bytes.Split(bytes.TrimSpace(trace.Bytes()), []byte{'\n'}) {
		ev, err := obs.ParseEvent(line)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Type != obs.EventMemSpill {
			continue
		}
		data, ok := sc.Get(ev.Detail)
		if !ok {
			t.Fatalf("%s: spilled record missing from the spill cache", ev.Method)
		}
		if int64(len(data)) != ev.Bytes {
			t.Errorf("%s: spill event says %d bytes, cache holds %d", ev.Method, ev.Bytes, len(data))
		}
		dec, err := collector.DecodeRecord(data)
		if err != nil {
			t.Fatalf("%s: decode spilled record: %v", ev.Method, err)
		}
		want, ok := ref.Collection.Methods[ev.Method]
		if !ok {
			t.Fatalf("%s: spilled but absent from the unspilled reveal", ev.Method)
		}
		assertSameJSON(t, ev.Method, want, dec)
		if re, _ := collector.EncodeRecord(dec); !bytes.Equal(re, data) {
			t.Errorf("%s: spilled record re-encodes differently", ev.Method)
		}
		spilled++
	}
	if spilled == 0 {
		t.Fatal("whale reveal spilled nothing")
	}
}

// sparseAPK builds an app whose launch runs one long method sparsely: a
// run of constants, then a jump over a large never-executed block to a
// late return. The method's record needs more IIM slots than its encoding
// buys, and encodes to well over the spill threshold if encoded at all.
func sparseAPK(t *testing.T) *apk.APK {
	t.Helper()
	p := dexgen.New()
	cls := p.Class("Lsparse/Main;", "Landroid/app/Activity;")
	cls.Ctor("Landroid/app/Activity;", nil)
	cls.Virtual("onCreate", "V", []string{"Landroid/os/Bundle;"}, func(a *dexgen.Asm) {
		for i := 0; i < 40; i++ {
			a.Const(0, int64(i))
		}
		a.Goto("late")
		for i := 0; i < 8000; i++ {
			a.Nop()
		}
		a.Label("late")
		a.ReturnVoid()
	})
	pkg, err := p.BuildAPK("sparse", "1.0", "Lsparse/Main;")
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// TestSparseRecordSurvivesSpillAndCache: a record the codec refuses stays
// resident under the spill tier and out of the method cache, so the
// revealed DEX keeps its collected bytecode on every path.
func TestSparseRecordSurvivesSpillAndCache(t *testing.T) {
	const key = "Lsparse/Main;->onCreate(Landroid/os/Bundle;)V"
	pkg := sparseAPK(t)
	want, ref := revealTraced(t, pkg, root.Options{Workers: 1})
	rec := ref.Collection.Methods[key]
	if rec == nil || !rec.Executed() {
		t.Fatalf("%s not collected", key)
	}
	if _, err := collector.EncodeRecord(rec); err == nil {
		t.Fatalf("%s: sparse record encoded; the test no longer exercises the IIM budget", key)
	}
	sc, err := store.OpenMethodCache("", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, res := revealTraced(t, pkg, root.Options{Workers: 1, SpillCache: sc})
	if res.Collection.Methods[key] == nil {
		t.Errorf("%s: over-budget record left the result", key)
	}
	if !bytes.Equal(got, want) {
		t.Error("spilled reveal differs from the resident one")
	}
	mc, err := store.OpenMethodCache("", 0)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		if got, _ := revealTraced(t, pkg, root.Options{Workers: 1, MethodCache: mc}); !bytes.Equal(got, want) {
			t.Errorf("incremental reveal %d differs from the full one", run)
		}
	}
}
