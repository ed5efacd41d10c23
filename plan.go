package dexlego

import (
	"bytes"
	"log/slog"
	"sort"

	"dexlego/internal/apk"
	"dexlego/internal/collector"
	"dexlego/internal/dex"
	"dexlego/internal/obs"
	"dexlego/internal/pipeline"
	"dexlego/internal/store"
)

// The reveal plan: the execution strategy of one Reveal, computed before
// anything runs. Reveal calls every plan method unconditionally; the zero
// plan is the full path — collect every method, keep every record
// resident, encode through the buffered writer — and each method is a
// no-op for a strategy that is off. Two strategies can switch on, and
// neither is observable in the output bytes.
//
// Incremental reuse (Options.MethodCache): instead of re-executing every
// method of an updated APK, each method is keyed by its body fingerprint
// (methodfp.go) and looked up in the per-method tree cache. Hits go on the
// collector's skip list — it records only that they ran, and the force
// engine schedules no runs for them — and their cached trees are spliced
// into the result before reassembly. Because the fingerprint folds in
// every resolved callee, an unchanged key across versions means the method
// executes the same code, so the spliced result is byte-identical to the
// full path's. Records marked Written (art.Hooks.CodeWritten) or carrying
// divergence forks never enter the cache, and a write observed into a
// skip-listed method at runtime voids the incremental half of the plan —
// Reveal falls back to a full run. Store-back happens only after the
// revealed DEX verified.
//
// Spill (Options.SpillCache): after collection finishes, completed method
// records are displaced from the live result into a store.MethodCache and
// fetched back one class at a time during reassembly, and the DEX image is
// emitted through the section-streaming writer. A decoded tree graph
// occupies many times its binary encoding (collector.EncodeRecord: varints
// and length-prefixed strings, against pointers, parent links, the IIM and
// the fingerprint dedup index), so converting the bulk of the result to
// flat bytes between the two phases caps the heap peak — the reassembler
// re-inflates only the class it is currently emitting. Spilled entries are
// content-addressed (store.SpillKeyFor), so the tier needs no invalidation
// and tolerates any sharing. Every spillEntry retains the bytes it was
// built from, and fetch falls back to them when the cache evicted the
// entry: the spill can slow a reveal down, never fail it.

// spillMinBytes is the smallest encoded record worth displacing: below this
// the bookkeeping (map entry, store key, cache slot) rivals the record
// itself, and small methods are exactly the ones whose decoded form is
// cheap to keep resident. The threshold is in binary-encoded bytes, about
// a ninth of the record's JSON size: on the benchmark whale (seed 1) it
// selects exactly the 243 records the former 2048-byte JSON threshold did.
const spillMinBytes = 256

// plan is one reveal's strategy state.
type plan struct {
	forced bool // force execution canonicalized the result before splicing

	// Incremental reuse: mc is nil when it is off or the plan was voided.
	mc        *store.MethodCache
	optionsFP string
	fps       map[string]string                  // method key -> body fingerprint
	cached    map[string]*collector.MethodRecord // skip-listed key -> decoded record
	skip      map[string]bool

	// Spill: spillCache is nil when it is off.
	spillCache *store.MethodCache
	spilled    map[string]*spillEntry // method key -> displaced record
	spillInsns int                    // summed instruction counts of spilled records
	spillBytes int64                  // summed serialized sizes
}

// spillEntry is one displaced method record.
type spillEntry struct {
	storeKey  string
	data      []byte // serialized record; fetch fallback when the cache evicted it
	insns     int    // executed-instruction count the record carried
	cacheable bool   // the record's Cacheable verdict, for store-back
}

// newPlan fingerprints the APK's methods and resolves each against the
// method cache, emitting method_cache_hit/miss per lookup. Incremental
// reuse stays off when no method cache is set or the primary dex does not
// parse (the plain pipeline tolerates that; the planner must not turn it
// into a failure).
func newPlan(pkg *apk.APK, opts Options, span *obs.Span) *plan {
	p := &plan{forced: opts.ForceExecution, spillCache: opts.SpillCache}
	if opts.MethodCache == nil {
		return p
	}
	f, err := pkg.DexFile()
	if err != nil {
		return p
	}
	p.mc = opts.MethodCache
	p.optionsFP = opts.Fingerprint()
	p.fps = MethodFingerprints(f)
	p.cached = make(map[string]*collector.MethodRecord)
	p.skip = make(map[string]bool)
	for _, key := range sortedKeys(p.fps) { // deterministic lookup (and event) order
		rec := p.lookup(key)
		if rec == nil {
			span.MethodCacheMiss(key)
			continue
		}
		p.skip[key] = true
		p.cached[key] = rec
		span.MethodCacheHit(key)
	}
	return p
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// lookup resolves one method against the cache, treating undecodable or
// uncacheable records as misses.
func (p *plan) lookup(key string) *collector.MethodRecord {
	data, ok := p.mc.Get(store.MethodKeyFor(p.optionsFP, p.fps[key]))
	if !ok {
		return nil
	}
	rec, err := collector.DecodeRecord(data)
	if err != nil || rec.Key() != key || !rec.Cacheable() {
		return nil
	}
	return rec
}

// newCollector returns an empty collector carrying the plan's skip list;
// the force engine's shards inherit it.
func (p *plan) newCollector() *collector.Collector {
	col := collector.New()
	col.SetSkip(p.skip)
	return col
}

// voided reports whether col saw a skip-listed method's live code written
// at runtime. Its cached tree then describes a body that no longer exists,
// so the plan drops incremental reuse — nothing is skipped, spliced or
// stored back — and the caller discards col and runs again in full.
func (p *plan) voided(col *collector.Collector) bool {
	v := col.SkipViolations()
	if len(v) == 0 {
		return false
	}
	slog.Warn("incremental: skip violations; falling back to full reveal",
		"count", len(v), "first", v[0])
	p.mc, p.fps, p.cached, p.skip = nil, nil, nil, nil
	return true
}

// splice grafts the cached trees of every skip-listed method that actually
// ran into the collection result, and fills the incremental counters:
// MethodsCached (spliced) and MethodsExecuted (methods that collected fresh
// trees this run). Skipped methods that never ran stay absent and
// reassemble as stubs, exactly as they would on the full path.
func (p *plan) splice(col *collector.Collector, m *pipeline.AppMetrics, span *obs.Span) {
	if p.mc == nil {
		return
	}
	for _, rec := range col.Result().Methods {
		if rec.Executed() {
			m.MethodsExecuted++
		}
	}
	for _, key := range sortedKeys(col.SkipTouched()) {
		rec, ok := p.cached[key]
		if !ok {
			continue
		}
		if n := col.Result().SpliceRecord(rec); n > 0 {
			m.MethodsCached++
			span.TreeSplice(key, n)
		}
	}
	if p.forced {
		// Spliced trees entered after the engine canonicalized; re-impose
		// the history-independent order. Idempotent for everything already
		// sorted.
		col.Result().Canonicalize()
	}
}

// spill displaces every executed method record whose encoding reaches
// spillMinBytes from res into the spill cache, emitting one mem_spill
// event per record. Records that fail to encode or to enter the cache
// simply stay resident.
func (p *plan) spill(res *collector.Result, span *obs.Span) {
	if p.spillCache == nil {
		return
	}
	p.spilled = make(map[string]*spillEntry)
	for _, key := range sortedKeys(res.Methods) { // deterministic spill (and event) order
		rec := res.Methods[key]
		if rec == nil || !rec.Executed() {
			continue
		}
		data, err := collector.EncodeRecord(rec)
		if err != nil || len(data) < spillMinBytes {
			continue
		}
		storeKey := store.SpillKeyFor(data)
		if p.spillCache.Put(storeKey, data) != nil {
			continue
		}
		insns := 0
		for _, tr := range rec.Trees {
			insns += tr.Size()
		}
		p.spilled[key] = &spillEntry{storeKey: storeKey, data: data, insns: insns, cacheable: rec.Cacheable()}
		p.spillInsns += insns
		p.spillBytes += int64(len(data))
		delete(res.Methods, key)
		span.MemSpill(key, int64(len(data)), storeKey)
	}
}

// fetch re-inflates the record spilled under a method key, serving the
// reassembler's Config.Fetch hook. A cache miss (a memory-only tier evicted
// the entry) falls back to the retained bytes, so a spilled method is
// always recoverable.
func (p *plan) fetch(key string) (*collector.MethodRecord, bool) {
	e, ok := p.spilled[key]
	if !ok {
		return nil, false
	}
	data, ok := p.spillCache.Get(e.storeKey)
	if !ok {
		data = e.data
	}
	rec, err := collector.DecodeRecord(data)
	if err != nil {
		// The cache tier returned bytes that no longer decode (it should be
		// impossible under content addressing); the retained copy cannot
		// fail the same way — it round-tripped through EncodeRecord.
		if rec, err = collector.DecodeRecord(e.data); err != nil {
			return nil, false
		}
	}
	return rec, true
}

// encode serializes the reassembled DEX: through the windowed streaming
// writer when the spill tier is on — the output path's residency is then
// the point — and through the buffered writer otherwise. Both emit the
// same bytes (pinned by TestStreamingDexByteIdentical).
func (p *plan) encode(f *dex.File) ([]byte, error) {
	if p.spillCache == nil {
		return f.Write()
	}
	var buf bytes.Buffer
	if _, err := f.WriteStream(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// storeBack admits every fresh, cacheable, fingerprintable record into the
// method cache — resident ones encoded now, spilled ones from their
// retained bytes — in method-key order, because with a byte-capped cache
// the put order decides which records survive eviction. Spliced records
// are already present under the same key; methods outside the fingerprint
// map (dynamically loaded DEX) and records poisoned by code writes or
// divergence forks are never admitted. Cache write failures are
// deliberately dropped: the cache is an accelerator, not an output.
func (p *plan) storeBack(res *collector.Result) {
	if p.mc == nil {
		return
	}
	keys := make([]string, 0, len(res.Methods)+len(p.spilled))
	for k := range res.Methods {
		keys = append(keys, k)
	}
	for k := range p.spilled {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		fp, ok := p.fps[key]
		if !ok || p.skip[key] {
			continue
		}
		var data []byte
		if rec, resident := res.Methods[key]; resident {
			if !rec.Cacheable() {
				continue
			}
			var err error
			if data, err = collector.EncodeRecord(rec); err != nil {
				continue
			}
		} else if e := p.spilled[key]; e.cacheable {
			data = e.data
		} else {
			continue
		}
		_ = p.mc.Put(store.MethodKeyFor(p.optionsFP, fp), data)
	}
}

// addMetrics banks what the spill tier took out of the result: the
// instruction counts of spilled records, which the result no longer holds,
// and the spill counters.
func (p *plan) addMetrics(m *pipeline.AppMetrics) {
	m.ExecutedInsns += p.spillInsns
	m.MethodsSpilled = len(p.spilled)
	m.SpilledBytes = p.spillBytes
}
