package dexlego

import (
	"sort"

	"dexlego/internal/apk"
	"dexlego/internal/collector"
	"dexlego/internal/obs"
	"dexlego/internal/pipeline"
	"dexlego/internal/store"
)

// The incremental reveal path: instead of re-executing every method of an
// updated APK, each method is keyed by its body fingerprint (methodfp.go)
// and looked up in the per-method tree cache. Hits go on a skip list — the
// collector records only that they ran, the force engine schedules no runs
// for them — and their cached trees are spliced into the result before
// reassembly. Because the fingerprint folds in every resolved callee, an
// unchanged key across versions means the method executes the same code,
// so the spliced result is byte-identical to the full path's.
//
// Safety rails: records marked Written (art.Hooks.CodeWritten) or carrying
// divergence forks never enter the cache, and a write observed into a
// skip-listed method at runtime voids the whole plan — Reveal falls back to
// a full run. Store-back happens only after the revealed DEX verified.

// incPlan is the per-reveal incremental state: the lookup outcome for every
// fingerprintable method.
type incPlan struct {
	optionsFP string
	fps       map[string]string                  // method key -> body fingerprint
	cached    map[string]*collector.MethodRecord // skip-listed key -> decoded record
	skip      map[string]bool
}

// planIncremental fingerprints the APK's methods and resolves each against
// the method cache, emitting method_cache_hit/miss per lookup. It returns
// nil — full path, no skip list — when no method cache is set or the
// primary dex does not parse (the plain pipeline tolerates that; the
// planner must not turn it into a failure).
func planIncremental(pkg *apk.APK, opts Options, span *obs.Span) *incPlan {
	if opts.MethodCache == nil {
		return nil
	}
	f, err := pkg.DexFile()
	if err != nil {
		return nil
	}
	p := &incPlan{
		optionsFP: opts.Fingerprint(),
		fps:       MethodFingerprints(f),
		cached:    make(map[string]*collector.MethodRecord),
		skip:      make(map[string]bool),
	}
	keys := make([]string, 0, len(p.fps))
	for k := range p.fps {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic lookup (and event) order
	for _, key := range keys {
		rec := p.lookup(opts.MethodCache, key)
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

// lookup resolves one method against the cache, treating undecodable or
// uncacheable records as misses.
func (p *incPlan) lookup(mc *store.MethodCache, key string) *collector.MethodRecord {
	data, ok := mc.Get(store.MethodKeyFor(p.optionsFP, p.fps[key]))
	if !ok {
		return nil
	}
	rec, err := collector.DecodeRecord(data)
	if err != nil || rec.Key() != key || !rec.Cacheable() {
		return nil
	}
	return rec
}

// splice grafts the cached trees of every skip-listed method that actually
// ran into the collection result, and fills the incremental counters:
// MethodsCached (spliced) and MethodsExecuted (methods that collected fresh
// trees this run). Skipped methods that never ran stay absent and
// reassemble as stubs, exactly as they would on the full path.
func (p *incPlan) splice(col *collector.Collector, m *pipeline.AppMetrics, span *obs.Span) {
	for _, rec := range col.Result().Methods {
		if rec.Executed() {
			m.MethodsExecuted++
		}
	}
	touched := col.SkipTouched()
	keys := make([]string, 0, len(touched))
	for k := range touched {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		rec, ok := p.cached[key]
		if !ok {
			continue
		}
		if n := col.Result().SpliceRecord(rec); n > 0 {
			m.MethodsCached++
			span.TreeSplice(key, n)
		}
	}
}

// storeBack admits every fresh, cacheable, fingerprintable record into the
// method cache. Spliced records are already present under the same key;
// methods outside the fingerprint map (dynamically loaded DEX) and records
// poisoned by code writes or divergence forks are never admitted. Cache
// write failures are deliberately dropped: the cache is an accelerator, not
// an output.
func (p *incPlan) storeBack(res *collector.Result, mc *store.MethodCache) {
	for key, rec := range res.Methods {
		if p.skip[key] || !rec.Cacheable() {
			continue
		}
		fp, ok := p.fps[key]
		if !ok {
			continue
		}
		data, err := collector.EncodeRecord(rec)
		if err != nil {
			continue
		}
		_ = mc.Put(store.MethodKeyFor(p.optionsFP, fp), data)
	}
}
