package dexlego_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	root "dexlego"
	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/droidbench"
	"dexlego/internal/hotbench"
	"dexlego/internal/obs"
	"dexlego/internal/store"
	"dexlego/internal/workload"
)

// The incremental-reveal property suite: splicing cached per-method trees
// must never be observable in the output. Every test reveals the same input
// twice — once on the full path, once incrementally — and requires the
// revealed DEX bytes to be identical; the tests run under both interpreter
// modes (DEXLEGO_PREDECODE on/off) and are part of the -race CI job.

// predecodeModes names the two interpreter configurations the suite covers.
var predecodeModes = []string{"off", "on"}

// revealTraced runs one traced Reveal and returns the revealed DEX bytes
// plus the result. A dropped obs event fails the test: the incremental path
// adds three event types and must not overflow the plane.
func revealTraced(t *testing.T, pkg *apk.APK, opts root.Options) ([]byte, *root.Result) {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.New(obs.NewJSONLSink(&buf))
	opts.Tracer = tr
	res, err := root.Reveal(pkg, opts)
	if err != nil {
		t.Fatalf("reveal: %v", err)
	}
	if n := tr.Dropped(); n > 0 {
		t.Fatalf("%d obs events dropped", n)
	}
	d, err := res.Revealed.Dex()
	if err != nil {
		t.Fatal(err)
	}
	return d, res
}

// TestIncrementalGoldenCorpusSelfChain reveals every golden-corpus sample as
// its own one-link version chain: a full reference reveal, then two
// incremental reveals sharing one method cache. The first warms the cache,
// the second must splice from it — and both must be byte-identical to the
// reference, including the self-modifying samples whose tampered methods are
// barred from the cache.
func TestIncrementalGoldenCorpusSelfChain(t *testing.T) {
	for _, mode := range predecodeModes {
		for _, name := range hotbench.CorpusNames {
			name := name
			t.Run(fmt.Sprintf("predecode-%s/%s", mode, name), func(t *testing.T) {
				t.Setenv("DEXLEGO_PREDECODE", mode)
				s := droidbench.ByName(name)
				if s == nil {
					t.Fatalf("corpus sample %q missing", name)
				}
				pkg, err := s.Build()
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				mc, err := store.OpenMethodCache("", 0)
				if err != nil {
					t.Fatal(err)
				}
				full := root.Options{ForceExecution: true, Workers: 1, Natives: s.Natives()}
				incr := full
				incr.MethodCache = mc

				ref, _ := revealTraced(t, pkg, full)
				warm, _ := revealTraced(t, pkg, incr)
				if !bytes.Equal(ref, warm) {
					t.Errorf("cache-warming incremental reveal differs from full (%d vs %d bytes)",
						len(ref), len(warm))
				}
				hot, res := revealTraced(t, pkg, incr)
				if !bytes.Equal(ref, hot) {
					t.Errorf("spliced incremental reveal differs from full (%d vs %d bytes)",
						len(ref), len(hot))
				}
				if res.Metrics.MethodsCached == 0 {
					t.Errorf("second incremental reveal spliced no methods")
				}
			})
		}
	}
}

// TestIncrementalVersionChain is the cross-version property: over a
// generated 5-link version chain, an incremental reveal whose cache was
// warmed by all earlier links must be byte-identical to a cold full reveal
// at every link, on both the force-execution and the plain collection path.
// The 1-mutation body-edit link additionally must clear the CI gate's
// method-cache hit-ratio floor of 80%.
func TestIncrementalVersionChain(t *testing.T) {
	apps, err := workload.VersionChain(workload.ChainConfig{Methods: 12, Links: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range predecodeModes {
		for _, force := range []bool{true, false} {
			mode, force := mode, force
			t.Run(fmt.Sprintf("predecode-%s/force-%t", mode, force), func(t *testing.T) {
				t.Setenv("DEXLEGO_PREDECODE", mode)
				mc, err := store.OpenMethodCache("", 0)
				if err != nil {
					t.Fatal(err)
				}
				for i, app := range apps {
					full := root.Options{ForceExecution: force, Workers: 2}
					incr := full
					incr.MethodCache = mc

					ref, _ := revealTraced(t, app.APK, full)
					hitsBefore, missesBefore := mc.Hits(), mc.Misses()
					got, res := revealTraced(t, app.APK, incr)
					if !bytes.Equal(ref, got) {
						t.Errorf("%s: incremental reveal differs from full (%d vs %d bytes)",
							app.Name, len(ref), len(got))
					}
					if i == 0 {
						continue
					}
					if res.Metrics.MethodsCached == 0 {
						t.Errorf("%s: spliced no methods despite warmed cache", app.Name)
					}
					if i == 1 {
						// v2 is the 1-mutation link: one worker body changed, so
						// only it and its caller (onCreate) may miss.
						hits := float64(mc.Hits() - hitsBefore)
						misses := float64(mc.Misses() - missesBefore)
						if ratio := hits / (hits + misses); ratio < 0.8 {
							t.Errorf("%s: method-cache hit ratio %.2f below 0.8 (%v hits, %v misses)",
								app.Name, ratio, hits, misses)
						}
						if res.Metrics.MethodsExecuted == 0 {
							t.Errorf("%s: mutated method did not execute fresh", app.Name)
						}
					}
				}
			})
		}
	}
}

// TestIncrementalSelfModifyingNeverCached pins the uncacheability rule:
// a method observed writing its own bytecode (SelfModifying1/2 tamper
// advancedLeak between loop iterations) must never be admitted to the
// method cache, however many times it is revealed — it re-executes every
// run, and the output stays byte-identical to the full path.
func TestIncrementalSelfModifyingNeverCached(t *testing.T) {
	for _, name := range []string{"SelfModifying1", "SelfModifying2"} {
		name := name
		t.Run(name, func(t *testing.T) {
			s := droidbench.ByName(name)
			if s == nil {
				t.Fatalf("sample %q missing", name)
			}
			pkg, err := s.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			mc, err := store.OpenMethodCache("", 0)
			if err != nil {
				t.Fatal(err)
			}
			full := root.Options{ForceExecution: true, Workers: 1, Natives: s.Natives()}
			incr := full
			incr.MethodCache = mc

			ref, _ := revealTraced(t, pkg, full)
			for run := 0; run < 2; run++ {
				got, _ := revealTraced(t, pkg, incr)
				if !bytes.Equal(ref, got) {
					t.Errorf("run %d: incremental reveal differs from full (%d vs %d bytes)",
						run, len(ref), len(got))
				}
			}

			// Probe the cache directly: the tampered method's key must be
			// absent while its untampered siblings are resident.
			f, err := pkg.DexFile()
			if err != nil {
				t.Fatal(err)
			}
			fps := root.MethodFingerprints(f)
			optsFP := full.Fingerprint()
			tampered, cachedOthers := 0, 0
			for key, fp := range fps {
				_, ok := mc.Get(store.MethodKeyFor(optsFP, fp))
				if strings.Contains(key, "->advancedLeak(") {
					tampered++
					if ok {
						t.Errorf("self-modifying method %s was served from the cache", key)
					}
				} else if ok {
					cachedOthers++
				}
			}
			if tampered == 0 {
				t.Fatalf("no advancedLeak method among %d fingerprints", len(fps))
			}
			if cachedOthers == 0 {
				t.Errorf("no untampered method entered the cache")
			}
		})
	}
}

// TestIncrementalFallbackMatchesFull drives the skip-violation fallback
// through Reveal. The cache is seeded by a reveal of SelfModifying1 whose
// natives keep their keys but do nothing, so advancedLeak runs untampered
// and enters the cache. A reveal with the real natives then skip-lists it,
// observes the runtime write into it, voids the plan and reruns in full: its
// bytes, sink events and coverage report must equal the full reveal's, with
// nothing kept from the discarded run. The forced rows run the campaign at
// every DEXLEGO_GOLDEN_WORKERS count, so the skip list reaches the engine's
// per-run collector shards and their merges back.
func TestIncrementalFallbackMatchesFull(t *testing.T) {
	s := droidbench.ByName("SelfModifying1")
	if s == nil {
		t.Fatal("sample SelfModifying1 missing")
	}
	pkg, err := s.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	f, err := pkg.DexFile()
	if err != nil {
		t.Fatal(err)
	}
	fps := root.MethodFingerprints(f)
	inert := make(map[string]art.NativeFunc, len(s.Natives()))
	for key := range s.Natives() {
		inert[key] = func(*art.Env, *art.Object, []art.Value) (art.Value, error) {
			return art.Value{}, nil
		}
	}
	rows := []root.Options{{Workers: 1}}
	for _, workers := range goldenWorkers(t) {
		rows = append(rows, root.Options{ForceExecution: true, Workers: workers})
	}
	for _, row := range rows {
		t.Run(fmt.Sprintf("force-%t/workers-%d", row.ForceExecution, row.Workers), func(t *testing.T) {
			mc, err := store.OpenMethodCache("", 0)
			if err != nil {
				t.Fatal(err)
			}
			seed := row
			seed.Natives, seed.MethodCache = inert, mc
			revealTraced(t, pkg, seed)
			cachedTampered := false
			for key, fp := range fps {
				if _, ok := mc.Get(store.MethodKeyFor(seed.Fingerprint(), fp)); ok && strings.Contains(key, "->advancedLeak(") {
					cachedTampered = true
				}
			}
			if !cachedTampered {
				t.Fatal("inert reveal did not cache advancedLeak; the fallback is not exercised")
			}

			full := row
			full.Natives = s.Natives()
			ref, refRes := revealTraced(t, pkg, full)
			incr := full
			incr.MethodCache = mc
			got, res := revealTraced(t, pkg, incr)
			if !bytes.Equal(ref, got) {
				t.Errorf("fallback reveal differs from full (%d vs %d bytes)", len(ref), len(got))
			}
			if !reflect.DeepEqual(res.Sinks, refRes.Sinks) {
				t.Errorf("fallback reveal sinks differ from full:\n got %+v\nwant %+v", res.Sinks, refRes.Sinks)
			}
			if !reflect.DeepEqual(res.Coverage, refRes.Coverage) {
				t.Errorf("fallback reveal coverage differs from full:\n got %+v\nwant %+v", res.Coverage, refRes.Coverage)
			}
			if res.Metrics.MethodsCached != 0 {
				t.Errorf("fallback reveal spliced %d methods from a voided plan", res.Metrics.MethodsCached)
			}
		})
	}
}

// TestIncrementalStoreBackDeterministic pins the store-back order. With a
// byte-capped method cache, which records survive LRU eviction depends on
// the order they were put; that order must come from the method keys, not
// from map iteration, so every reveal into a fresh cache leaves the same
// records resident — with and without the spill tier holding some of them.
func TestIncrementalStoreBackDeterministic(t *testing.T) {
	app := testWhale(t)
	f, err := app.APK.DexFile()
	if err != nil {
		t.Fatal(err)
	}
	fps := root.MethodFingerprints(f)
	for _, spill := range []bool{false, true} {
		t.Run(fmt.Sprintf("spill-%t", spill), func(t *testing.T) {
			// resident reveals into a fresh cache capped at capBytes and
			// returns the cached method keys still in memory.
			resident := func(capBytes int64) (map[string]bool, int64) {
				mc, err := store.OpenMethodCache("", capBytes)
				if err != nil {
					t.Fatal(err)
				}
				opts := root.Options{Workers: 1, MethodCache: mc}
				if spill {
					if opts.SpillCache, err = store.OpenMethodCache("", 0); err != nil {
						t.Fatal(err)
					}
				}
				revealTraced(t, app.APK, opts)
				optsFP := opts.Fingerprint()
				keys := make(map[string]bool)
				for key, fp := range fps {
					if _, ok := mc.Get(store.MethodKeyFor(optsFP, fp)); ok {
						keys[key] = true
					}
				}
				return keys, mc.Bytes()
			}
			all, total := resident(0)
			if len(all) < 8 {
				t.Fatalf("uncapped reveal cached only %d methods", len(all))
			}
			want, _ := resident(total / 2)
			if len(want) == 0 || len(want) == len(all) {
				t.Fatalf("cap %d kept %d of %d records; eviction not exercised", total/2, len(want), len(all))
			}
			for run := 1; run < 20; run++ {
				if got, _ := resident(total / 2); !reflect.DeepEqual(got, want) {
					t.Fatalf("run %d: %d records resident, differing from run 0's %d", run, len(got), len(want))
				}
			}
		})
	}
}
