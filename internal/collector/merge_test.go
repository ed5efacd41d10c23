package collector_test

import (
	"encoding/json"
	"testing"

	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/collector"
	"dexlego/internal/dexgen"
	"dexlego/internal/droidbench"
	"dexlego/internal/fuzzer"
)

// collectRun executes the sample once under col's hooks: run 0 drives the
// launch-and-click lifecycle, later runs use distinct fuzzer seeds so the
// corpus exercises different paths (and different tree fork/converge
// shapes) per run.
func collectRun(t testing.TB, s *droidbench.Sample, pkg *apk.APK, col *collector.Collector, run int) {
	t.Helper()
	rt := art.NewRuntime(art.DefaultPhone())
	for key, fn := range s.Natives() {
		rt.RegisterNative(key, fn)
	}
	s.InstallNatives(rt)
	rt.AddHooks(col.Hooks())
	if err := rt.LoadAPK(pkg); err != nil {
		t.Fatal(err)
	}
	if run == 0 {
		activity, err := rt.LaunchActivity()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range rt.Clickables() {
			_ = rt.PerformClick(id)
		}
		_ = rt.FinishActivity(activity)
		return
	}
	_ = fuzzer.New(int64(run)).Drive(rt, nil) // app crashes do not abort collection
}

func canonicalJSON(t *testing.T, r *collector.Result) string {
	t.Helper()
	r.Canonicalize()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestMergeShardedEqualsSerial is the determinism spine of parallel
// force-execution: collecting N runs into one collector (serial) and
// collecting each run into its own shard then merging — under any shard
// count and any merge order — must produce the same canonical result.
func TestMergeShardedEqualsSerial(t *testing.T) {
	const runs = 8
	for _, name := range []string{"SelfModifying1", "SelfModifying2"} {
		t.Run(name, func(t *testing.T) {
			s := droidbench.ByName(name)
			if s == nil {
				t.Fatalf("sample %s missing", name)
			}
			pkg, err := s.Build()
			if err != nil {
				t.Fatal(err)
			}

			serial := collector.New()
			for run := 0; run < runs; run++ {
				collectRun(t, s, pkg, serial, run)
			}
			want := canonicalJSON(t, serial.Result())

			// One shard per run, then grouped k ways.
			shards := make([]*collector.Result, runs)
			total := 0
			for run := 0; run < runs; run++ {
				col := collector.New()
				collectRun(t, s, pkg, col, run)
				shards[run] = col.Result()
				for _, rec := range shards[run].Methods {
					total += len(rec.Trees)
				}
			}

			for _, k := range []int{1, 2, 4, 8} {
				// Each group merges its runs in order; groups then fold into
				// the final result — the same two-level shape as the engine's
				// iteration barrier.
				groups := make([]*collector.Result, k)
				for i := range groups {
					groups[i] = collector.New().Result()
				}
				for run := 0; run < runs; run++ {
					// Re-collect: Merge consumes its argument.
					col := collector.New()
					collectRun(t, s, pkg, col, run)
					groups[run%k].Merge(col.Result())
				}

				merged := collector.New().Result()
				offered, kept := 0, 0
				for _, g := range groups {
					st := merged.Merge(g)
					offered += st.TreesOffered
					kept += st.TreesKept
				}
				if got := canonicalJSON(t, merged); got != want {
					t.Errorf("k=%d: merged result diverges from serial collection", k)
				}
				if kept > offered {
					t.Errorf("k=%d: merge stats kept %d of %d offered", k, kept, offered)
				}

				// Reversed merge order must not change the outcome.
				rev := collector.New().Result()
				for i := len(groups) - 1; i >= 0; i-- {
					// Groups were consumed above; rebuild them.
					g := collector.New().Result()
					for run := i; run < runs; run += k {
						col := collector.New()
						collectRun(t, s, pkg, col, run)
						g.Merge(col.Result())
					}
					rev.Merge(g)
				}
				if got := canonicalJSON(t, rev); got != want {
					t.Errorf("k=%d: reversed merge order diverges from serial collection", k)
				}
			}

			// Merging every per-run shard directly (k = runs, no grouping)
			// keeps exactly the unique trees.
			flat := collector.New().Result()
			kept := 0
			for _, sh := range shards {
				kept += flat.Merge(sh).TreesKept
			}
			uniq := 0
			for _, rec := range flat.Methods {
				uniq += len(rec.Trees)
			}
			if kept != uniq {
				t.Errorf("kept %d trees but result holds %d", kept, uniq)
			}
			if got := canonicalJSON(t, flat); got != want {
				t.Error("flat merge diverges from serial collection")
			}
		})
	}

	// Class records that conflict across runs resolve to the same survivor
	// in either merge order; equal records (distinct pointers, equal
	// values) never count as adopted.
	t.Run("class-conflict", func(t *testing.T) {
		class := func(v *collector.ValueRecord) *collector.Result {
			return &collector.Result{
				Classes: []collector.ClassRecord{{
					Descriptor: "Lc/K;",
					Superclass: "Ljava/lang/Object;",
					StaticFields: []collector.FieldRecord{
						{Name: "MODE", Type: "I", Value: v},
					},
				}},
				Methods: map[string]*collector.MethodRecord{},
			}
		}
		small := func() *collector.ValueRecord { return &collector.ValueRecord{Kind: "int", Int: 1} }
		large := func() *collector.ValueRecord { return &collector.ValueRecord{Kind: "int", Int: 20} }
		for _, pair := range [][2]func() *collector.ValueRecord{{small, large}, {large, small}} {
			dst := class(pair[0]())
			st := dst.Merge(class(pair[1]()))
			if got := dst.Classes[0].StaticFields[0].Value.Int; got != 1 {
				t.Errorf("merge order %d<-%d kept MODE=%d, want 1 (smaller encoding)",
					pair[0]().Int, pair[1]().Int, got)
			}
			if wantAdopted := pair[1]().Int == 1; (st.Classes == 1) != wantAdopted {
				t.Errorf("merge order %d<-%d adopted %d classes", pair[0]().Int, pair[1]().Int, st.Classes)
			}
		}
		if st := class(small()).Merge(class(small())); st.Classes != 0 {
			t.Errorf("equal class records adopted %d classes, want 0", st.Classes)
		}
		withNil, withValue := class(nil), class(small())
		withNil.Merge(class(small()))
		withValue.Merge(class(nil))
		if canonicalJSON(t, withNil) != canonicalJSON(t, withValue) {
			t.Error("a value/no-value conflict resolves differently in the two merge orders")
		}
	})
}

// TestMergeSelfAndNil pins the degenerate cases: merging nil is a no-op and
// re-merging an already-adopted shard dedups everything.
func TestMergeSelfAndNil(t *testing.T) {
	s := droidbench.ByName("SelfModifying1")
	pkg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	col := collector.New()
	collectRun(t, s, pkg, col, 0)

	dst := collector.New().Result()
	if st := dst.Merge(nil); st != (collector.MergeStats{}) {
		t.Errorf("nil merge produced stats %+v", st)
	}
	first := dst.Merge(col.Result())
	if first.TreesKept == 0 || first.TreesKept != first.TreesOffered {
		t.Errorf("first merge into empty result: %+v", first)
	}

	again := collector.New()
	collectRun(t, s, pkg, again, 0)
	second := dst.Merge(again.Result())
	if second.TreesKept != 0 {
		t.Errorf("identical run re-merge kept %d trees, want 0 (all dedup hits)", second.TreesKept)
	}
	if second.Classes != 0 {
		t.Errorf("identical run re-merge adopted %d classes, want 0", second.Classes)
	}
}

// TestShardInheritsSkipAndMergesIt pins the skip list's trip through the
// force engine's shards: a shard skips what its parent skips, and merging
// it back carries the skipped methods it saw run into the parent's touched
// set, so their cached trees still splice.
func TestShardInheritsSkipAndMergesIt(t *testing.T) {
	p := dexgen.New()
	cls := p.Class("Lc/S;", "")
	cls.Static("leaf", "V", nil, func(a *dexgen.Asm) { a.ReturnVoid() })
	cls.Static("top", "V", nil, func(a *dexgen.Asm) {
		a.InvokeStatic("Lc/S;", "leaf", "()V")
		a.ReturnVoid()
	})
	data, err := p.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	pkg := apk.New("shard", "1", "")
	pkg.SetDex(data)

	const leaf, top = "Lc/S;->leaf()V", "Lc/S;->top()V"
	col := collector.New()
	col.SetSkip(map[string]bool{leaf: true})
	shard := col.Shard()
	if !shard.Skipped(leaf) || shard.Skipped(top) {
		t.Fatalf("shard skip list: leaf %t, top %t; want true, false", shard.Skipped(leaf), shard.Skipped(top))
	}
	rt := art.NewRuntime(art.DefaultPhone())
	rt.AddHooks(shard.Hooks())
	if err := rt.LoadAPK(pkg); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Call("Lc/S;", "top", "()V", nil, nil); err != nil {
		t.Fatal(err)
	}
	if rec := shard.Result().Methods[leaf]; rec != nil && rec.Executed() {
		t.Errorf("shard collected trees for skipped %s", leaf)
	}
	col.Merge(shard)
	if !col.SkipTouched()[leaf] {
		t.Errorf("merged parent lost the shard's touch of %s", leaf)
	}
	if rec := col.Result().Methods[top]; rec == nil || !rec.Executed() {
		t.Errorf("merged parent lacks the shard's trees for %s", top)
	}
}
