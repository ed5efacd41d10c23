package dexlego_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	root "dexlego"
	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/droidbench"
	"dexlego/internal/hotbench"
	"dexlego/internal/obs"
)

// projectEvents canonicalizes a JSONL trace for differential comparison:
// wall-clock fields (timestamps, durations) and process-global span ids
// are zeroed. No event type is dropped: the two
// interpreters emit the same vocabulary, so every event — collection-tree
// forks, reassembly decisions, forced-run lifecycle — must match event for
// event.
func projectEvents(t *testing.T, trace []byte) []string {
	t.Helper()
	var out []string
	sc := bufio.NewScanner(bytes.NewReader(trace))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line %q: %v", sc.Bytes(), err)
		}
		ev.TS = 0
		ev.Span = 0
		ev.Parent = 0
		ev.DurNS = 0
		line, err := json.Marshal(&ev)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(line))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// revealWithPredecode runs one traced Reveal with the interpreter mode
// forced through the DEXLEGO_PREDECODE toggle, returning the revealed DEX
// bytes and the projected event stream.
func revealWithPredecode(t *testing.T, pkg *apk.APK, natives map[string]art.NativeFunc,
	predecode bool, opts root.Options) ([]byte, []string) {
	t.Helper()
	mode := "on"
	if !predecode {
		mode = "off"
	}
	t.Setenv("DEXLEGO_PREDECODE", mode)
	var trace bytes.Buffer
	opts.Natives = natives
	opts.Tracer = obs.New(obs.NewJSONLSink(&trace))
	res, err := root.Reveal(pkg, opts)
	if err != nil {
		t.Fatalf("reveal (predecode %s): %v", mode, err)
	}
	dexBytes, err := res.Revealed.Dex()
	if err != nil {
		t.Fatal(err)
	}
	return dexBytes, projectEvents(t, trace.Bytes())
}

// diffStreams reports the first diverging event between two projected
// streams, with enough context to localize it.
func diffStreams(t *testing.T, ref, got []string) {
	t.Helper()
	n := len(ref)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if ref[i] != got[i] {
			t.Errorf("event %d diverges:\n predecode off: %s\n predecode on:  %s", i, ref[i], got[i])
			return
		}
	}
	if len(ref) != len(got) {
		t.Errorf("event count diverges: %d (predecode off) vs %d (predecode on)", len(ref), len(got))
	}
}

// TestPredecodeDifferentialDroidBench is the differential proof of the
// predecoded handler-table interpreter: every DroidBench sample is revealed
// once with the reference decode-per-step interpreter and once with
// predecode on, and both the revealed DEX bytes and the projected obs event
// streams must be identical. Workers is pinned to 1 so the serial event
// order is the comparison key.
func TestPredecodeDifferentialDroidBench(t *testing.T) {
	for _, s := range droidbench.Suite() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			pkg, err := s.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			refDex, refEvents := revealWithPredecode(t, pkg, s.Natives(), false,
				root.Options{Workers: 1})
			gotDex, gotEvents := revealWithPredecode(t, pkg, s.Natives(), true,
				root.Options{Workers: 1})
			if !bytes.Equal(refDex, gotDex) {
				t.Errorf("revealed DEX differs between interpreters (%d vs %d bytes)",
					len(refDex), len(gotDex))
			}
			diffStreams(t, refEvents, gotEvents)
		})
	}
}

// TestPredecodeDifferentialGoldenCorpus deepens the check on the pinned
// hotbench corpus: force execution is enabled so the differential covers
// branch overrides, the forced-run pool and the coverage module, and the
// byte-identity is additionally asserted at Workers > 1, where all shard
// runtimes of a campaign share one predecoded-program cache.
func TestPredecodeDifferentialGoldenCorpus(t *testing.T) {
	for _, name := range hotbench.CorpusNames {
		s := droidbench.ByName(name)
		if s == nil {
			t.Fatalf("corpus sample %q missing", name)
		}
		t.Run(name, func(t *testing.T) {
			pkg, err := s.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			refDex, refEvents := revealWithPredecode(t, pkg, s.Natives(), false,
				root.Options{Workers: 1, ForceExecution: true})
			gotDex, gotEvents := revealWithPredecode(t, pkg, s.Natives(), true,
				root.Options{Workers: 1, ForceExecution: true})
			if !bytes.Equal(refDex, gotDex) {
				t.Errorf("revealed DEX differs between interpreters (%d vs %d bytes)",
					len(refDex), len(gotDex))
			}
			diffStreams(t, refEvents, gotEvents)

			// Shard parallelism must not change the bytes either: the forced
			// runs then race on the shared program cache (exercised hard
			// under -race).
			parDex, _ := revealWithPredecode(t, pkg, s.Natives(), true,
				root.Options{Workers: 4, ForceExecution: true})
			if !bytes.Equal(refDex, parDex) {
				t.Errorf("revealed DEX differs at Workers=4 (%d vs %d bytes)",
					len(refDex), len(parDex))
			}
		})
	}
}
