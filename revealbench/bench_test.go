package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the benchmark must
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	names := workloadNames()
	if len(bf.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(names))
	}
	for i, w := range bf.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, names[i])
		}
	}
	check := func(kind string, got []metricDef, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Errorf("%s: benchmark has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: benchmark %s [%s], BENCHMARK.json %s [%s]",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
}

// TestEveryWorkloadReportsEveryMetric runs each workload briefly in both
// modes and requires every named metric, finite and unit-labelled, with
// every output check passing.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, seconds: 0.2, trace: trace, setups: 1}
			res, err := runBenchmark(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s missing", name, trace, d.name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s trace=%t: metric %s = %v", name, trace, d.name, v.Value)
				case v.Unit == "" || v.Unit != d.unit:
					t.Errorf("%s trace=%t: metric %s unit %q, want %q", name, trace, d.name, v.Unit, d.unit)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, res.Metrics[d.name].Value)
					}
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d",
					name, trace, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}

// TestFailedCheckCountsAsError corrupts one reference: the ops revealing
// that app must be counted as failed, not abort the run.
func TestFailedCheckCountsAsError(t *testing.T) {
	inst, err := setupOneshot(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	o := inst.(*oneshot)
	o.refs[0][0] ^= 0xff
	w := runWindow(o, 1, 300*time.Millisecond, nil)
	if w.failed == 0 {
		t.Fatalf("%d ops over a corrupted reference, none failed", w.attempted)
	}
	if w.attempted <= w.failed {
		t.Errorf("attempted %d, failed %d: only one app's reference was corrupted", w.attempted, w.failed)
	}
	res, err := assemble(endToEnd, map[string]float64{}, w.attempted, w.failed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != w.failed {
		t.Errorf("result correct=%t failed=%d, want false and %d", res.Correct, res.Failed, w.failed)
	}
}
