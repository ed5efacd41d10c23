package hotbench

import (
	"testing"
	"time"
)

// TestRunEmitsAllStages runs the harness with a minimal budget and checks
// the report carries every stage with sane figures and survives a JSON
// round trip.
func TestRunEmitsAllStages(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run is slow under -short")
	}
	rep, err := Run(Config{BenchTime: time.Millisecond, MinIters: 1, Workers: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{StageDecode, StageCollection, StageReassembly, StageEncode, StageVerify,
		StageReveal, StageForceExec, StageForceExecW1, StageRevealChain, StageRevealIncr}
	if len(rep.Stages) != len(want) {
		t.Fatalf("got %d stages, want %d", len(rep.Stages), len(want))
	}
	for i, name := range want {
		sb := rep.Stages[i]
		if sb.Stage != name {
			t.Errorf("stage[%d] = %q, want %q", i, sb.Stage, name)
		}
		if sb.NsPerOp <= 0 || sb.AllocsPerOp <= 0 || sb.Iterations < 1 {
			t.Errorf("stage %s has degenerate figures: %+v", name, sb)
		}
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	back, err := DecodeReport(data)
	if err != nil {
		t.Fatalf("DecodeReport: %v", err)
	}
	if len(back.Stages) != len(rep.Stages) || back.Schema != Schema {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if msgs := Compare(back, rep, DefaultNsTolerance, DefaultAllocsTolerance, DefaultBytesTolerance); len(msgs) != 0 {
		t.Fatalf("self-compare flagged regressions: %v", msgs)
	}
}

// TestCompareFlagsRegressions checks the gate arithmetic: ns/op beyond the
// ns tolerance and allocs/op beyond the allocs tolerance each produce a
// violation, and a corpus mismatch refuses the comparison outright.
func TestCompareFlagsRegressions(t *testing.T) {
	base := &Report{
		Schema: Schema,
		Corpus: []string{"A", "B"},
		Stages: []StageBench{{Stage: StageReveal, NsPerOp: 1000, BytesPerOp: 500, AllocsPerOp: 100, Iterations: 5}},
	}
	ok := &Report{
		Schema: Schema,
		Corpus: []string{"A", "B"},
		Stages: []StageBench{{Stage: StageReveal, NsPerOp: 1100, BytesPerOp: 520, AllocsPerOp: 105, Iterations: 5}},
	}
	if msgs := Compare(base, ok, DefaultNsTolerance, DefaultAllocsTolerance, DefaultBytesTolerance); len(msgs) != 0 {
		t.Fatalf("within-tolerance run flagged: %v", msgs)
	}
	slow := &Report{
		Schema: Schema,
		Corpus: []string{"A", "B"},
		Stages: []StageBench{{Stage: StageReveal, NsPerOp: 1200, BytesPerOp: 500, AllocsPerOp: 100, Iterations: 5}},
	}
	if msgs := Compare(base, slow, DefaultNsTolerance, DefaultAllocsTolerance, DefaultBytesTolerance); len(msgs) != 1 {
		t.Fatalf("ns/op regression not flagged exactly once: %v", msgs)
	}
	leaky := &Report{
		Schema: Schema,
		Corpus: []string{"A", "B"},
		Stages: []StageBench{{Stage: StageReveal, NsPerOp: 1000, BytesPerOp: 500, AllocsPerOp: 120, Iterations: 5}},
	}
	if msgs := Compare(base, leaky, DefaultNsTolerance, DefaultAllocsTolerance, DefaultBytesTolerance); len(msgs) != 1 {
		t.Fatalf("allocs/op regression not flagged exactly once: %v", msgs)
	}
	otherCorpus := &Report{
		Schema: Schema,
		Corpus: []string{"A", "C"},
		Stages: base.Stages,
	}
	if msgs := Compare(base, otherCorpus, DefaultNsTolerance, DefaultAllocsTolerance, DefaultBytesTolerance); len(msgs) == 0 {
		t.Fatal("corpus mismatch not refused")
	}
}
