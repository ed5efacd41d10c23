package dexlego_test

import (
	"bytes"
	"testing"

	root "dexlego"
	"dexlego/internal/droidbench"
	"dexlego/internal/obs"
)

// TestRevealTracesSelfModifyingSample is the observability acceptance test:
// revealing the paper's self-modifying sample under a tracer must produce a
// trace that validates against the event schema, carries one span per
// executed stage, records the self-modification as a tree_fork, and lands
// the same counts in the metrics snapshot.
func TestRevealTracesSelfModifyingSample(t *testing.T) {
	s := droidbench.ByName("SelfModifying1")
	pkg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := obs.New(obs.NewJSONLSink(&buf))
	res, err := root.Reveal(pkg, root.Options{
		Natives:    s.Natives(),
		Tracer:     tr,
		TraceLabel: s.Name,
	})
	if err != nil {
		t.Fatal(err)
	}

	trace, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	apps := trace.Apps()
	if len(apps) != 1 || apps[0].App != s.Name {
		t.Fatalf("trace apps = %+v, want one %s", apps, s.Name)
	}
	app := apps[0]
	for _, stage := range []string{"collection", "reassembly", "verify"} {
		if app.StageNS[stage] <= 0 {
			t.Errorf("stage %s has no span: %+v", stage, app.StageNS)
		}
	}
	forks := 0
	for _, n := range app.ForksByMethod {
		forks += n
	}
	if forks < 1 {
		t.Error("self-modifying sample produced no tree_fork event")
	}
	if app.Count(obs.EventMethodCollected) == 0 || app.CollectedInsns == 0 {
		t.Errorf("no method_collected events: %+v", app)
	}

	// The snapshot in the metrics agrees with the trace and the stats.
	snap := res.Metrics.Obs
	if snap == nil {
		t.Fatal("traced run left Metrics.Obs nil")
	}
	if got := snap.EventCount(obs.EventTreeFork); got != int64(forks) {
		t.Errorf("snapshot forks = %d, trace has %d", got, forks)
	}
	if snap.MaxTreeDepth < 2 {
		t.Errorf("MaxTreeDepth = %d, want >= 2 for self-modifying code", snap.MaxTreeDepth)
	}
	if snap.Dropped != 0 {
		t.Errorf("dropped %d events on an in-memory sink", snap.Dropped)
	}
	if hs := snap.Spans["reveal"]; hs.Count != 1 {
		t.Errorf("reveal span histogram count = %d, want 1", hs.Count)
	}
	if res.Metrics.Validate() != nil {
		t.Errorf("metrics invariant broken: %v", res.Metrics.Validate())
	}
}

// TestRevealStageAccountingInvariant audits the WallNS attribution across
// option combinations: the per-stage sum may never exceed the total wall
// time, stages stay in execution order, and optional stages only appear
// when enabled.
func TestRevealStageAccountingInvariant(t *testing.T) {
	s := droidbench.ByName("SelfModifying1")
	cases := []struct {
		name string
		opts root.Options
	}{
		{"default", root.Options{}},
		{"fuzz", root.Options{Fuzz: true}},
		{"force", root.Options{ForceExecution: true}},
		{"traced", root.Options{Tracer: obs.New(nil)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pkg, err := s.Build()
			if err != nil {
				t.Fatal(err)
			}
			c.opts.Natives = s.Natives()
			res, err := root.Reveal(pkg, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			m := res.Metrics
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			if m.StageSum() > m.Wall() {
				t.Errorf("stage sum %v exceeds wall %v", m.StageSum(), m.Wall())
			}
			wantStages := 3
			if c.opts.Fuzz || c.opts.ForceExecution {
				wantStages = 4
			}
			if len(m.Stages) != wantStages {
				t.Errorf("stages = %+v, want %d entries", m.Stages, wantStages)
			}
		})
	}
}

// TestRevealWithoutTracerHasNoSnapshot pins the default: tracing off means
// no snapshot in the metrics and no obs key in report JSON.
func TestRevealWithoutTracerHasNoSnapshot(t *testing.T) {
	s := droidbench.ByName("SelfModifying1")
	pkg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := root.Reveal(pkg, root.Options{Natives: s.Natives()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Obs != nil {
		t.Errorf("untraced run produced a snapshot: %+v", res.Metrics.Obs)
	}
}
