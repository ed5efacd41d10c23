package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestReadTraceRejectsBadLines(t *testing.T) {
	cases := []struct{ name, line string }{
		{"unknown type", `{"ev":"warp","tsNS":1}`},
		{"unknown field", `{"ev":"tree_fork","tsNS":1,"method":"m","depth":1,"zorp":3}`},
		{"fork without method", `{"ev":"tree_fork","tsNS":1,"depth":1}`},
		{"fork without depth", `{"ev":"tree_fork","tsNS":1,"method":"m"}`},
		{"flip with bad branch", `{"ev":"ucb_flip","tsNS":1,"method":"m","branch":"sideways"}`},
		{"span without name", `{"ev":"span_start","tsNS":1,"span":4}`},
		{"negative timestamp", `{"ev":"stub_emitted","tsNS":-1,"method":"m"}`},
		{"merge shrink impossible", `{"ev":"merge_variant","tsNS":1,"method":"m","from":1,"count":3}`},
		{"defect without detail", `{"ev":"verify_defect","tsNS":1}`},
		{"cache hit without key", `{"ev":"cache_hit","tsNS":1}`},
		{"cache miss without key", `{"ev":"cache_miss","tsNS":1}`},
		{"enqueue without job id", `{"ev":"job_enqueued","tsNS":1}`},
		{"queue wait without job id", `{"ev":"queue_wait","tsNS":1,"durNS":5}`},
		{"queue wait negative", `{"ev":"queue_wait","tsNS":1,"detail":"job-1","durNS":-5}`},
		{"job done bad outcome", `{"ev":"job_done","tsNS":1,"detail":"job-1","name":"maybe"}`},
		{"job done without job id", `{"ev":"job_done","tsNS":1,"name":"ok"}`},
		{"resource sample without stage", `{"ev":"resource_sample","tsNS":1,"bytes":10}`},
		{"resource sample negative bytes", `{"ev":"resource_sample","tsNS":1,"name":"collection","bytes":-1}`},
		{"slo violation without job id", `{"ev":"slo_violation","tsNS":1,"durNS":10,"sloNS":5}`},
		{"slo violation without objective", `{"ev":"slo_violation","tsNS":1,"detail":"job-1","durNS":10}`},
		{"slo violation not violated", `{"ev":"slo_violation","tsNS":1,"detail":"job-1","durNS":3,"sloNS":5}`},
		{"flight dump bad reason", `{"ev":"flight_dump","tsNS":1,"detail":"job-1","name":"sunny","count":3}`},
		{"flight dump without job id", `{"ev":"flight_dump","tsNS":1,"name":"failed","count":3}`},
		{"flight dump negative count", `{"ev":"flight_dump","tsNS":1,"detail":"job-1","name":"failed","count":-3}`},
		{"peer fetch bad outcome", `{"ev":"peer_fetch","tsNS":1,"detail":"k","target":"n1","name":"sideways"}`},
		{"peer fetch without peer", `{"ev":"peer_fetch","tsNS":1,"detail":"k","name":"hit"}`},
		{"forward bad role", `{"ev":"fleet_forward","tsNS":1,"detail":"k","target":"n1","name":"bystander"}`},
		{"forward without key", `{"ev":"fleet_forward","tsNS":1,"target":"n1","name":"owner"}`},
		{"hop without node", `{"ev":"fleet_hop","tsNS":1,"detail":"job-1"}`},
		{"ring rebuild empty", `{"ev":"ring_rebuild","tsNS":1,"from":3}`},
		{"ring rebuild overfull", `{"ev":"ring_rebuild","tsNS":1,"count":4,"from":3}`},
		{"not json", `hello`},
	}
	for _, c := range cases {
		if _, err := ReadTrace(strings.NewReader(c.line + "\n")); err == nil {
			t.Errorf("%s: line %q must be rejected", c.name, c.line)
		}
	}
	// Error carries the offending line number.
	good := `{"ev":"span_start","tsNS":1,"span":1,"name":"reveal"}`
	_, err := ReadTrace(strings.NewReader(good + "\n" + `{"ev":"warp"}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error must name line 2, got %v", err)
	}
}

func TestReadTraceSkipsBlankLines(t *testing.T) {
	in := "\n" + `{"ev":"span_start","tsNS":1,"span":1,"name":"reveal","app":"a"}` + "\n\n"
	tr, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 1 {
		t.Fatalf("got %d events, want 1", len(tr.Events))
	}
}

// buildTwoAppTrace emits a realistic two-app trace through real tracers
// sharing one sink, as cmd/dexlego -batch -trace-out does.
func buildTwoAppTrace(t *testing.T) *Trace {
	t.Helper()
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)

	trA := New(sink)
	rootA := trA.Start("reveal", "app-a")
	colA := rootA.Start("stage.collection")
	colA.TreeFork("La;->m()V", 6, 1)
	colA.TreeFork("La;->m()V", 6, 2)
	colA.TreeConverge("La;->m()V", 10, 1)
	colA.MethodCollected("La;->m()V", 3, 40)
	colA.MethodCollected("La;->n()V", 1, 7)
	colA.End()
	feA := rootA.Start("stage.force-execution")
	feA.UCBFlip("La;->m()V", 6, true, 0)
	feA.UCBFlip("La;->m()V", 8, false, 1)
	feA.ExceptionTolerated("La;->m()V", 9)
	feA.End()
	reA := rootA.Start("stage.reassembly")
	reA.MergeVariant("La;->m()V", 3, 2)
	reA.StubEmitted("La;->unused()V")
	reA.ReflectionRewrite("La;->r()V", 4, "call_0")
	reA.End()
	rootA.End()

	trB := New(sink)
	rootB := trB.Start("reveal", "app-b")
	colB := rootB.Start("stage.collection")
	colB.MethodCollected("Lb;->p()V", 1, 3)
	colB.End()
	rootB.End()

	tr, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTraceAppsAttribution(t *testing.T) {
	apps := buildTwoAppTrace(t).Apps()
	if len(apps) != 2 {
		t.Fatalf("got %d apps, want 2", len(apps))
	}
	a, b := apps[0], apps[1]
	if a.App != "app-a" || b.App != "app-b" {
		t.Fatalf("apps sorted wrong: %q, %q", a.App, b.App)
	}
	if a.ForksByMethod["La;->m()V"] != 2 || a.Count(EventTreeConverge) != 1 {
		t.Errorf("app-a forks/converges wrong: %+v, %d", a.ForksByMethod, a.Count(EventTreeConverge))
	}
	if a.Count(EventMethodCollected) != 2 || a.CollectedInsns != 47 {
		t.Errorf("app-a methods/insns = %d/%d, want 2/47", a.Count(EventMethodCollected), a.CollectedInsns)
	}
	if a.TreeDepthHist[3] != 1 || a.TreeDepthHist[1] != 1 {
		t.Errorf("app-a depth hist wrong: %+v", a.TreeDepthHist)
	}
	if a.FlipsByIter[0] != 1 || a.FlipsByIter[1] != 1 || a.Count(EventExceptionTolerated) != 1 {
		t.Errorf("app-a flips wrong: %+v", a.FlipsByIter)
	}
	if len(a.Merges) != 1 || a.Merges[0] != (MergeDecision{"La;->m()V", 3, 2}) {
		t.Errorf("app-a merges wrong: %+v", a.Merges)
	}
	if a.Count(EventStubEmitted) != 1 || a.Count(EventReflectionRewrite) != 1 {
		t.Errorf("app-a stubs/refl = %d/%d", a.Count(EventStubEmitted), a.Count(EventReflectionRewrite))
	}
	if len(a.StageNS) != 3 || a.StageNS["collection"] <= 0 {
		t.Errorf("app-a stages wrong: %+v", a.StageNS)
	}
	if a.WallNS <= 0 {
		t.Errorf("app-a wall = %d, want > 0", a.WallNS)
	}
	if b.Count(EventMethodCollected) != 1 || len(b.ForksByMethod) != 0 {
		t.Errorf("app-b contaminated by app-a events: %+v", b)
	}
}

// TestTelemetryEventsAggregation drives the three telemetry emitters
// through a real tracer and checks both schema acceptance and per-app
// aggregation of the resource/SLO/flight counters.
func TestTelemetryEventsAggregation(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewJSONLSink(&buf))
	root := tr.Start("reveal", "app-a")
	root.ResourceSample("collection", 1000, 400)
	root.ResourceSample("reassembly", 500, 900)
	root.ResourceSample("verify", 200, -100) // heap shrank: legal, not a peak
	root.SLOViolation("job-1", 10*time.Millisecond, 5*time.Millisecond)
	root.FlightDump("job-1", 42, FlightReasonSLO)
	root.End()

	trace, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("telemetry events failed schema validation: %v", err)
	}
	apps := trace.Apps()
	if len(apps) != 1 {
		t.Fatalf("got %d apps, want 1", len(apps))
	}
	a := apps[0]
	if a.Count(EventResourceSample) != 3 || a.AllocBytes != 1700 {
		t.Errorf("samples/alloc = %d/%d, want 3/1700", a.Count(EventResourceSample), a.AllocBytes)
	}
	if a.PeakHeapDelta != 900 {
		t.Errorf("peak heap delta = %d, want 900", a.PeakHeapDelta)
	}
	if a.Count(EventSLOViolation) != 1 || a.Count(EventFlightDump) != 1 {
		t.Errorf("slo/flight = %d/%d, want 1/1", a.Count(EventSLOViolation), a.Count(EventFlightDump))
	}
	rep := trace.ReportString()
	for _, want := range []string{"resources:", "SLO violations: 1"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestTraceReportString(t *testing.T) {
	rep := buildTwoAppTrace(t).ReportString()
	for _, want := range []string{
		"app app-a",
		"app app-b",
		"stage collection",
		"tree depth histogram: depth1:1 depth3:1",
		"La;->m()V",
		"ucb flips by iteration: iter0:1 iter1:1",
		"3 tree(s) -> 2 array(s)",
		"stubs: 1, reflection rewrites: 1, verify defects: 0",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestTraceUnattributedEvents(t *testing.T) {
	// An event referencing a span that never started lands in the
	// unattributed bucket rather than being dropped or crashing.
	in := `{"ev":"stub_emitted","tsNS":5,"span":999,"method":"Lx;->y()V"}`
	tr, err := ReadTrace(strings.NewReader(in + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	apps := tr.Apps()
	if len(apps) != 1 || apps[0].App != "(unattributed)" || apps[0].Count(EventStubEmitted) != 1 {
		t.Errorf("unattributed bucket wrong: %+v", apps)
	}
}
