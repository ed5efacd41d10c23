package obs

import (
	"encoding/json"
	"testing"
)

// minimalEvents holds, per event type, the smallest line the schema
// accepts — every payload key in it is load-bearing — and the key of its
// enum label, if it has one.
var minimalEvents = map[EventType]struct{ line, label string }{
	EventSpanStart:           {`{"ev":"span_start","tsNS":1,"span":1,"name":"reveal"}`, ""},
	EventSpanEnd:             {`{"ev":"span_end","tsNS":1,"span":1,"name":"reveal"}`, ""},
	EventMethodCollected:     {`{"ev":"method_collected","tsNS":1,"method":"m","depth":1,"count":3}`, ""},
	EventTreeFork:            {`{"ev":"tree_fork","tsNS":1,"method":"m","depth":1}`, ""},
	EventTreeConverge:        {`{"ev":"tree_converge","tsNS":1,"method":"m","depth":1}`, ""},
	EventUCBFlip:             {`{"ev":"ucb_flip","tsNS":1,"method":"m","branch":"taken"}`, "branch"},
	EventExceptionTolerated:  {`{"ev":"exception_tolerated","tsNS":1,"method":"m"}`, ""},
	EventReflectionRewrite:   {`{"ev":"reflection_rewrite","tsNS":1,"method":"m","target":"call_0"}`, ""},
	EventMergeVariant:        {`{"ev":"merge_variant","tsNS":1,"method":"m","from":2,"count":1}`, ""},
	EventStubEmitted:         {`{"ev":"stub_emitted","tsNS":1,"method":"m"}`, ""},
	EventVerifyDefect:        {`{"ev":"verify_defect","tsNS":1,"detail":"bad"}`, ""},
	EventConcurrentEntry:     {`{"ev":"concurrent_entry","tsNS":1,"detail":"owner"}`, ""},
	EventCacheHit:            {`{"ev":"cache_hit","tsNS":1,"detail":"k"}`, ""},
	EventCacheMiss:           {`{"ev":"cache_miss","tsNS":1,"detail":"k"}`, ""},
	EventQueueWait:           {`{"ev":"queue_wait","tsNS":1,"detail":"job-1"}`, ""},
	EventJobEnqueued:         {`{"ev":"job_enqueued","tsNS":1,"detail":"job-1"}`, ""},
	EventJobDone:             {`{"ev":"job_done","tsNS":1,"name":"ok","detail":"job-1"}`, "name"},
	EventWorkerMerge:         {`{"ev":"worker_merge","tsNS":1}`, ""},
	EventWorkerClamp:         {`{"ev":"worker_clamp","tsNS":1,"from":4,"count":2}`, ""},
	EventPredecodeHit:        {`{"ev":"predecode_hit","tsNS":1,"method":"m"}`, ""},
	EventPredecodeInvalidate: {`{"ev":"predecode_invalidate","tsNS":1,"method":"m"}`, ""},
	EventResourceSample:      {`{"ev":"resource_sample","tsNS":1,"name":"collection"}`, ""},
	EventSLOViolation:        {`{"ev":"slo_violation","tsNS":1,"durNS":5,"detail":"job-1","sloNS":5}`, ""},
	EventFlightDump:          {`{"ev":"flight_dump","tsNS":1,"name":"slo","detail":"job-1"}`, "name"},
	EventPeerFetch:           {`{"ev":"peer_fetch","tsNS":1,"name":"hit","target":"n1","detail":"k"}`, "name"},
	EventFleetForward:        {`{"ev":"fleet_forward","tsNS":1,"name":"owner","target":"n1","detail":"k"}`, "name"},
	EventFleetHop:            {`{"ev":"fleet_hop","tsNS":1,"target":"n1","detail":"job-1"}`, ""},
	EventRingRebuild:         {`{"ev":"ring_rebuild","tsNS":1,"from":3,"count":1}`, ""},
	EventMethodCacheHit:      {`{"ev":"method_cache_hit","tsNS":1,"method":"m"}`, ""},
	EventMethodCacheMiss:     {`{"ev":"method_cache_miss","tsNS":1,"method":"m"}`, ""},
	EventTreeSplice:          {`{"ev":"tree_splice","tsNS":1,"method":"m","count":1}`, ""},
	EventMemSpill:            {`{"ev":"mem_spill","tsNS":1,"method":"m","detail":"spill/v1|k","bytes":64}`, ""},
	EventMemAdmitWait:        {`{"ev":"mem_admit_wait","tsNS":1,"detail":"job-1","bytes":64}`, ""},
}

// TestEventSpecTable checks the vocabulary table over every type: each has
// a named spec, its minimal line round-trips through ParseEvent unchanged,
// dropping any of its payload keys is rejected, and every allowed label is
// accepted while an unknown one is rejected.
func TestEventSpecTable(t *testing.T) {
	if len(minimalEvents) != int(numEventTypes) {
		t.Errorf("%d minimal lines for %d event types", len(minimalEvents), numEventTypes)
	}
	for _, ty := range EventTypes() {
		spec := eventSpecs[ty]
		t.Run(ty.String(), func(t *testing.T) {
			if spec.name == "" {
				t.Fatalf("event type %d has no spec entry", uint8(ty))
			}
			want, ok := minimalEvents[ty]
			if !ok {
				t.Fatal("no minimal event line")
			}
			ev, err := ParseEvent([]byte(want.line))
			if err != nil {
				t.Fatalf("minimal line rejected: %v", err)
			}
			if ev.Type != ty {
				t.Fatalf("parsed as %s", ev.Type)
			}
			out, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			if string(out) != want.line {
				t.Errorf("round trip changed the line:\n got %s\nwant %s", out, want.line)
			}

			for key := range decode(t, want.line) {
				if key != "ev" && key != "tsNS" && !reject(t, want.line, key, nil) {
					t.Errorf("line without %q accepted", key)
				}
			}

			if (want.label == "") != (spec.labels == nil) {
				t.Fatalf("label key %q but spec labels %v", want.label, spec.labels)
			}
			if want.label == "" {
				return
			}
			for _, l := range spec.labels {
				if reject(t, want.line, want.label, l) {
					t.Errorf("allowed label %s=%q rejected", want.label, l)
				}
			}
			if !reject(t, want.line, want.label, "bogus") {
				t.Errorf("unknown label %s=%q accepted", want.label, "bogus")
			}
		})
	}
}

func decode(t *testing.T, line string) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// reject reports whether line, with key set to v (deleted when v is nil),
// fails ParseEvent.
func reject(t *testing.T, line, key string, v any) bool {
	t.Helper()
	m := decode(t, line)
	if v == nil {
		delete(m, key)
	} else {
		m[key] = v
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ParseEvent(b)
	return err != nil
}
