package obs

import (
	"strings"
	"testing"
)

// TestRegistryRoundTrip renders a registry covering all three metric types
// and re-parses it with the strict linter: what we serve must be exactly
// what the scrape validator accepts.
func TestRegistryRoundTrip(t *testing.T) {
	r := NewRegistry("dexlego")
	jobs := r.Counter("jobs_submitted", "Jobs accepted by admission control.")
	jobs.Add(7)
	r.CounterFunc("trace_dropped", "Events lost to sink errors.", func() int64 { return 2 })
	queued := r.Gauge("jobs", "Jobs by lifecycle state.", L("state", "queued"))
	queued.Set(3)
	r.GaugeFunc("jobs", "Jobs by lifecycle state.", func() int64 { return 1 }, L("state", "running"))
	h := r.Histogram("stage_latency_nanoseconds", "Per-stage wall time.", L("stage", "collection"))
	h.Observe(100)
	h.Observe(100000)
	h.Observe(3)

	var sb strings.Builder
	if err := r.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Fatalf("exposition does not end with # EOF:\n%s", text)
	}
	e, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("rendered exposition does not lint: %v\n%s", err, text)
	}
	if v, ok := e.Value("dexlego_jobs_submitted_total"); !ok || v != 7 {
		t.Errorf("jobs_submitted_total = %v,%t want 7", v, ok)
	}
	if v, ok := e.Value("dexlego_trace_dropped_total"); !ok || v != 2 {
		t.Errorf("trace_dropped_total = %v,%t want 2", v, ok)
	}
	if v, ok := e.Value("dexlego_jobs", L("state", "queued")); !ok || v != 3 {
		t.Errorf("jobs{state=queued} = %v,%t want 3", v, ok)
	}
	if v, ok := e.Value("dexlego_jobs", L("state", "running")); !ok || v != 1 {
		t.Errorf("jobs{state=running} = %v,%t want 1", v, ok)
	}
	f := e.Family("dexlego_stage_latency_nanoseconds")
	if f == nil || f.Type != "histogram" {
		t.Fatalf("histogram family missing: %+v", f)
	}
	var sum, count float64
	for _, s := range f.Samples {
		switch {
		case strings.HasSuffix(s.Name, "_sum"):
			sum = s.Value
		case strings.HasSuffix(s.Name, "_count"):
			count = s.Value
		}
	}
	if count != 3 || sum != 100103 {
		t.Errorf("histogram count/sum = %v/%v, want 3/100103", count, sum)
	}
}

// TestRegistryOverflowBucketRendersInf exercises the MaxInt64 bucket: it
// must fold into +Inf, never print a 9.2e18 bound.
func TestRegistryOverflowBucketRendersInf(t *testing.T) {
	r := NewRegistry("t")
	h := r.Histogram("big", "overflow values")
	h.Observe(int64(1) << 62) // lands in the top (MaxInt64-bounded) bucket
	var sb strings.Builder
	if err := r.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if strings.Contains(text, "9223372036854775807") {
		t.Errorf("raw MaxInt64 bound leaked into exposition:\n%s", text)
	}
	if _, err := ParseExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("lint: %v\n%s", err, text)
	}
}

func TestRegistryPanicsOnConflicts(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	r := NewRegistry("t")
	r.Counter("a", "")
	expectPanic("duplicate series", func() { r.Counter("a", "") })
	expectPanic("type conflict", func() { r.Gauge("a", "") })
	expectPanic("bad name", func() { r.Counter("bad-name", "") })
	expectPanic("bad label", func() { r.Counter("b", "", L("bad-label", "x")) })
}

func TestRegistryEscapesLabelValues(t *testing.T) {
	r := NewRegistry("t")
	r.Gauge("g", "", L("path", "a\"b\\c\nd"))
	var sb strings.Builder
	if err := r.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	e, err := ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("lint: %v\n%s", err, sb.String())
	}
	if _, ok := e.Value("t_g", L("path", "a\"b\\c\nd")); !ok {
		t.Errorf("escaped label did not round trip:\n%s", sb.String())
	}
}

// TestParseExpositionRejects exercises the linter's failure modes one by
// one; each input is a minimal broken exposition.
func TestParseExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"missing EOF":         "# TYPE a counter\na_total 1\n",
		"content after EOF":   "# EOF\n# TYPE a counter\n",
		"sample w/o family":   "orphan_total 1\n# EOF\n",
		"counter w/o _total":  "# TYPE a counter\na 1\n# EOF\n",
		"negative counter":    "# TYPE a counter\na_total -1\n# EOF\n",
		"duplicate TYPE":      "# TYPE a counter\n# TYPE a counter\n# EOF\n",
		"duplicate sample":    "# TYPE a gauge\na 1\na 2\n# EOF\n",
		"bucket without le":   "# TYPE h histogram\nh_bucket 1\nh_sum 0\nh_count 1\n# EOF\n",
		"no +Inf bucket":      "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n# EOF\n",
		"non-cumulative":      "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n# EOF\n",
		"inf != count":        "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 4\n# EOF\n",
		"interleaved family":  "# TYPE a gauge\n# TYPE b gauge\na 1\n# EOF\n",
		"bad value":           "# TYPE a gauge\na one\n# EOF\n",
		"unterminated labels": "# TYPE a gauge\na{x=\"1 2\n# EOF\n",
		"blank line":          "# TYPE a gauge\n\na 1\n# EOF\n",
	}
	for name, text := range cases {
		if _, err := ParseExposition(strings.NewReader(text)); err == nil {
			t.Errorf("%s: linter accepted invalid exposition:\n%s", name, text)
		}
	}
}
