package pipeline

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunVisitsEveryIndexOnce(t *testing.T) {
	const n = 100
	var counts [n]atomic.Int32
	errs := New(7).Run(n, func(i int) error {
		counts[i].Add(1)
		return nil
	})
	if len(errs) != n {
		t.Fatalf("len(errs) = %d, want %d", len(errs), n)
	}
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Errorf("index %d ran %d times, want 1", i, got)
		}
		if errs[i] != nil {
			t.Errorf("errs[%d] = %v, want nil", i, errs[i])
		}
	}
}

func TestRunBoundedParallelism(t *testing.T) {
	const n, workers = 64, 3
	var inFlight, peak atomic.Int32
	New(workers).Run(n, func(i int) error {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		inFlight.Add(-1)
		return nil
	})
	if got := peak.Load(); got > workers {
		t.Errorf("peak parallelism %d exceeds worker cap %d", got, workers)
	}
}

func TestRunErrorsStayInJobOrder(t *testing.T) {
	errs := New(4).Run(10, func(i int) error {
		if i%3 == 0 {
			return fmt.Errorf("job %d failed", i)
		}
		return nil
	})
	for i, err := range errs {
		if i%3 == 0 {
			if err == nil || err.Error() != fmt.Sprintf("job %d failed", i) {
				t.Errorf("errs[%d] = %v, want job-%d failure", i, err, i)
			}
		} else if err != nil {
			t.Errorf("errs[%d] = %v, want nil", i, err)
		}
	}
}

func TestRunPanicIsolation(t *testing.T) {
	errs := New(2).Run(8, func(i int) error {
		if i == 3 {
			panic("bad apk")
		}
		return nil
	})
	for i, err := range errs {
		if i == 3 {
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("errs[3] = %v, want *PanicError", err)
			}
			if pe.Value != "bad apk" {
				t.Errorf("panic value = %v, want %q", pe.Value, "bad apk")
			}
			if len(pe.Stack) == 0 {
				t.Error("panic stack not captured")
			}
		} else if err != nil {
			t.Errorf("healthy job %d got error %v", i, err)
		}
	}
}

func TestMapOrdersResultsBySubmission(t *testing.T) {
	// Completion order is scrambled on purpose: later jobs finish first.
	out, errs := Map(New(8), 16, func(i int) (int, error) {
		time.Sleep(time.Duration(16-i) * 100 * time.Microsecond)
		return i * i, nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Errorf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapFailedJobKeepsZeroValue(t *testing.T) {
	out, errs := Map(New(2), 4, func(i int) (string, error) {
		if i == 1 {
			return "poison", errors.New("boom")
		}
		return fmt.Sprint(i), nil
	})
	if out[1] != "" {
		t.Errorf("failed job result = %q, want zero value", out[1])
	}
	if errs[1] == nil {
		t.Error("failed job error missing")
	}
	if err := FirstError(errs); err == nil || err.Error() != "boom" {
		t.Errorf("FirstError = %v, want boom", err)
	}
}

func TestWorkerCountResolution(t *testing.T) {
	cases := []struct{ workers, n, max int }{
		{0, 100, 1 << 30}, // GOMAXPROCS default, just must be >= 1
		{4, 2, 2},         // clamped to batch size
		{-3, 1, 1},
		{8, 0, 1}, // degenerate batch still resolves to 1
	}
	for _, c := range cases {
		got := New(c.workers).WorkerCount(c.n)
		if got < 1 || got > c.max {
			t.Errorf("WorkerCount(workers=%d, n=%d) = %d, want in [1,%d]",
				c.workers, c.n, got, c.max)
		}
	}
}

func TestRunZeroJobs(t *testing.T) {
	if errs := New(4).Run(0, func(int) error { panic("must not run") }); len(errs) != 0 {
		t.Fatalf("len(errs) = %d, want 0", len(errs))
	}
}

func TestRunConcurrentBatches(t *testing.T) {
	// Distinct Pipeline values must not share state: run several batches
	// concurrently (exercised under -race in CI).
	var wg sync.WaitGroup
	for b := 0; b < 4; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sum atomic.Int64
			New(2).Run(32, func(i int) error {
				sum.Add(int64(i))
				return nil
			})
			if got := sum.Load(); got != 31*32/2 {
				t.Errorf("batch sum = %d, want %d", got, 31*32/2)
			}
		}()
	}
	wg.Wait()
}

func TestBuildReportAggregation(t *testing.T) {
	apps := []AppMetrics{
		{Name: "a", WallNS: 100, ExecutedInsns: 10, Methods: 3, ExecutedMethods: 2,
			Stubs: 1, Variants: 1, Divergences: 2,
			Stages: []StageTiming{{Stage: StageCollection, WallNS: 60}, {Stage: StageReassembly, WallNS: 30}, {Stage: StageVerify, WallNS: 10}}},
		{Name: "b", WallNS: 200, ExecutedInsns: 20, Methods: 5, ExecutedMethods: 4,
			Stubs: 1, Variants: 0, Divergences: 0,
			Stages: []StageTiming{{Stage: StageCollection, WallNS: 150}, {Stage: StageReassembly, WallNS: 40}, {Stage: StageVerify, WallNS: 10}}},
		{Name: "c", Err: "reveal: bad dex"},
	}
	r := BuildReport(2, 200, apps)
	if r.Jobs != 3 || r.Failed != 1 {
		t.Fatalf("jobs/failed = %d/%d, want 3/1", r.Jobs, r.Failed)
	}
	if r.SerialNS != 300 {
		t.Errorf("SerialNS = %d, want 300", r.SerialNS)
	}
	if got := r.Speedup(); got != 1.5 {
		t.Errorf("Speedup = %v, want 1.5", got)
	}
	if r.TotalExecutedInsns != 30 || r.TotalMethods != 8 || r.TotalStubs != 2 {
		t.Errorf("totals wrong: %+v", r)
	}
	want := []StageTiming{{Stage: StageCollection, WallNS: 210}, {Stage: StageReassembly, WallNS: 70}, {Stage: StageVerify, WallNS: 20}}
	if len(r.StageTotals) != len(want) {
		t.Fatalf("stage totals = %v, want %v", r.StageTotals, want)
	}
	for i, st := range r.StageTotals {
		if st != want[i] {
			t.Errorf("stage total[%d] = %v, want %v", i, st, want[i])
		}
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	apps := []AppMetrics{
		{Name: "app1", WallNS: 1000, ExecutedInsns: 42,
			Stages: []StageTiming{{Stage: StageCollection, WallNS: 800}}},
		{Name: "app2", Err: "panic: bad"},
	}
	r := BuildReport(4, 1500, apps)
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Workers != 4 || back.Jobs != 2 || back.Failed != 1 {
		t.Errorf("decoded header = %+v", back)
	}
	if len(back.Apps) != 2 || back.Apps[0].Name != "app1" || back.Apps[1].Err != "panic: bad" {
		t.Errorf("decoded apps = %+v", back.Apps)
	}
	if back.Apps[0].StageWall(StageCollection) != 800 {
		t.Errorf("stage wall = %v, want 800ns", back.Apps[0].StageWall(StageCollection))
	}
	if back.Apps[0].StageWall(StageFuzz) != 0 {
		t.Error("absent stage must report 0")
	}
}

func TestAppMetricsStageHelpers(t *testing.T) {
	var m AppMetrics
	m.AddStage(StageCollection, 5*time.Millisecond)
	m.AddStage(StageVerify, time.Millisecond)
	if got := m.StageWall(StageCollection); got != 5*time.Millisecond {
		t.Errorf("StageWall = %v", got)
	}
	if len(Stages()) != 6 {
		t.Errorf("Stages() = %v, want 6 stages", Stages())
	}
}
