package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	dexlego "dexlego"
	"dexlego/internal/apk"
	"dexlego/internal/dex"
	"dexlego/internal/droidbench"
	"dexlego/internal/obs"
	"dexlego/internal/pipeline"
	"dexlego/internal/store"
)

func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir(), 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Store: st, Workers: 2, QueueDepth: 8, RequestTimeout: 20 * time.Second}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, hs
}

func postReveal(t *testing.T, base, query string, body []byte) (*http.Response, *JobStatus) {
	t.Helper()
	resp, err := http.Post(base+"/v1/reveal"+query, "application/zip", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("status %d, body not a JobStatus: %s", resp.StatusCode, data)
		}
	}
	return resp, &st
}

func getMetrics(t *testing.T, base string) *Metrics {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return &m
}

// TestRevealSampleEndToEnd exercises the acceptance path: a sample
// submission runs the real Reveal, a second identical submission is a
// cache hit served without re-running, the artifact downloads as a valid
// APK, the job's metrics carry the reveal's events, and the service trace
// records the cache_hit/cache_miss/queue_wait/job_done events.
func TestRevealSampleEndToEnd(t *testing.T) {
	sink := &lockedBuffer{}
	srv, hs := newTestServer(t, func(c *Config) { c.Sink = sink })
	resp, first := postReveal(t, hs.URL, "?sample=SelfModifying1&wait=1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first POST = %d", resp.StatusCode)
	}
	if first.State != StateDone || first.CacheHit || first.RevealedBytes == 0 {
		t.Fatalf("first job = %+v, want done miss with artifact", first)
	}
	if first.Metrics == nil || first.Metrics.Obs.EventCount(obs.EventMethodCollected) < 1 {
		t.Errorf("job metrics missing the reveal's events: %+v", first.Metrics)
	}

	resp2, second := postReveal(t, hs.URL, "?sample=SelfModifying1&wait=1", nil)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second POST = %d", resp2.StatusCode)
	}
	if second.State != StateDone || !second.CacheHit {
		t.Fatalf("second job = %+v, want cache hit", second)
	}
	if second.Key != first.Key {
		t.Errorf("identical submissions got different keys: %s vs %s", second.Key, first.Key)
	}
	if misses := srv.cfg.Store.Misses(); misses != 1 {
		t.Errorf("store misses = %d, want exactly 1 reveal across both posts", misses)
	}

	// The artifact endpoint serves the revealed APK.
	art, err := http.Get(hs.URL + "/v1/jobs/" + first.ID + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	defer art.Body.Close()
	data, err := io.ReadAll(art.Body)
	if err != nil {
		t.Fatal(err)
	}
	if art.StatusCode != http.StatusOK || len(data) != first.RevealedBytes {
		t.Fatalf("artifact = %d (%d bytes), want 200 with %d bytes",
			art.StatusCode, len(data), first.RevealedBytes)
	}
	revealed, err := apk.Read(data)
	if err != nil {
		t.Fatalf("artifact is not an APK: %v", err)
	}
	if _, err := revealed.Dex(); err != nil {
		t.Errorf("revealed APK lost its classes.dex: %v", err)
	}

	// Jobs are pollable by id.
	jr, err := http.Get(hs.URL + "/v1/jobs/" + second.ID)
	if err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()
	if jr.StatusCode != http.StatusOK {
		t.Errorf("job poll = %d", jr.StatusCode)
	}

	m := getMetrics(t, hs.URL)
	if m.Jobs.Done != 2 || m.Store.Misses != 1 || m.Store.Hits < 1 {
		t.Errorf("metrics = %+v", m)
	}
	trace, err := obs.ReadTrace(bytes.NewReader(sink.bytes()))
	if err != nil {
		t.Fatalf("service trace invalid: %v", err)
	}
	seen := map[obs.EventType]int{}
	for _, ev := range trace.Events {
		seen[ev.Type]++
	}
	for _, ev := range []obs.EventType{obs.EventCacheHit, obs.EventCacheMiss, obs.EventQueueWait, obs.EventJobDone} {
		if seen[ev] < 1 {
			t.Errorf("service trace missing %s: %v", ev, seen)
		}
	}
}

// stubResult fabricates a minimal successful reveal outcome.
func stubResult(name string) *dexlego.Result {
	pkg := apk.New(name, "1.0", "L"+name+";")
	pkg.SetDex([]byte{0x64, 0x65, 0x78})
	return &dexlego.Result{Revealed: pkg, Metrics: &pipeline.AppMetrics{WallNS: 1}}
}

func TestQueueFullReturns429(t *testing.T) {
	gate := make(chan struct{})
	_, hs := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
		c.Reveal = func(pkg *apk.APK, _ dexlego.Options) (*dexlego.Result, error) {
			<-gate
			return stubResult(pkg.Manifest.Package), nil
		}
	})
	defer close(gate)
	// Distinct inputs so no submission collapses into another's flight:
	// the worker blocks on the first, the queue holds at most one more,
	// and a later submission must be refused with Retry-After.
	codes := make([]int, 0, 8)
	ids := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		body := buildBodyAPK(t, fmt.Sprintf("app%d", i))
		resp, st := postReveal(t, hs.URL, "", body)
		codes = append(codes, resp.StatusCode)
		if resp.StatusCode == http.StatusAccepted {
			ids = append(ids, st.ID)
			if resp.Header.Get("Location") == "" {
				t.Error("202 without Location header")
			}
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		}
	}
	saw429 := false
	for _, c := range codes {
		switch c {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			saw429 = true
		default:
			t.Fatalf("unexpected status %d in %v", c, codes)
		}
	}
	if !saw429 {
		t.Fatalf("full queue never answered 429: %v", codes)
	}
	if len(ids) < 1 || len(ids) > 3 {
		// 1 running + 1 queued, plus at most one more racing the dequeue.
		t.Errorf("accepted %d jobs with workers=1 depth=1", len(ids))
	}
	m := getMetrics(t, hs.URL)
	if m.Jobs.Rejected < 1 {
		t.Errorf("rejected count = %d", m.Jobs.Rejected)
	}
}

func buildBodyAPK(t *testing.T, name string) []byte {
	t.Helper()
	pkg := apk.New(name, "1.0", "L"+name+"/Main;")
	pkg.SetDex([]byte(name + "-dex"))
	data, err := pkg.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// tabletMutantAPK returns TabletReflection1 with unit 95 of onCreate (its
// second method body) turned from 0x206e to 0x176e: an invoke-virtual of
// StringBuilder.append(C) that passes the receiver alone. The file passes
// dex.Verify, and only a forced run steering the tablet branch reaches the
// call.
func tabletMutantAPK(t *testing.T) []byte {
	t.Helper()
	pkg, err := droidbench.ByName("TabletReflection1").Build()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := pkg.Dex()
	if err != nil {
		t.Fatal(err)
	}
	f, err := dex.Read(raw)
	if err != nil {
		t.Fatal(err)
	}
	var bodies []*dex.Code // class_defs order, direct methods first
	for ci := range f.Classes {
		for _, list := range [][]dex.EncodedMethod{f.Classes[ci].DirectMeths, f.Classes[ci].VirtualMeths} {
			for mi := range list {
				if code := list[mi].Code; code != nil && len(code.Insns) > 0 {
					bodies = append(bodies, code)
				}
			}
		}
	}
	if len(bodies) < 2 || len(bodies[1].Insns) <= 95 || bodies[1].Insns[95] != 0x206e {
		t.Fatal("TabletReflection1's second body no longer holds invoke-virtual {v4, v5} at unit 95")
	}
	bodies[1].Insns[95] = 0x176e
	if errs := dex.Verify(f); len(errs) != 0 {
		t.Fatalf("the TabletReflection1 mutant fails dex.Verify: %v", errs)
	}
	data, err := f.Write()
	if err != nil {
		t.Fatal(err)
	}
	pkg.SetDex(data)
	body, err := pkg.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestForcedMutantLeavesServerReady submits the forced TabletReflection1
// mutant, whose malformed invoke once crashed the forced campaign and the
// process with it. The job must end, the server must stay live and ready,
// and the next valid submission must be served.
func TestForcedMutantLeavesServerReady(t *testing.T) {
	_, hs := newTestServer(t, nil)
	resp, st := postReveal(t, hs.URL, "?force=1&wait=1", tabletMutantAPK(t))
	if resp.StatusCode != http.StatusOK || (st.State != StateDone && st.State != StateFailed) {
		t.Fatalf("mutant job = %d %+v, want it ended", resp.StatusCode, st)
	}
	for _, path := range []string{"/healthz", "/readyz"} {
		if code := getStatus(t, hs.URL+path); code != http.StatusOK {
			t.Errorf("%s after the mutant = %d, want 200", path, code)
		}
	}
	resp, st = postReveal(t, hs.URL, "?sample=SelfModifying1&wait=1", nil)
	if resp.StatusCode != http.StatusOK || st.State != StateDone || st.RevealedBytes == 0 {
		t.Fatalf("next job = %d %+v, want done with an artifact", resp.StatusCode, st)
	}
}

func TestRevealPanicIsolatedIntoFailedJob(t *testing.T) {
	_, hs := newTestServer(t, func(c *Config) {
		c.Reveal = func(pkg *apk.APK, _ dexlego.Options) (*dexlego.Result, error) {
			if pkg.Manifest.Package == "bomb" {
				panic("malicious APK blew up the runtime")
			}
			return stubResult(pkg.Manifest.Package), nil
		}
	})
	resp, st := postReveal(t, hs.URL, "?wait=1", buildBodyAPK(t, "bomb"))
	if resp.StatusCode != http.StatusOK || st.State != StateFailed {
		t.Fatalf("panicking job = %d %+v, want failed", resp.StatusCode, st)
	}
	if !strings.Contains(st.Err, "panicked") {
		t.Errorf("job error %q does not surface the panic", st.Err)
	}
	// The server survives and serves the next job.
	resp2, st2 := postReveal(t, hs.URL, "?wait=1", buildBodyAPK(t, "fine"))
	if resp2.StatusCode != http.StatusOK || st2.State != StateDone {
		t.Fatalf("post-panic job = %d %+v", resp2.StatusCode, st2)
	}
	// Failed jobs cache nothing and have no artifact.
	ar, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	ar.Body.Close()
	if ar.StatusCode != http.StatusConflict {
		t.Errorf("failed job artifact = %d, want 409", ar.StatusCode)
	}
	m := getMetrics(t, hs.URL)
	if m.Jobs.Failed != 1 || m.Jobs.Done != 1 {
		t.Errorf("metrics after panic = %+v", m.Jobs)
	}
}

func TestBadRequests(t *testing.T) {
	_, hs := newTestServer(t, func(c *Config) {
		c.Reveal = func(pkg *apk.APK, _ dexlego.Options) (*dexlego.Result, error) {
			return stubResult(pkg.Manifest.Package), nil
		}
	})
	cases := []struct {
		name, query string
		body        []byte
		want        int
	}{
		{"empty body", "", nil, http.StatusBadRequest},
		{"garbage body", "", []byte("not an apk"), http.StatusBadRequest},
		{"unknown sample", "?sample=NoSuchSample", nil, http.StatusBadRequest},
		{"bad seed", "?sample=SelfModifying1&seed=banana", nil, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, _ := postReveal(t, hs.URL, c.query, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	jr, err := http.Get(hs.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()
	if jr.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", jr.StatusCode)
	}
	mr, err := http.Get(hs.URL + "/v1/reveal") // wrong method
	if err != nil {
		t.Fatal(err)
	}
	mr.Body.Close()
	if mr.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/reveal = %d, want 405", mr.StatusCode)
	}
}

// getStatus fetches path and returns the HTTP status code.
func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestDrainRefusesNewWorkAndReadinessFlips(t *testing.T) {
	srv, hs := newTestServer(t, func(c *Config) {
		c.Reveal = func(pkg *apk.APK, _ dexlego.Options) (*dexlego.Result, error) {
			return stubResult(pkg.Manifest.Package), nil
		}
	})
	if code := getStatus(t, hs.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if code := getStatus(t, hs.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz = %d", code)
	}
	// A job admitted before the drain still completes.
	resp, st := postReveal(t, hs.URL, "?wait=1", buildBodyAPK(t, "pre-drain"))
	if resp.StatusCode != http.StatusOK || st.State != StateDone {
		t.Fatalf("pre-drain job = %d %+v", resp.StatusCode, st)
	}
	srv.BeginDrain()
	// Liveness stays green through a drain — the process still serves
	// polls and artifact downloads; only readiness flips.
	if code := getStatus(t, hs.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("draining healthz = %d, want 200 (liveness)", code)
	}
	if code := getStatus(t, hs.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("draining readyz = %d, want 503", code)
	}
	resp2, _ := postReveal(t, hs.URL, "", buildBodyAPK(t, "post-drain"))
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining POST = %d, want 503", resp2.StatusCode)
	}
	// Completed jobs stay pollable through the drain.
	jr, err := http.Get(hs.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()
	if jr.StatusCode != http.StatusOK {
		t.Errorf("draining job poll = %d", jr.StatusCode)
	}
}

// TestRetryAfterJitter checks the 429 backoff hint stays in its documented
// 1–3 s window and actually varies, so a synchronized client herd spreads
// its retries instead of stampeding in lockstep.
func TestRetryAfterJitter(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		v := retryAfterJitter()
		if v != "1" && v != "2" && v != "3" {
			t.Fatalf("retryAfterJitter() = %q, want 1..3", v)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Errorf("200 draws produced only %v; jitter must vary", seen)
	}
}

// TestSameKeyAdmissionCoalesces: concurrent submissions of one key share
// a single job (the key's reveal lease) instead of burning queue slots on
// duplicates, so a duplicate storm on one server costs exactly one reveal.
func TestSameKeyAdmissionCoalesces(t *testing.T) {
	gate := make(chan struct{})
	var reveals atomic.Int64
	srv, hs := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
		c.Reveal = func(pkg *apk.APK, _ dexlego.Options) (*dexlego.Result, error) {
			reveals.Add(1)
			<-gate
			return stubResult(pkg.Manifest.Package), nil
		}
	})
	body := buildBodyAPK(t, "shared")
	const dups = 6
	type outcome struct {
		code int
		st   *JobStatus
	}
	results := make(chan outcome, dups)
	for i := 0; i < dups; i++ {
		go func() {
			resp, st := postReveal(t, hs.URL, "?wait=1", body)
			results <- outcome{resp.StatusCode, st}
		}()
	}
	// Wait until the leader's reveal is running, then release it. With
	// Workers=1 and QueueDepth=1, any duplicate that did NOT coalesce
	// would have been shed with a 429 instead of completing.
	for reveals.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the stragglers join the lease
	close(gate)
	ids := map[string]bool{}
	for i := 0; i < dups; i++ {
		r := <-results
		if r.code != http.StatusOK || r.st.State != StateDone {
			t.Fatalf("duplicate submission = %d %+v, want coalesced 200", r.code, r.st)
		}
		ids[r.st.ID] = true
	}
	if len(ids) != 1 {
		t.Errorf("duplicates spread over %d job records, want 1 shared lease", len(ids))
	}
	if n := reveals.Load(); n != 1 {
		t.Errorf("reveals = %d, want exactly 1", n)
	}
	if c := srv.coalesced.Load(); c == 0 {
		t.Error("coalesced counter never moved")
	}
	// The lease is released with the job: a later identical submission is
	// a plain cache hit, not a join.
	resp, st := postReveal(t, hs.URL, "?wait=1", body)
	if resp.StatusCode != http.StatusOK || !st.CacheHit {
		t.Errorf("post-lease submission = %d %+v, want cache hit", resp.StatusCode, st)
	}
}

func TestNewRequiresStore(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without a store must fail")
	}
}

// TestRevealWorkerBudgetClamp checks admission control over intra-reveal
// parallelism: the per-job budget is clamped so pool workers × reveal
// workers never exceeds GOMAXPROCS, a worker_clamp event records the
// refusal, and runJob hands the admitted budget (not the raw config) to
// the reveal.
func TestRevealWorkerBudgetClamp(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)

	// A sane request is granted verbatim and emits no clamp event.
	st, err := store.Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: st, Workers: 1, RevealWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.RevealWorkers(); got != 1 {
		t.Fatalf("workers=1 revealWorkers=1 granted %d, want 1", got)
	}
	if n := srv.tracer.Snapshot().EventCount(obs.EventWorkerClamp); n != 0 {
		t.Errorf("unclamped config emitted %d worker_clamp events", n)
	}
	srv.Close()

	// An oversubscribing request is clamped to GOMAXPROCS/poolWorkers
	// (floor 1) and recorded.
	st2, err := store.Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := New(Config{Store: st2, Workers: procs, RevealWorkers: procs + 7})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if got := srv2.RevealWorkers(); got != 1 {
		t.Fatalf("workers=GOMAXPROCS revealWorkers=%d granted %d, want 1", procs+7, got)
	}
	if n := srv2.tracer.Snapshot().EventCount(obs.EventWorkerClamp); n != 1 {
		t.Errorf("clamped config emitted %d worker_clamp events, want 1", n)
	}

	// An unset budget defaults to the largest the cap allows, silently.
	st3, err := store.Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	srv3, err := New(Config{Store: st3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv3.Close()
	if got := srv3.RevealWorkers(); got != procs {
		t.Fatalf("default budget granted %d, want GOMAXPROCS=%d", got, procs)
	}
	if n := srv3.tracer.Snapshot().EventCount(obs.EventWorkerClamp); n != 0 {
		t.Errorf("defaulted budget emitted %d worker_clamp events", n)
	}

	// The admitted budget reaches the reveal.
	var sawWorkers atomic.Int64
	sawWorkers.Store(-1)
	_, hs := newTestServer(t, func(c *Config) {
		c.Workers = procs
		c.RevealWorkers = procs + 7
		c.Reveal = func(pkg *apk.APK, o dexlego.Options) (*dexlego.Result, error) {
			sawWorkers.Store(int64(o.Workers))
			return stubResult(pkg.Manifest.Package), nil
		}
	})
	resp, job := postReveal(t, hs.URL, "?wait=1", buildBodyAPK(t, "clampapp"))
	if resp.StatusCode != http.StatusOK || job.State != StateDone {
		t.Fatalf("POST = %d, job = %+v", resp.StatusCode, job)
	}
	if got := sawWorkers.Load(); got != 1 {
		t.Errorf("reveal ran with Options.Workers = %d, want admitted budget 1", got)
	}
}

// TestHistoryTrimKeepsBound fills the job history past maxFinishedJobs:
// the history stays at the bound, the oldest finished jobs go first,
// queued and running jobs are never dropped, and every kept job still
// answers GET /v1/jobs/{id}.
func TestHistoryTrimKeepsBound(t *testing.T) {
	srv, hs := newTestServer(t, nil)
	queued := srv.newJob("queued-key", "queued")
	running := srv.newJob("running-key", "running")
	srv.mu.Lock()
	srv.counts[running.state]--
	running.state = StateRunning
	srv.counts[StateRunning]++
	srv.mu.Unlock()
	const extra = 50
	finished := make([]*job, 0, maxFinishedJobs+extra)
	for i := 0; i < maxFinishedJobs+extra; i++ {
		j := srv.newJob("done-key", fmt.Sprintf("done%d", i))
		srv.mu.Lock()
		srv.finishLocked(j, &store.Artifact{}, true, nil, 0)
		srv.mu.Unlock()
		finished = append(finished, j)
	}
	dropped := 2 + extra // the history past the bound, all of it finished
	srv.mu.Lock()
	if len(srv.jobs) != maxFinishedJobs || len(srv.order) != maxFinishedJobs {
		t.Errorf("history holds %d jobs in %d order slots, want %d", len(srv.jobs), len(srv.order), maxFinishedJobs)
	}
	want := []string{queued.id, running.id}
	for _, j := range finished[dropped:] {
		want = append(want, j.id)
	}
	if fmt.Sprint(srv.order) != fmt.Sprint(want) {
		t.Error("the kept history is not the queued and running jobs plus the newest finished ones, in order")
	}
	if srv.counts[StateQueued] != 1 || srv.counts[StateRunning] != 1 || srv.counts[StateDone] != maxFinishedJobs-2 {
		t.Errorf("counts = %v", srv.counts)
	}
	srv.mu.Unlock()
	for _, j := range []*job{queued, running, finished[dropped], finished[len(finished)-1]} {
		if code := getStatus(t, hs.URL+"/v1/jobs/"+j.id); code != http.StatusOK {
			t.Errorf("kept job %s = %d, want 200", j.name, code)
		}
	}
	for _, j := range []*job{finished[0], finished[dropped-1]} {
		if code := getStatus(t, hs.URL+"/v1/jobs/"+j.id); code != http.StatusNotFound {
			t.Errorf("trimmed job %s = %d, want 404", j.name, code)
		}
	}
}
