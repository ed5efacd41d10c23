package main

import (
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dexlego/internal/server"
)

func TestValidateFlagRejections(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the expected error
	}{
		{"jobs zero", []string{"-jobs", "0", "-sample", "SelfModifying1", "-out", "x.apk"}, "-jobs must be at least 1"},
		{"jobs negative", []string{"-jobs", "-3", "-batch", "-out", "d", "a.apk"}, "-jobs must be at least 1"},
		{"serve jobs zero", []string{"-serve", "-jobs", "0"}, "-jobs must be at least 1"},
		{"serve+batch", []string{"-serve", "-batch", "a.apk"}, "cannot be combined with -batch"},
		{"serve+sample", []string{"-serve", "-sample", "SelfModifying1"}, "cannot be combined with -sample"},
		{"serve+apk", []string{"-serve", "-apk", "a.apk"}, "cannot be combined with -apk"},
		{"serve+out", []string{"-serve", "-out", "x.apk"}, "cannot be combined with -out"},
		{"serve+collect", []string{"-serve", "-collect", "dir"}, "cannot be combined with -collect"},
		{"serve+metrics-out", []string{"-serve", "-metrics-out", "m.json"}, "cannot be combined with -metrics-out"},
		{"serve+trace-report", []string{"-serve", "-trace-report", "t.jsonl"}, "cannot be combined with -trace-report"},
		{"serve+trace-job", []string{"-serve", "-trace-job", "abc123"}, "does nothing without"},
		{"serve+trace-job+report", []string{"-serve", "-trace-report", "-trace-job", "abc123"}, "cannot be combined with"},
		{"serve queue zero", []string{"-serve", "-queue-depth", "0"}, "-queue-depth must be at least 1"},
		{"negative slo", []string{"-slo", "-5s", "-sample", "SelfModifying1", "-out", "x.apk"}, "-slo must be non-negative"},
		{"trace-job alone", []string{"-trace-job", "abc123", "-sample", "SelfModifying1", "-out", "x.apk"}, "does nothing without"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) error = %q, want substring %q", tc.args, err, tc.want)
			}
		})
	}
	// The unset default (-jobs absent, internal value 0) still means
	// GOMAXPROCS and must not trip the explicit-flag validation.
	if err := run([]string{"-batch", "-out", t.TempDir()}); err == nil ||
		strings.Contains(err.Error(), "-jobs") {
		t.Errorf("default -jobs wrongly rejected: %v", err)
	}
}

// TestRunServeEndToEnd boots the real service through run(), reveals a
// sample twice over HTTP, checks the second request is a cache hit, then
// stops the server via the test hook and requires a clean drain.
func TestRunServeEndToEnd(t *testing.T) {
	lnc := make(chan net.Listener, 1)
	stop := make(chan struct{})
	serveHooks.listener = func(ln net.Listener) { lnc <- ln }
	serveHooks.stop = stop
	defer func() {
		serveHooks.listener = nil
		serveHooks.stop = nil
	}()
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-serve", "-addr", "127.0.0.1:0",
			"-store-dir", t.TempDir(), "-jobs", "2", "-log-level", "off"})
	}()
	var base string
	select {
	case ln := <-lnc:
		base = "http://" + ln.Addr().String()
	case err := <-errc:
		t.Fatalf("serve exited before binding: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("serve never bound a listener")
	}
	post := func() server.JobStatus {
		t.Helper()
		resp, err := http.Post(base+"/v1/reveal?sample=SelfModifying1&wait=1", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST status = %d, want 200", resp.StatusCode)
		}
		var js server.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
			t.Fatal(err)
		}
		return js
	}
	first := post()
	if first.State != server.StateDone || first.CacheHit {
		t.Fatalf("first reveal: state=%s cacheHit=%t, want done/miss (err=%s)",
			first.State, first.CacheHit, first.Err)
	}
	second := post()
	if second.State != server.StateDone || !second.CacheHit {
		t.Errorf("second reveal: state=%s cacheHit=%t, want done/hit", second.State, second.CacheHit)
	}
	if first.Key == "" || first.Key != second.Key {
		t.Errorf("cache keys differ: %q vs %q", first.Key, second.Key)
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %v %v, want 200", resp, err)
	}
	resp.Body.Close()
	close(stop)
	select {
	case err := <-errc:
		if err != nil {
			t.Errorf("serve returned %v after drain, want nil", err)
		}
	case <-time.After(45 * time.Second):
		t.Fatal("serve did not drain")
	}
}

// TestRunServeRejectsBadAddr checks listen failures surface as -addr errors.
func TestRunServeRejectsBadAddr(t *testing.T) {
	err := run([]string{"-serve", "-addr", "256.256.256.256:0", "-log-level", "off"})
	if err == nil || !strings.Contains(err.Error(), "-addr") {
		t.Errorf("bad addr error = %v, want -addr error", err)
	}
}

// TestRunServeWithMemBudget boots the service with -mem-budget through
// run(): a reveal completes normally, the spill tier stays in memory (no
// <store-dir>/spill directory appears beside the artifact store), and the
// exposition carries the dexlego_mem_* family.
func TestRunServeWithMemBudget(t *testing.T) {
	storeDir := t.TempDir()
	lnc := make(chan net.Listener, 1)
	stop := make(chan struct{})
	serveHooks.listener = func(ln net.Listener) { lnc <- ln }
	serveHooks.stop = stop
	defer func() {
		serveHooks.listener = nil
		serveHooks.stop = nil
	}()
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-serve", "-addr", "127.0.0.1:0",
			"-store-dir", storeDir, "-mem-budget", "256MiB", "-log-level", "off"})
	}()
	var base string
	select {
	case ln := <-lnc:
		base = "http://" + ln.Addr().String()
	case err := <-errc:
		t.Fatalf("serve exited before binding: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("serve never bound a listener")
	}
	resp, err := http.Post(base+"/v1/reveal?sample=SelfModifying1&wait=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var js server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || js.State != server.StateDone {
		t.Fatalf("reveal = %d state=%s err=%s, want done", resp.StatusCode, js.State, js.Err)
	}
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil || mresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d %v", mresp.StatusCode, err)
	}
	for _, series := range []string{
		"dexlego_mem_budget_bytes", "dexlego_mem_inuse_bytes",
		"dexlego_mem_admit_waits_total", "dexlego_mem_spills_total",
		"dexlego_mem_spilled_bytes_total",
	} {
		if !strings.Contains(string(scrape), series) {
			t.Errorf("exposition lacks %s", series)
		}
	}
	if _, err := os.Stat(filepath.Join(storeDir, "spill")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("stat <store-dir>/spill = %v, want the spill tier kept in memory", err)
	}
	close(stop)
	select {
	case err := <-errc:
		if err != nil {
			t.Errorf("serve returned %v after drain, want nil", err)
		}
	case <-time.After(45 * time.Second):
		t.Fatal("serve did not drain")
	}
}
