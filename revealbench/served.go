package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"os"
	"sync"
	"time"

	"dexlego"
	"dexlego/internal/server"
	"dexlego/internal/store"
	"dexlego/internal/workload"
)

// The served-versions workload: an in-process reveal server on a loopback
// listener, set up as `dexlego -serve` sets it up (in-memory store, method
// cache on). Two callers alternate a blocking submission with an artifact
// download. The seeded stream draws from pre-generated version chains:
// about a quarter of submissions are a chain's next unseen link (a store
// miss and an incremental reveal), the rest repeat an earlier APK (a store
// hit).

const (
	servedChains     = 16
	servedChainWidth = 24   // worker methods per chain app
	servedNewShare   = 0.25 // share of submissions that are an unseen link
	// servedLinksPerSecond sizes the link pool above the miss rate a run
	// can reach, so the stream never runs out of unseen links.
	servedLinksPerSecond = 250
	// servedChecked bounds how many distinct artifacts the end-of-run check
	// re-reveals in full; every other submission is checked against the
	// first artifact served for the same APK.
	servedChecked = 48
	// servedRecent is how many of the most recently first-served APKs a
	// repeat draws from: well under the store's default LRU of
	// store.DefaultCacheEntries artifacts, so a repeat is a store hit.
	servedRecent = 48
)

// link is one version of one chain app.
type link struct {
	name string
	body []byte

	// Guarded by served.mu.
	artifact digest
	served   bool // artifact holds the first artifact served for it
}

type served struct {
	srv    *server.Server
	hs     *http.Server
	serveC chan error
	base   string
	client *http.Client
	st     *store.Store
	mc     *store.MethodCache
	seed   int64

	mu     sync.Mutex
	rng    *rand.Rand
	chains [][]*link
	next   []int  // per chain: index of its next unseen link
	busy   []bool // per chain: a link is in flight
	seen   []*link
	// starved counts draws that wanted an unseen link and found none.
	starved int

	// Window figures, guarded by mu.
	hits, misses        []time.Duration
	queueNS, runNS      int64
	overheadNS          int64
	ops                 int
	cached, executed    int
	mcH0, mcM0          int64
	coalesced0, reject0 int64
}

func setupServed(seed int64, seconds float64) (instance, error) {
	perChain := int(servedLinksPerSecond*seconds)/servedChains + 8
	s := &served{
		seed:   seed,
		rng:    newRand(seed, 3),
		chains: make([][]*link, servedChains),
		next:   make([]int, servedChains),
		busy:   make([]bool, servedChains),
	}
	for c := range s.chains {
		apps, err := workload.VersionChain(workload.ChainConfig{
			Methods: servedChainWidth,
			Links:   perChain,
			Seed:    uint32(newRand(seed, uint64(100+c)).Uint64()),
		})
		if err != nil {
			return nil, err
		}
		for _, a := range apps {
			body, err := a.APK.Bytes()
			if err != nil {
				return nil, err
			}
			s.chains[c] = append(s.chains[c], &link{name: fmt.Sprintf("chain%d-%s", c, a.Name), body: body})
		}
	}

	var err error
	if s.st, err = store.Open("", 0); err != nil {
		return nil, err
	}
	if s.mc, err = store.OpenMethodCache("", 0); err != nil {
		return nil, err
	}
	if s.srv, err = server.New(server.Config{Store: s.st, MethodCache: s.mc}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.serveC = make(chan error, 1)
	go func() { s.serveC <- s.hs.Serve(ln) }()
	s.client = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2},
	}

	// Warm-up: every chain's first version is revealed cold, so measured
	// misses are incremental reveals of later links.
	for c := range s.chains {
		s.next[c] = 1
		l := s.chains[c][0]
		if _, _, err := s.submit(l); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s: %w", l.name, err)
		}
		s.seen = append(s.seen, l)
	}
	s.reset()
	return s, nil
}

// draw picks the next submission of the seeded stream: an unseen link of
// an idle chain with probability servedNewShare, else an earlier APK.
func (s *served) draw() (l *link, chain int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rng.Float64() < servedNewShare {
		start := s.rng.IntN(len(s.chains))
		for k := range s.chains {
			c := (start + k) % len(s.chains)
			if !s.busy[c] && s.next[c] < len(s.chains[c]) {
				s.busy[c] = true
				l = s.chains[c][s.next[c]]
				s.next[c]++
				return l, c
			}
		}
		s.starved++
	}
	return s.seen[len(s.seen)-1-s.rng.IntN(min(servedRecent, len(s.seen)))], -1
}

// submit posts one APK, waits for its job and downloads the artifact.
func (s *served) submit(l *link) (*server.JobStatus, []byte, error) {
	resp, err := s.client.Post(s.base+"/v1/reveal?wait=1&force=1", "application/zip", bytes.NewReader(l.body))
	if err != nil {
		return nil, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("submit %s: %s: %s", l.name, resp.Status, bytes.TrimSpace(body))
	}
	var st server.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, nil, fmt.Errorf("submit %s: %w", l.name, err)
	}
	if st.State != server.StateDone {
		return &st, nil, fmt.Errorf("submit %s: job %s %s: %s", l.name, st.ID, st.State, st.Err)
	}
	resp, err = s.client.Get(s.base + "/v1/jobs/" + st.ID + "/artifact")
	if err != nil {
		return &st, nil, err
	}
	art, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return &st, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return &st, nil, fmt.Errorf("artifact %s: %s", l.name, resp.Status)
	}
	sum := sha256.Sum256(art)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !l.served {
		l.artifact, l.served = sum, true
	} else if l.artifact != sum {
		return &st, art, fmt.Errorf("artifact %s differs from the one first served for it", l.name)
	}
	return &st, art, nil
}

func (s *served) op(int) opResult {
	l, chain := s.draw()
	start := time.Now()
	st, _, err := s.submit(l)
	lat := time.Since(start)
	s.mu.Lock()
	defer s.mu.Unlock()
	if chain >= 0 {
		s.busy[chain] = false
		if err == nil {
			s.seen = append(s.seen, l)
		}
	}
	if err != nil {
		return opResult{latency: lat, err: err}
	}
	s.ops++
	s.overheadNS += int64(lat) - st.TotalNS
	class := "hit"
	if st.CacheHit {
		s.hits = append(s.hits, lat)
	} else {
		class = "miss"
		s.misses = append(s.misses, lat)
		s.queueNS += st.QueueNS
		s.runNS += st.RunNS
		if st.Metrics != nil {
			s.cached += st.Metrics.MethodsCached
			s.executed += st.Metrics.MethodsExecuted
		}
	}
	return opResult{latency: lat, class: class}
}

// metrics reads the server's counters over its own API.
func (s *served) metrics() (server.Metrics, error) {
	var m server.Metrics
	resp, err := s.client.Get(s.base + "/v1/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("metrics: %s", resp.Status)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

func (s *served) reset() {
	m, _ := s.metrics() // best effort: a failed read zeroes the baseline
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hits, s.misses = nil, nil
	s.queueNS, s.runNS, s.overheadNS = 0, 0, 0
	s.ops, s.cached, s.executed = 0, 0, 0
	s.mcH0, s.mcM0 = s.mc.Hits(), s.mc.Misses()
	s.coalesced0, s.reject0 = m.Jobs.Coalesced, m.Jobs.Rejected
}

func (s *served) info() map[string]float64 {
	m, _ := s.metrics()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]float64{
		"server.coalesced":      float64(m.Jobs.Coalesced - s.coalesced0),
		"server.rejected":       float64(m.Jobs.Rejected - s.reject0),
		"store.hit_ratio":       ratio(int64(len(s.hits)), int64(len(s.misses))),
		"methodcache.hit_ratio": ratio(s.mc.Hits()-s.mcH0, s.mc.Misses()-s.mcM0),
		"served.hit_p50_ms":     ms(percentile(s.hits, 0.5)),
		"served.miss_p50_ms":    ms(percentile(s.misses, 0.5)),
		"served.starved_draws":  float64(s.starved),
	}
	if n := len(s.misses); n > 0 {
		out["server.queue_ms"] = float64(s.queueNS) / float64(n) / 1e6
		out["server.run_ms"] = float64(s.runNS) / float64(n) / 1e6
		out["incremental.methods_cached"] = float64(s.cached) / float64(n)
		out["incremental.methods_executed"] = float64(s.executed) / float64(n)
	}
	if s.ops > 0 {
		out["server.http_overhead_ms"] = float64(s.overheadNS) / float64(s.ops) / 1e6
	}
	return out
}

// fullApp is l as an in-process full (non-incremental) reveal with the
// options the server derives for the same submission.
func (s *served) fullApp(l *link) (*app, error) {
	pkg, opts, _, err := server.ParseSubmission(url.Values{"force": {"1"}}, l.body)
	if err != nil {
		return nil, err
	}
	opts.Workers = s.srv.RevealWorkers()
	return &app{name: l.name, pkg: pkg, opts: func() dexlego.Options { return opts }}, nil
}

// finish re-reveals a seeded sample of the served links in process, in
// full, and requires each artifact to match byte for byte.
func (s *served) finish(log io.Writer) (int, error) {
	s.mu.Lock()
	var done []*link
	for _, ch := range s.chains {
		for _, l := range ch {
			if l.served {
				done = append(done, l)
			}
		}
	}
	s.mu.Unlock()
	r := newRand(s.seed, 4)
	r.Shuffle(len(done), func(i, j int) { done[i], done[j] = done[j], done[i] })
	if len(done) > servedChecked {
		done = done[:servedChecked]
	}
	failed := 0
	for _, l := range done {
		a, err := s.fullApp(l)
		if err != nil {
			return 0, err
		}
		res, err := dexlego.Reveal(a.pkg, a.opts())
		if err != nil {
			return 0, fmt.Errorf("full reveal of %s: %w", l.name, err)
		}
		data, err := res.Revealed.Bytes()
		if err != nil {
			return 0, err
		}
		if sha256.Sum256(data) != l.artifact {
			fmt.Fprintf(log, "# served check: %s artifact differs from the full in-process reveal\n", l.name)
			failed++
		}
	}
	return failed, nil
}

// replayApps are six seeded served links, as full reveals.
func (s *served) replayApps() []*app {
	s.mu.Lock()
	pool := append([]*link(nil), s.seen...)
	s.mu.Unlock()
	r := newRand(s.seed, 5)
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	var apps []*app
	for _, l := range pool[:min(6, len(pool))] {
		if a, err := s.fullApp(l); err == nil {
			apps = append(apps, a)
		}
	}
	return apps
}

func (s *served) close() {
	if s.hs != nil {
		s.srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = s.hs.Shutdown(ctx) // closes the listener; the serve goroutine returns
		cancel()
		if err := <-s.serveC; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "revealbench: served listener: %v\n", err)
		}
		s.client.CloseIdleConnections()
	}
	if s.srv != nil {
		s.srv.Close()
	}
}

func ratio(hit, miss int64) float64 {
	if hit+miss == 0 {
		return 0
	}
	return float64(hit) / float64(hit+miss)
}
