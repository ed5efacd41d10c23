// Package server is the reveal-as-a-service layer: an HTTP job API over
// the DexLego pipeline. The paper positions DexLego as a front-end that
// feeds revealed APKs to downstream static analyzers (Sec. I, Fig. 1), so
// the service treats the reveal artifact as its unit of work: submissions
// are addressed into the content-addressed store (internal/store), a
// bounded queue feeds a pipeline worker pool, and repeated requests for
// the same (APK, Options) pair are served from cache without re-running
// the reveal.
//
// API:
//
//	POST /v1/reveal              submit an APK (request body) or a named
//	                             droidbench sample (?sample=Name); options
//	                             via ?force=1&fuzz=1&seed=N; ?wait=1
//	                             blocks until completion or the request
//	                             timeout. 200 on a cache hit or completed
//	                             wait, 202 with a job id otherwise, 429 +
//	                             Retry-After when the queue is full.
//	GET  /v1/jobs/{id}           job status/result JSON
//	GET  /v1/jobs/{id}/artifact  revealed APK bytes (zip)
//	GET  /v1/jobs/{id}/flight    JSONL flight recording (failed or
//	                             SLO-violating jobs only)
//	GET  /v1/metrics             job/store counters + merged obs snapshot
//	GET  /metrics                OpenMetrics text exposition of the same
//	                             plane, for Prometheus-style scrapers
//	GET  /healthz                liveness: 200 while the process serves
//	GET  /readyz                 readiness: 200 accepting work, 503 while
//	                             draining or before the node joined its
//	                             fleet
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	dexlego "dexlego"
	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/droidbench"
	"dexlego/internal/obs"
	"dexlego/internal/packer"
	"dexlego/internal/pipeline"
	"dexlego/internal/store"
)

// State is a job's position in its lifecycle.
type State string

// The job states, in lifecycle order.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// RevealFunc runs one reveal; it exists so tests can substitute the real
// dexlego.Reveal with a controllable stand-in.
type RevealFunc func(*apk.APK, dexlego.Options) (*dexlego.Result, error)

// Config parameterizes a Server.
type Config struct {
	// Store caches reveal artifacts; required.
	Store *store.Store
	// Workers is the job-level parallelism: how many reveals run at once
	// (<= 0 selects GOMAXPROCS).
	Workers int
	// RevealWorkers is the per-job worker budget handed to each reveal's
	// intra-APK pools (reassembly fan-out, force-execution runs). Admission
	// control clamps it so Workers × RevealWorkers never exceeds
	// GOMAXPROCS — jobs-level and reveal-level parallelism multiply, and
	// oversubscription would thrash rather than speed up. <= 0 grants each
	// job the largest budget the cap allows.
	RevealWorkers int
	// QueueDepth bounds jobs admitted but not yet running (<= 0 selects
	// 64). A full queue answers 429, never unbounded memory growth.
	QueueDepth int
	// RequestTimeout bounds ?wait=1 blocking (<= 0 selects 30s).
	RequestTimeout time.Duration
	// MaxBodyBytes bounds the uploaded APK size (<= 0 selects 64 MiB).
	MaxBodyBytes int64
	// Sink, when set, receives the JSONL trace of the server span and of
	// every reveal; nil keeps metrics without trace lines.
	Sink obs.Sink
	// FlightEvents bounds each job's flight-recorder ring — the most recent
	// trace events retained for incident dumps (<= 0 selects 256).
	FlightEvents int
	// FlightDir, when set, receives one <jobid>.jsonl flight recording per
	// failed or SLO-violating job. The directory must exist.
	FlightDir string
	// SLO, when > 0, is the admission-to-completion latency objective: jobs
	// exceeding it emit an slo_violation event and dump their flight ring
	// even though they succeeded.
	SLO time.Duration
	// Reveal substitutes the reveal implementation in tests; nil selects
	// dexlego.Reveal.
	Reveal RevealFunc
	// MethodCache, when set, enables the incremental reveal path for every
	// job: reveals skip methods whose fingerprinted collection trees are
	// already cached and splice them instead (see dexlego.Options).
	MethodCache *store.MethodCache
	// MemBudget, when set, gates fresh reveals on estimated heap footprint:
	// a reveal whose estimate does not fit under the budget blocks until
	// running reveals release theirs (emitting mem_admit_wait). Cache hits
	// never wait — the gate sits inside the reveal closure. Nil admits
	// everything immediately.
	MemBudget *pipeline.MemoryBudget
	// SpillCache, when set, enables the memory-budgeted output path for
	// every job (see dexlego.Options.SpillCache): collection results are
	// displaced to this cache between execution and reassembly and the DEX
	// is emitted through the streaming writer.
	SpillCache *store.MethodCache
}

// maxFinishedJobs bounds the completed-job history the server retains for
// GET /v1/jobs/{id}; the oldest finished jobs are dropped past it.
const maxFinishedJobs = 1024

// job is the server-side record of one submission.
type job struct {
	id   string
	key  string
	name string

	// trace is the job's stable trace identity: a prefix of its content
	// address, stamped on every event of the job's span tree.
	trace string
	// hops are the fleet nodes the submission traversed before landing
	// here (FleetHopsHeader); each is stamped into the job's flight trace.
	hops []string

	// Guarded by Server.mu.
	state        State
	cacheHit     bool
	err          string
	submitted    time.Time
	queueNS      int64
	runNS        int64
	totalNS      int64
	resources    *pipeline.ResourceUsage
	flight       []byte // JSONL flight recording; nil unless the job failed or blew its SLO
	flightReason string
	artifact     *store.Artifact

	done chan struct{} // closed on completion
}

// JobStatus is the JSON shape of a job returned by the API.
type JobStatus struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Name  string `json:"name,omitempty"`
	// Key is the artifact's content address in the store.
	Key string `json:"key"`
	// CacheHit reports the reveal was served from the store (or from a
	// concurrent identical request) without running.
	CacheHit bool   `json:"cacheHit"`
	Err      string `json:"err,omitempty"`
	// Trace is the job's stable trace identity (a content-address prefix);
	// filter a shared JSONL trace on it to extract this job's span tree.
	Trace string `json:"trace,omitempty"`
	// Hops are the fleet nodes the submission traversed before the node
	// that answered it (empty outside fleet mode).
	Hops    []string `json:"hops,omitempty"`
	QueueNS int64    `json:"queueNS,omitempty"`
	RunNS   int64    `json:"runNS,omitempty"`
	TotalNS int64    `json:"totalNS,omitempty"`
	// Resources is the job's resource bill as the server observed it:
	// latency split always, CPU/heap figures when the job actually ran.
	Resources *pipeline.ResourceUsage `json:"resources,omitempty"`
	// FlightReason is set ("failed" or "slo") when a flight recording is
	// available at /v1/jobs/{id}/flight.
	FlightReason string `json:"flightReason,omitempty"`
	// RevealedBytes sizes the artifact available at /v1/jobs/{id}/artifact.
	RevealedBytes int                  `json:"revealedBytes,omitempty"`
	Metrics       *pipeline.AppMetrics `json:"metrics,omitempty"`
}

// Metrics is the JSON shape of GET /v1/metrics.
type Metrics struct {
	Jobs struct {
		Submitted int64 `json:"submitted"`
		Queued    int   `json:"queued"`
		Running   int   `json:"running"`
		Done      int   `json:"done"`
		Failed    int   `json:"failed"`
		Rejected  int64 `json:"rejected"`
		// Coalesced counts submissions that joined an already-active job
		// for the same key instead of enqueueing a duplicate.
		Coalesced int64 `json:"coalesced"`
	} `json:"jobs"`
	Store struct {
		Hits     int64 `json:"hits"`
		Misses   int64 `json:"misses"`
		Evicted  int64 `json:"evicted"`
		Resident int   `json:"resident"`
	} `json:"store"`
	// DroppedEvents totals trace events lost anywhere in the plane (live
	// server tracer plus completed per-job tracers); non-zero means the
	// trace is incomplete and the sink needs attention.
	DroppedEvents int64 `json:"droppedEvents"`
	// Obs merges the server lifecycle snapshot (cache_hit/cache_miss,
	// queue_wait, job_enqueued/job_done) with every completed reveal's
	// per-app snapshot.
	Obs *obs.Snapshot `json:"obs,omitempty"`
}

// Server is the reveal job service. Create with New, expose via Handler,
// stop with BeginDrain + Close.
type Server struct {
	cfg    Config
	reveal RevealFunc
	pool   *pipeline.Pool
	tracer *obs.Tracer
	root   *obs.Span
	tel    *telemetry
	// revealWorkers is the admitted per-job worker budget after the
	// GOMAXPROCS oversubscription clamp in New.
	revealWorkers int

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // submission order, for history trimming
	agg    *obs.Snapshot
	counts map[State]int
	// active indexes the queued/running job per artifact key: later
	// submissions of the same key join it (the key's reveal lease) instead
	// of burning a queue slot on a duplicate.
	active   map[string]*job
	draining atomic.Bool
	// notReady inverts the readiness default so the zero value is ready:
	// only a fleet layer that has not finished joining flips it.
	notReady atomic.Bool

	submitted atomic.Int64
	rejected  atomic.Int64
	coalesced atomic.Int64
	ids       atomic.Uint64
}

// New returns a serving (not yet listening) server; wire its Handler into
// an http.Server. Callers own cfg.Store's lifetime.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("server: Config.Store is required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	reveal := cfg.Reveal
	if reveal == nil {
		reveal = dexlego.Reveal
	}
	tracer := obs.New(cfg.Sink)
	s := &Server{
		cfg:    cfg,
		reveal: reveal,
		pool:   pipeline.NewPool(cfg.Workers, cfg.QueueDepth),
		tracer: tracer,
		root:   tracer.Start("server", "dexlego-serve"),
		jobs:   make(map[string]*job),
		active: make(map[string]*job),
		counts: make(map[State]int),
	}
	s.tel = newTelemetry(s)
	// Admission control for intra-reveal parallelism: the pool runs up to
	// poolWorkers reveals at once and each reveal fans out RevealWorkers
	// goroutines, so the products multiply. Clamp the per-job budget to
	// GOMAXPROCS / poolWorkers (floor 1) so a busy server never schedules
	// more runnable goroutines than cores. NewPool resolves <= 0 to
	// GOMAXPROCS internally, so mirror that here to clamp against the
	// actual pool size.
	procs := runtime.GOMAXPROCS(0)
	poolWorkers := cfg.Workers
	if poolWorkers <= 0 {
		poolWorkers = procs
	}
	budget := procs / poolWorkers
	if budget < 1 {
		budget = 1
	}
	s.revealWorkers = cfg.RevealWorkers
	if s.revealWorkers <= 0 || s.revealWorkers > budget {
		requested := cfg.RevealWorkers
		s.revealWorkers = budget
		if requested > budget {
			s.root.WorkerClamp(requested, budget,
				fmt.Sprintf("%d jobs x %d reveal workers exceeds GOMAXPROCS=%d",
					poolWorkers, requested, procs))
		}
	}
	return s, nil
}

// RevealWorkers reports the per-job worker budget after admission control.
func (s *Server) RevealWorkers() int { return s.revealWorkers }

// Handler returns the API routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/reveal", s.handleReveal)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/artifact", s.handleArtifact)
	mux.HandleFunc("GET /v1/jobs/{id}/flight", s.handleFlight)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics", s.handleOpenMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	return mux
}

// BeginDrain stops admitting work: POST answers 503 and /readyz flips, so
// load balancers stop routing here while in-flight jobs finish (/healthz
// liveness stays 200 throughout).
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// SetReady flips the node's readiness as served by /readyz. A standalone
// server is ready from construction; a fleet node starts not-ready and
// flips true once it has joined its ring, so peers never route to a node
// that cannot yet place keys.
func (s *Server) SetReady(ready bool) { s.notReady.Store(!ready) }

// Ready reports whether the node accepts routed work (and is not draining).
func (s *Server) Ready() bool { return !s.notReady.Load() && !s.draining.Load() }

// Load reports the node's admitted-but-unfinished job count (queued plus
// running) — the signal the fleet's least-loaded-replica escalation and
// peer heartbeats read.
func (s *Server) Load() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[StateQueued] + s.counts[StateRunning]
}

// Registry exposes the server's typed metric registry so layers wrapping
// the server (the fleet router) can register their own series into the
// same /metrics exposition.
func (s *Server) Registry() *obs.Registry { return s.tel.reg }

// Store exposes the content-addressed artifact store backing this server.
func (s *Server) Store() *store.Store { return s.cfg.Store }

// Close drains the queue (every admitted job still completes), stops the
// workers, and ends the server span. Call after BeginDrain and the HTTP
// listener's shutdown.
func (s *Server) Close() {
	s.draining.Store(true)
	s.pool.Close()
	s.root.End()
}

// parseRequest builds the (APK, Options, name) of one submission.
func (s *Server) parseRequest(w http.ResponseWriter, r *http.Request) (*apk.APK, dexlego.Options, string, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		return nil, dexlego.Options{}, "", fmt.Errorf("read body: %v", err)
	}
	return ParseSubmission(r.URL.Query(), body)
}

// ParseSubmission builds the (APK, Options, name) of one reveal submission
// from its query parameters and raw body, the shared request vocabulary of
// this server and the fleet router in front of it (which must derive the
// cache key before deciding which node handles the request).
func ParseSubmission(q url.Values, body []byte) (*apk.APK, dexlego.Options, string, error) {
	opts := dexlego.Options{
		InstallNatives: installAllPackers,
		ForceExecution: q.Get("force") == "1",
		Fuzz:           q.Get("fuzz") == "1",
	}
	if seed := q.Get("seed"); seed != "" {
		n, err := strconv.ParseInt(seed, 10, 64)
		if err != nil {
			return nil, opts, "", fmt.Errorf("bad seed %q", seed)
		}
		opts.FuzzSeed = n
	}
	if sample := q.Get("sample"); sample != "" {
		sm := droidbench.ByName(sample)
		if sm == nil {
			return nil, opts, "", fmt.Errorf("unknown droidbench sample %q", sample)
		}
		pkg, err := sm.Build()
		if err != nil {
			return nil, opts, "", fmt.Errorf("build sample %q: %v", sample, err)
		}
		opts.Natives = sm.Natives()
		return pkg, opts, sample, nil
	}
	if len(body) == 0 {
		return nil, opts, "", errors.New("empty body: send APK bytes or ?sample=Name")
	}
	pkg, err := apk.Read(body)
	if err != nil {
		return nil, opts, "", fmt.Errorf("body is not an APK: %v", err)
	}
	h := pkg.ContentHash()
	return pkg, opts, fmt.Sprintf("apk-%x", h[:6]), nil
}

// RetryAfterJitter returns a randomized Retry-After value — whole seconds
// in [1,3] — for 429 responses. Synchronized clients (and fleet-internal
// forwards, which all observe an overloaded node at the same instant)
// would otherwise retry in lockstep and re-create the very queue spike
// that shed them; the jitter de-correlates the retry wave.
func RetryAfterJitter() string { return strconv.Itoa(1 + rand.IntN(3)) }

// FleetHopsHeader carries the comma-separated node IDs a fleet-forwarded
// submission traversed before reaching the node that executes it. The
// fleet router appends itself when forwarding; the executing server stamps
// each hop into the job's flight-recorder trace.
const FleetHopsHeader = "X-Dexlego-Fleet-Hops"

// fleetHops parses FleetHopsHeader ("" outside fleet mode).
func fleetHops(h http.Header) []string {
	raw := h.Get(FleetHopsHeader)
	if raw == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(raw, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// installAllPackers is the server-wide native setup: the shell libraries
// of every supported packer, so packed submissions unpack transparently
// (as cmd/dexlego does in one-shot mode). Constant across requests, so it
// never perturbs the options fingerprint between submissions.
func installAllPackers(rt *art.Runtime) {
	for _, pk := range packer.All() {
		pk.InstallNatives(rt)
	}
}

func (s *Server) handleReveal(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	pkg, opts, name, err := s.parseRequest(w, r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := store.KeyFor(pkg.ContentHash(), opts.Fingerprint())
	s.submitted.Add(1)

	hops := fleetHops(r.Header)

	// Fast path: the artifact already exists — answer without a job queue
	// round trip. The job record still exists so the id is pollable.
	if art, ok := s.cfg.Store.Get(key); ok {
		j := s.newJob(key, name, hops)
		total := time.Since(j.submitted)
		s.tel.observeJob(0, 0, total, nil, false)
		s.mu.Lock()
		j.totalNS = int64(total)
		j.resources = &pipeline.ResourceUsage{TotalNS: int64(total)}
		s.finishLocked(j, art, true, nil, 0)
		s.mu.Unlock()
		s.root.CacheHit(key)
		s.writeJob(w, http.StatusOK, j)
		return
	}

	// Admission lease: a queued/running job for the same key absorbs this
	// submission — no second queue slot, no second reveal. The fleet router
	// concentrates every duplicate of a key on its ring owner, so this
	// coalescing is what bounds a fleet-wide duplicate storm to exactly one
	// reveal instead of shedding duplicates with 429s.
	s.mu.Lock()
	leader := s.active[key]
	s.mu.Unlock()
	if leader != nil {
		s.coalesced.Add(1)
		s.respondAdmitted(w, r, leader)
		return
	}

	j := s.newJob(key, name, hops)
	s.mu.Lock()
	if cur := s.active[key]; cur != nil {
		// Lost the publication race: another request just became leader.
		s.mu.Unlock()
		s.dropJob(j)
		s.coalesced.Add(1)
		s.respondAdmitted(w, r, cur)
		return
	}
	s.active[key] = j
	s.mu.Unlock()

	submitTime := time.Now()
	accepted := s.pool.TrySubmit(func() { s.runJob(j, submitTime, pkg, opts) })
	if !accepted {
		s.mu.Lock()
		if s.active[key] == j {
			delete(s.active, key)
		}
		s.mu.Unlock()
		s.rejected.Add(1)
		s.dropJob(j)
		w.Header().Set("Retry-After", RetryAfterJitter())
		httpError(w, http.StatusTooManyRequests, "queue full, retry later")
		return
	}
	s.root.JobEnqueued(j.id)
	s.respondAdmitted(w, r, j)
}

// respondAdmitted answers an admitted (or joined) submission: blocking on
// completion under ?wait=1, 202 + Location otherwise.
func (s *Server) respondAdmitted(w http.ResponseWriter, r *http.Request, j *job) {
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-j.done:
			s.writeJob(w, http.StatusOK, j)
		case <-time.After(s.cfg.RequestTimeout):
			s.writeJob(w, http.StatusAccepted, j)
		case <-r.Context().Done():
			// Client went away; the job still completes and is pollable.
		}
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	s.writeJob(w, http.StatusAccepted, j)
}

// newJob registers a queued job record, trimming finished history.
func (s *Server) newJob(key, name string, hops []string) *job {
	j := &job{
		id:        fmt.Sprintf("job-%06d", s.ids.Add(1)),
		key:       key,
		name:      name,
		trace:     traceIDFor(key),
		hops:      hops,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.counts[StateQueued]++
	s.trimLocked()
	s.mu.Unlock()
	return j
}

// dropJob forgets a job that was never admitted (429 path).
func (s *Server) dropJob(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[j.id]; !ok {
		return
	}
	delete(s.jobs, j.id)
	s.counts[j.state]--
	for i, id := range s.order {
		if id == j.id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// trimLocked drops the oldest finished jobs past the history bound;
// queued/running jobs are never dropped.
func (s *Server) trimLocked() {
	if len(s.order) <= maxFinishedJobs {
		return
	}
	kept := s.order[:0]
	excess := len(s.order) - maxFinishedJobs
	for _, id := range s.order {
		j := s.jobs[id]
		if excess > 0 && j != nil && (j.state == StateDone || j.state == StateFailed) {
			delete(s.jobs, id)
			s.counts[j.state]--
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// estimateFootprint predicts a fresh reveal's peak heap from its input.
// Collection trees, the method map, and reassembly scratch all scale with
// the bytecode — not the package — so the primary dex payload drives the
// estimate. The multiplier is deliberately generous (decoded tree graphs
// run several times their serialized size and the budget is an admission
// gate, not an allocator), with a floor covering the runtime substrate's
// fixed overhead.
func estimateFootprint(pkg *apk.APK) int64 {
	const floor = 8 << 20
	data, err := pkg.Dex()
	if err != nil {
		return floor
	}
	est := int64(len(data)) * 24
	if est < floor {
		est = floor
	}
	return est
}

// runJob executes one admitted job on a pool worker. The job's whole span
// tree — lifecycle span and reveal spans alike — flows through a per-job
// tracer pair sharing one flight-recorder ring and one trace ID, so an
// incident can dump the job's recent history end to end while the happy
// path pays only one ring store per event.
func (s *Server) runJob(j *job, submitTime time.Time, pkg *apk.APK, opts dexlego.Options) {
	wait := time.Since(submitTime)
	rec := obs.NewFlightRecorder(s.cfg.Sink, s.cfg.FlightEvents)
	jobTracer := obs.New(rec)
	jobTracer.SetTraceID(j.trace)
	span := jobTracer.Start("job", j.name)
	span.QueueWait(j.id, wait)
	// Stamp the submission's fleet path into the flight ring: an incident
	// dump then shows which nodes the request traversed before it ran here.
	for _, hop := range j.hops {
		span.FleetHop(j.id, hop)
	}

	s.mu.Lock()
	s.counts[j.state]--
	j.state = StateRunning
	j.queueNS = int64(wait)
	s.counts[StateRunning]++
	s.mu.Unlock()

	// The reveal owns a second tracer (the per-app snapshot riding in the
	// artifact must cover only reveal events) sharing the job's ring and
	// trace ID, so the flight recording holds the end-to-end tree.
	revealTracer := obs.New(rec)
	revealTracer.SetTraceID(j.trace)

	runStart := time.Now()
	art, hit, err := s.cfg.Store.GetOrReveal(j.key, func() (*store.Artifact, error) {
		// The memory gate sits inside the reveal closure so cache hits are
		// served without ever waiting on it; only fresh reveals carry the
		// heap footprint the budget meters.
		if s.cfg.MemBudget != nil {
			est := estimateFootprint(pkg)
			resv, waited := s.cfg.MemBudget.Acquire(est)
			defer resv.Release()
			if waited > 0 {
				span.MemAdmitWait(j.id, waited, est)
			}
		}
		o := opts
		o.Tracer = revealTracer
		o.TraceLabel = j.name
		// The admitted budget, not the raw config: Workers is outside the
		// options fingerprint (it never changes artifact bytes), so this
		// cannot split the cache.
		o.Workers = s.revealWorkers
		// Same reasoning for the incremental method cache: an execution
		// strategy, byte-identical output, outside the fingerprint.
		o.MethodCache = s.cfg.MethodCache
		// The spill tier is likewise an execution strategy with
		// byte-identical output, outside the fingerprint.
		o.SpillCache = s.cfg.SpillCache
		var res *dexlego.Result
		revealErr := pipeline.Isolate(func() error {
			r, err := s.reveal(pkg, o)
			res = r
			return err
		})
		if revealErr != nil {
			return nil, revealErr
		}
		revealed, err := res.Revealed.Bytes()
		if err != nil {
			return nil, fmt.Errorf("serialize revealed apk: %w", err)
		}
		metrics := &pipeline.AppMetrics{Name: j.name}
		if res.Metrics != nil {
			m := *res.Metrics
			m.Name = j.name
			metrics = &m
		}
		return &store.Artifact{Name: j.name, Revealed: revealed, Metrics: metrics}, nil
	})
	if hit {
		span.CacheHit(j.key)
	} else if err == nil {
		span.CacheMiss(j.key)
	}
	run := time.Since(runStart)
	total := time.Since(submitTime)
	fresh := !hit && err == nil

	// The job's resource bill: latency split from the server's clocks,
	// CPU/heap figures from the reveal when this job actually ran one.
	ru := &pipeline.ResourceUsage{QueueNS: int64(wait), RunNS: int64(run), TotalNS: int64(total)}
	if fresh && art.Metrics != nil && art.Metrics.Resources != nil {
		r := *art.Metrics.Resources
		r.QueueNS = int64(wait)
		r.TotalNS = int64(total)
		ru = &r
	}

	sloViolated := s.cfg.SLO > 0 && total > s.cfg.SLO
	if sloViolated {
		s.tel.sloViolations.Add(1)
		span.SLOViolation(j.id, total, s.cfg.SLO)
	}
	span.JobDone(j.id, total, err == nil)
	switch {
	case err != nil:
		s.dumpFlight(j, rec, span, obs.FlightReasonFailed)
	case sloViolated:
		s.dumpFlight(j, rec, span, obs.FlightReasonSLO)
	}
	span.End()

	var m *pipeline.AppMetrics
	if art != nil {
		m = art.Metrics
	}
	s.tel.observeJob(wait, run, total, m, fresh)

	s.mu.Lock()
	j.totalNS = int64(total)
	j.resources = ru
	s.finishLocked(j, art, hit, err, run)
	// Fold the job's lifecycle tracer into the aggregate. The reveal
	// tracer's snapshot rides in the artifact for successes (finishLocked
	// merges it); on failure no artifact exists to carry it, so merge the
	// reveal tracer directly — its drop count must not vanish.
	s.agg = obs.MergeSnapshots(s.agg, jobTracer.Snapshot())
	if err != nil {
		s.agg = obs.MergeSnapshots(s.agg, revealTracer.Snapshot())
	}
	s.mu.Unlock()
}

// finishLocked records a job's completion and publishes its obs snapshot
// into the server aggregate. Callers hold s.mu.
func (s *Server) finishLocked(j *job, art *store.Artifact, hit bool, err error, run time.Duration) {
	if s.active[j.key] == j {
		delete(s.active, j.key)
	}
	s.counts[j.state]--
	j.runNS = int64(run)
	j.cacheHit = hit
	if err != nil {
		j.state = StateFailed
		j.err = err.Error()
	} else {
		j.state = StateDone
		j.artifact = art
		if art.Metrics != nil && art.Metrics.Obs != nil {
			s.agg = obs.MergeSnapshots(s.agg, art.Metrics.Obs)
		}
	}
	s.counts[j.state]++
	close(j.done)
}

// statusLocked snapshots a job into its JSON shape. Callers hold s.mu.
func (j *job) statusLocked() *JobStatus {
	st := &JobStatus{
		ID:           j.id,
		State:        j.state,
		Name:         j.name,
		Key:          j.key,
		CacheHit:     j.cacheHit,
		Err:          j.err,
		Trace:        j.trace,
		Hops:         j.hops,
		QueueNS:      j.queueNS,
		RunNS:        j.runNS,
		TotalNS:      j.totalNS,
		Resources:    j.resources,
		FlightReason: j.flightReason,
	}
	if j.artifact != nil {
		st.RevealedBytes = len(j.artifact.Revealed)
		st.Metrics = j.artifact.Metrics
	}
	return st
}

func (s *Server) writeJob(w http.ResponseWriter, code int, j *job) {
	s.mu.Lock()
	st := j.statusLocked()
	s.mu.Unlock()
	writeJSON(w, code, st)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	var st *JobStatus
	if ok {
		st = j.statusLocked()
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	var art *store.Artifact
	var state State
	if ok {
		art, state = j.artifact, j.state
	}
	s.mu.Unlock()
	switch {
	case !ok:
		httpError(w, http.StatusNotFound, "unknown job")
	case state == StateFailed:
		httpError(w, http.StatusConflict, "job failed; no artifact")
	case art == nil:
		httpError(w, http.StatusConflict, "job not finished; poll /v1/jobs/{id}")
	default:
		w.Header().Set("Content-Type", "application/zip")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(art.Revealed)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var m Metrics
	m.Jobs.Submitted = s.submitted.Load()
	m.Jobs.Rejected = s.rejected.Load()
	m.Jobs.Coalesced = s.coalesced.Load()
	m.Store.Hits = s.cfg.Store.Hits()
	m.Store.Misses = s.cfg.Store.Misses()
	m.Store.Evicted = s.cfg.Store.Evicted()
	m.Store.Resident = s.cfg.Store.Len()
	s.mu.Lock()
	m.Jobs.Queued = s.counts[StateQueued]
	m.Jobs.Running = s.counts[StateRunning]
	m.Jobs.Done = s.counts[StateDone]
	m.Jobs.Failed = s.counts[StateFailed]
	// Merge into a fresh snapshot: MergeSnapshots mutates its dst, and the
	// aggregate must keep accumulating independently of this response.
	snap := obs.MergeSnapshots(nil, s.agg)
	s.mu.Unlock()
	m.Obs = obs.MergeSnapshots(snap, s.tracer.Snapshot())
	if m.Obs != nil {
		m.DroppedEvents = m.Obs.Dropped
	}
	writeJSON(w, http.StatusOK, &m)
}

// handleHealth is liveness: the process is up and serving HTTP. It stays
// 200 through a drain — a draining node is alive, it just takes no new
// work — so orchestrators never kill a node for refusing admissions.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ok\n")
}

// handleReady is readiness: whether this node should receive new work. A
// draining node or one that has not yet joined its fleet (SetReady(false))
// answers 503, so routers and fleet peers exclude it while liveness stays
// green.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		httpError(w, http.StatusServiceUnavailable, "draining")
	case !s.Ready():
		httpError(w, http.StatusServiceUnavailable, "not ready")
	default:
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ready\n")
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
