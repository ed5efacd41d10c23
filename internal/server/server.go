// Package server is the reveal-as-a-service layer: an HTTP job API over
// the DexLego pipeline. The paper positions DexLego as a front-end that
// feeds revealed APKs to downstream static analyzers (Sec. I, Fig. 1), so
// the service treats the reveal artifact as its unit of work: submissions
// are addressed into the content-addressed store (internal/store), a
// bounded queue feeds a pipeline worker pool, and repeated requests for
// the same (APK, Options) pair are served from cache without re-running
// the reveal.
//
// The store key is derived from the APK's content hash, which takes an
// inflate and a manifest parse of the upload. The server remembers, for a
// bounded number of uploads, which content hash a body's SHA-256 parsed
// to, so a repeat upload reaches its store hit without parsing; a body is
// parsed only when it is new or its artifact has left the store.
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
//	GET  /v1/metrics             job/store counters and dropped trace
//	                             events as JSON
//	GET  /metrics                OpenMetrics text exposition: the same
//	                             counters plus latency histograms, for
//	                             Prometheus-style scrapers
//	GET  /healthz                liveness: 200 while the process serves
//	GET  /readyz                 readiness: 200 accepting work, 503 while
//	                             draining
package server

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
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
	// forced-run pool (reassembly is serial and takes none). Admission
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
	// Sink, when set, receives the JSONL trace of the server span and of
	// every reveal; nil keeps metrics without trace lines.
	Sink obs.Sink
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

// maxBodyBytes bounds the uploaded APK size.
const maxBodyBytes = 64 << 20

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

	// Guarded by Server.mu.
	state        State
	cacheHit     bool
	err          string
	submitted    time.Time
	queueNS      int64
	runNS        int64
	totalNS      int64
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
	Trace   string `json:"trace,omitempty"`
	QueueNS int64  `json:"queueNS,omitempty"`
	RunNS   int64  `json:"runNS,omitempty"`
	TotalNS int64  `json:"totalNS,omitempty"`
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
	counts map[State]int
	// active indexes the queued/running job per artifact key: later
	// submissions of the same key join it (the key's reveal lease) instead
	// of burning a queue slot on a duplicate.
	active   map[string]*job
	draining atomic.Bool
	// bodies keys a repeat upload from its body digest (see resolve).
	bodies bodyIndex

	submitted atomic.Int64
	rejected  atomic.Int64
	coalesced atomic.Int64
	ids       atomic.Uint64
	// jobDropped totals the trace events finished jobs' tracers lost; the
	// live server tracer keeps its own count.
	jobDropped atomic.Int64
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

// Ready reports whether the server accepts new work: true until
// BeginDrain or Close.
func (s *Server) Ready() bool { return !s.draining.Load() }

// Close drains the queue (every admitted job still completes), stops the
// workers, and ends the server span. Call after BeginDrain and the HTTP
// listener's shutdown.
func (s *Server) Close() {
	s.draining.Store(true)
	s.pool.Close()
	s.root.End()
}

// ParseOptions builds the reveal Options of one submission from its query
// parameters (?force=1&fuzz=1&seed=N).
func ParseOptions(q url.Values) (dexlego.Options, error) {
	opts := dexlego.Options{
		InstallNatives: installAllPackers,
		ForceExecution: q.Get("force") == "1",
		Fuzz:           q.Get("fuzz") == "1",
	}
	if seed := q.Get("seed"); seed != "" {
		n, err := strconv.ParseInt(seed, 10, 64)
		if err != nil {
			return opts, fmt.Errorf("bad seed %q", seed)
		}
		opts.FuzzSeed = n
	}
	return opts, nil
}

// ParseSubmission builds the (APK, Options, name) of one reveal submission
// from its query parameters and raw body.
func ParseSubmission(q url.Values, body []byte) (*apk.APK, dexlego.Options, string, error) {
	opts, err := ParseOptions(q)
	if err != nil {
		return nil, opts, "", err
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
	return pkg, opts, nameFor(pkg.ContentHash()), nil
}

// nameFor names an uploaded APK's job by its content hash, the identity
// the store key is derived from.
func nameFor(contentHash [32]byte) string {
	return fmt.Sprintf("apk-%x", contentHash[:6])
}

// submission is one request resolved to its store key. pkg is nil when the
// body's digest resolved the key without parsing.
type submission struct {
	pkg  *apk.APK
	opts dexlego.Options
	name string
	key  string
}

// resolve turns a request into its submission. An uploaded body the server
// has parsed before is keyed from its digest alone: no inflate, no
// manifest parse. Every other body is parsed, and a parsed upload's digest
// is recorded for its next submission.
func (s *Server) resolve(q url.Values, body []byte) (submission, error) {
	upload := q.Get("sample") == ""
	var digest [32]byte
	if upload && len(body) > 0 {
		digest = sha256.Sum256(body)
		if ch, ok := s.bodies.get(digest); ok {
			opts, err := ParseOptions(q)
			if err != nil {
				return submission{}, err
			}
			return submission{opts: opts, name: nameFor(ch), key: store.KeyFor(ch, opts.Fingerprint())}, nil
		}
	}
	pkg, opts, name, err := ParseSubmission(q, body)
	if err != nil {
		return submission{}, err
	}
	ch := pkg.ContentHash()
	if upload {
		s.bodies.put(digest, ch)
	}
	return submission{pkg: pkg, opts: opts, name: name, key: store.KeyFor(ch, opts.Fingerprint())}, nil
}

// maxBodyDigests bounds the body-digest index; it is cleared when full.
// An entry is two SHA-256 sums, about 64 bytes, so the index stays near
// 256 KiB however many distinct bodies arrive.
const maxBodyDigests = 4096

// bodyIndex maps the SHA-256 of an uploaded body to the ContentHash that
// apk.Read derived from it. The key stays the content hash: a re-encoded
// zip of the same APK has another digest but the same content hash, so it
// still hits, and stores shared with the CLI and the batch path stay
// shared. A digest only skips re-deriving that hash from identical bytes.
type bodyIndex struct {
	mu sync.Mutex
	m  map[[32]byte][32]byte
}

func (b *bodyIndex) get(digest [32]byte) ([32]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ch, ok := b.m[digest]
	return ch, ok
}

func (b *bodyIndex) put(digest, contentHash [32]byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.m == nil || len(b.m) >= maxBodyDigests {
		b.m = make(map[[32]byte][32]byte)
	}
	b.m[digest] = contentHash
}

// retryAfterJitter returns a randomized Retry-After value — whole seconds
// in [1,3] — for 429 responses. Synchronized clients, which all observe an
// overloaded server at the same instant, would otherwise retry in lockstep
// and re-create the very queue spike that shed them; the jitter
// de-correlates the retry wave.
func retryAfterJitter() string { return strconv.Itoa(1 + rand.IntN(3)) }

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
	q := r.URL.Query()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
		return
	}
	sub, err := s.resolve(q, body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	key, name := sub.key, sub.name
	s.submitted.Add(1)

	// Fast path: the artifact already exists — answer without a job queue
	// round trip. The job record still exists so the id is pollable.
	if art, ok := s.cfg.Store.Get(key); ok {
		j := s.newJob(key, name)
		total := time.Since(j.submitted)
		s.tel.observeJob(0, 0, total, nil, false)
		s.mu.Lock()
		j.totalNS = int64(total)
		s.finishLocked(j, art, true, nil, 0)
		s.mu.Unlock()
		s.root.CacheHit(key)
		s.writeJob(w, http.StatusOK, j)
		return
	}
	if sub.pkg == nil {
		// The digest named a key whose artifact the store no longer holds:
		// the reveal needs the parsed APK.
		if sub.pkg, _, _, err = ParseSubmission(q, body); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	pkg, opts := sub.pkg, sub.opts

	// Admission lease: a queued/running job for the same key absorbs this
	// submission — no second queue slot, no second reveal. The lease bounds
	// a duplicate storm on this server to exactly one reveal instead of
	// shedding the duplicates with 429s.
	s.mu.Lock()
	leader := s.active[key]
	s.mu.Unlock()
	if leader != nil {
		s.coalesced.Add(1)
		s.respondAdmitted(w, r, leader)
		return
	}

	j := s.newJob(key, name)
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
		w.Header().Set("Retry-After", retryAfterJitter())
		httpError(w, http.StatusTooManyRequests, "queue full, retry later")
		return
	}
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
func (s *Server) newJob(key, name string) *job {
	j := &job{
		id:        fmt.Sprintf("job-%06d", s.ids.Add(1)),
		key:       key,
		name:      name,
		trace:     traceIDFor(key),
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
	for i, id := range s.order {
		if excess == 0 {
			kept = append(kept, s.order[i:]...)
			break
		}
		j := s.jobs[id]
		if j != nil && (j.state == StateDone || j.state == StateFailed) {
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
	rec := obs.NewFlightRecorder(s.cfg.Sink, 0)
	jobTracer := obs.New(rec)
	jobTracer.SetTraceID(j.trace)
	span := jobTracer.Start("job", j.name)
	span.QueueWait(j.id, wait)

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

	s.jobDropped.Add(jobTracer.Dropped() + revealTracer.Dropped())

	s.mu.Lock()
	j.totalNS = int64(total)
	s.finishLocked(j, art, hit, err, run)
	s.mu.Unlock()
}

// finishLocked records a job's completion. Callers hold s.mu.
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
		QueueNS:      j.queueNS,
		RunNS:        j.runNS,
		TotalNS:      j.totalNS,
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
	s.mu.Unlock()
	m.DroppedEvents = s.droppedEvents()
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
// draining node answers 503, so load balancers exclude it while liveness
// stays green.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if !s.Ready() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ready\n")
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
