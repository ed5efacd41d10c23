package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	runtimemetrics "runtime/metrics"
	"sort"
	"sync"
	"time"
)

// instance is one set-up workload: its generated inputs, the system under
// test, and the references its outputs are checked against.
type instance interface {
	// op runs one operation for caller c. A returned error means the
	// operation failed or its output failed its check; either way it is
	// counted, never fatal.
	op(c int) opResult
	// finish runs the untimed end-of-run checks, logs each mismatch to
	// log, and returns how many it found; an error means a check itself
	// could not run.
	finish(log io.Writer) (failed int, err error)
	// info returns the workload-specific figures of the window since the
	// last reset, keyed by per-layer metric name.
	info() map[string]float64
	// reset clears the figures info reports.
	reset()
	// replayApps are the inputs the traced run replays layer by layer.
	replayApps() []*app
	close()
}

// opResult is the outcome of one operation.
type opResult struct {
	latency time.Duration
	// class splits latencies ("hit", "miss"); "" leaves the op unsplit.
	class string
	err   error
}

// windowStats are the figures of one measured window.
type windowStats struct {
	// done holds the successful ops in completion order.
	done      []opSample
	byClass   map[string][]time.Duration
	attempted int
	failed    int
	errs      []error // the first few failures, for the log
	elapsed   time.Duration
	heap      []heapSample
	// probes are the callers' probe logs.
	probes []*prober
}

// opSample is one successful op: when it completed (since the window
// started), how long it took, and that time scaled to the reference host
// speed (see probe.go).
type opSample struct {
	end, latency, scaled time.Duration
}

// The window is split up so that a burst of preemption by other tenants of
// the machine moves one part, not the reported figure: the rate is the
// median over groups of consecutive ops, and the tail latency and the heap
// peak are medians over equal time slices of each slice's figure.
const (
	maxGroups     = 10
	minGroupOps   = 1000
	slices        = 5
	heapSampleGap = 2 * time.Millisecond
)

// groups splits the successful ops into up to maxGroups consecutive groups
// of at least minGroupOps each; nil when fewer than three groups fit.
func (w *windowStats) groups() [][]opSample {
	k := min(maxGroups, len(w.done)/minGroupOps)
	if k < 3 {
		return nil
	}
	gs := make([][]opSample, k)
	for i := range gs {
		gs[i] = w.done[i*len(w.done)/k : (i+1)*len(w.done)/k]
	}
	return gs
}

func latencies(ops []opSample) []time.Duration {
	lat := make([]time.Duration, len(ops))
	for i, o := range ops {
		lat[i] = o.latency
	}
	return lat
}

// opsPerSecond is completed ops per second of wall time.
func (w *windowStats) opsPerSecond() float64 {
	gs := w.groups()
	if gs == nil {
		if w.elapsed <= 0 {
			return 0
		}
		return float64(len(w.done)) / w.elapsed.Seconds()
	}
	rates := make([]float64, len(gs))
	var from time.Duration
	for i, g := range gs {
		to := g[len(g)-1].end
		rates[i] = float64(len(g)) / (to - from).Seconds()
		from = to
	}
	sort.Float64s(rates)
	return median(rates)
}

// scaledP50 is the median op latency scaled to the reference host speed.
func (w *windowStats) scaledP50() time.Duration {
	lat := make([]time.Duration, len(w.done))
	for i, o := range w.done {
		lat[i] = o.scaled
	}
	return percentile(lat, 0.5)
}

// scaledMean is the mean op latency scaled to the reference host speed.
func (w *windowStats) scaledMean() time.Duration {
	if len(w.done) == 0 {
		return 0
	}
	var sum time.Duration
	for _, o := range w.done {
		sum += o.scaled
	}
	return sum / time.Duration(len(w.done))
}

// hostSpeed is the host's speed over the window relative to the reference:
// probeRef over the median burst of all callers.
func (w *windowStats) hostSpeed() float64 {
	var ds []float64
	for _, p := range w.probes {
		for _, b := range p.log {
			ds = append(ds, float64(b.d))
		}
	}
	sort.Float64s(ds)
	if len(ds) == 0 {
		return 0
	}
	return float64(probeRef) / median(ds)
}

// slice maps an offset into the window to its time slice.
func (w *windowStats) slice(at time.Duration) int {
	return max(0, min(slices-1, int(slices*at/w.elapsed)))
}

// p50 is the median op latency over the whole window.
func (w *windowStats) p50() time.Duration {
	return percentile(latencies(w.done), 0.5)
}

// p99 is the median over the window's time slices of each slice's 99th
// percentile op latency (an op belongs to the slice it ended in).
func (w *windowStats) p99() time.Duration {
	if len(w.done) == 0 || w.elapsed <= 0 {
		return 0
	}
	parts := make([][]time.Duration, slices)
	for _, o := range w.done {
		i := w.slice(o.end)
		parts[i] = append(parts[i], o.latency)
	}
	var qs []float64
	for _, p := range parts {
		if len(p) > 0 {
			qs = append(qs, float64(percentile(p, 0.99)))
		}
	}
	sort.Float64s(qs)
	return time.Duration(median(qs))
}

// peakHeap is the median over the window's time slices of the largest
// heap occupancy sampled in each.
func (w *windowStats) peakHeap() int64 {
	if len(w.heap) == 0 || w.elapsed <= 0 {
		return 0
	}
	peaks := make([]float64, slices)
	for _, h := range w.heap {
		i := w.slice(h.at)
		peaks[i] = math.Max(peaks[i], float64(h.bytes))
	}
	sort.Float64s(peaks)
	return int64(median(peaks))
}

// percentile returns the q-quantile of lat by linear interpolation between
// closest ranks (the same definition for every sample size).
func percentile(lat []time.Duration, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

// runWindow runs callers closed loops over inst until d has passed: each
// caller issues its next operation only when the previous one returned,
// and runs a probe burst before it when one is due. With a tracer, every
// operation is recorded as a span.
func runWindow(inst instance, callers int, d time.Duration, tr *tracer) *windowStats {
	w := &windowStats{byClass: make(map[string][]time.Duration)}
	for c := 0; c < callers; c++ {
		w.probes = append(w.probes, newProber())
	}
	runtime.GC() // start every window from the same heap state
	var mu sync.Mutex
	var wg sync.WaitGroup
	var client []int // per successful op, its caller; guarded by mu
	start := time.Now()
	heap := startHeapSampler(start, heapSampleGap)
	deadline := start.Add(d)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pr := w.probes[c]
			defer pr.record(start) // brackets the last op
			for time.Now().Before(deadline) {
				if pr.due(start) {
					pr.record(start)
				}
				var r opResult
				if tr != nil {
					id := tr.begin(0, "op", fmt.Sprintf("client%d", c))
					r = inst.op(c)
					tr.end(id)
				} else {
					r = inst.op(c)
				}
				mu.Lock()
				w.attempted++
				if r.err != nil {
					w.failed++
					if len(w.errs) < 5 {
						w.errs = append(w.errs, r.err)
					}
				} else {
					// Scaled once the closing burst is logged, below.
					w.done = append(w.done, opSample{end: time.Since(start), latency: r.latency})
					client = append(client, c)
					if r.class != "" {
						w.byClass[r.class] = append(w.byClass[r.class], r.latency)
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	w.heap = heap.stop()
	for i := range w.done {
		o := &w.done[i]
		o.scaled = time.Duration(float64(o.latency) * w.probes[client[i]].scaleAround(o.end))
	}
	return w
}

// heapSample is one reading of the live heap.
type heapSample struct {
	at    time.Duration // since the window started
	bytes int64
}

// heapSampler records the live heap (as marked by the latest garbage
// collection) on a ticker.
type heapSampler struct {
	start   time.Time
	done    chan struct{}
	wg      sync.WaitGroup
	samples []heapSample // written by the sampler goroutine only until stop
}

func readHeap() int64 {
	s := []runtimemetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	runtimemetrics.Read(s)
	if s[0].Value.Kind() != runtimemetrics.KindUint64 {
		return 0
	}
	return int64(s[0].Value.Uint64())
}

func startHeapSampler(start time.Time, interval time.Duration) *heapSampler {
	h := &heapSampler{start: start, done: make(chan struct{})}
	h.sample()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	h.samples = append(h.samples, heapSample{at: time.Since(h.start), bytes: readHeap()})
}

// stop ends the sampler, waits for its goroutine and returns the samples.
func (h *heapSampler) stop() []heapSample {
	close(h.done)
	h.wg.Wait()
	h.sample()
	return h.samples
}

// span is one recorded interval of the benchmark's own trace.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"startNS"`
	End   int64 `json:"endNS"`
}

// tracer keeps the benchmark's spans in memory until the run ends. Spans
// wrap the benchmark's calls into the system's layers; the system itself is
// not instrumented.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(parent int64, name, label string) int64 {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Label: label, Start: now})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int64) time.Duration {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// time runs f inside a span and returns the span's duration.
func (t *tracer) time(parent int64, name, label string, f func()) time.Duration {
	id := t.begin(parent, name, label)
	f()
	return t.end(id)
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
