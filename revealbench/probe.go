package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Other tenants of a shared host slow the machine down and let it speed up
// again within seconds, and from one minute to the next: on a 2-vCPU VM the
// same corpus pass took anywhere from 26 to 38 ms within one minute, and the
// corpus ran at 3.5k ops/s in one ten-second run and 6.6k ops/s in another
// a few minutes later. No statistic of raw times taken inside one run gets
// rid of that. So each caller measures the host's current speed with a
// probe, a fixed piece of CPU and memory work that does not depend on the
// system under test, run between its ops, and the time metrics are scaled
// to the reference speed, at which a probe takes probeRef. A time measured
// between two probe bursts is scaled by probeRef over their mean; raw times
// are reported beside the scaled ones.
const (
	// probeRef is the median probe time on a quiet 2-vCPU x86-64 VM.
	probeRef = 400 * time.Microsecond
	// probeGap is the least time between two bursts of one caller: a
	// burst runs before an op when probeGap has passed since the last one,
	// so short ops share a burst and a long op is bracketed by its own.
	probeGap = 25 * time.Millisecond
	// probeRuns is the number of probes in a burst; a burst reads as
	// their median.
	probeRuns = 3
)

// A probe does three kinds of work the system under test does too: it
// follows probeChaseSteps links of a random cycle over probeChaseLen
// entries (memory latency, as in walking an object graph), looks up
// probeLookups string keys in a map of probeKeys (hashing and cache
// misses), and hashes probeHashBytes with SHA-256 (straight-line compute).
// It reads only: the state is built once and shared by every caller, and
// the cycle lives outside the Go heap so that the heap metrics do not
// count it.
const (
	probeChaseLen   = 1 << 20 // 4 MiB of uint32 links
	probeChaseSteps = 4000
	probeKeys       = 4096
	probeLookups    = 2000
	probeHashBytes  = 8 << 10
)

var probeState struct {
	once  sync.Once
	chase []uint32
	keys  []string
	index map[string]int
	data  []byte
}

func initProbe() {
	st := &probeState
	mem, err := syscall.Mmap(-1, 0, 4*probeChaseLen, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		mem = make([]byte, 4*probeChaseLen)
	}
	st.chase = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), probeChaseLen)
	// Sattolo's shuffle makes one cycle through every entry.
	r := rand.New(rand.NewPCG(1, 2))
	for i := range st.chase {
		st.chase[i] = uint32(i)
	}
	for i := probeChaseLen - 1; i > 0; i-- {
		j := r.IntN(i)
		st.chase[i], st.chase[j] = st.chase[j], st.chase[i]
	}
	st.index = make(map[string]int, probeKeys)
	for i := 0; i < probeKeys; i++ {
		k := fmt.Sprintf("Lprobe/C%d;->m%d(I)V", r.Uint32(), i)
		st.keys = append(st.keys, k)
		st.index[k] = i
	}
	st.data = make([]byte, probeHashBytes)
	for i := range st.data {
		st.data[i] = byte(r.Uint32())
	}
}

// prober runs probe bursts for one caller and logs them.
type prober struct {
	pos  uint32 // where the caller's walk of the cycle stands
	sink int
	// log holds the caller's bursts in time order.
	log []probeBurst
}

// probeBurst is one burst: when it started (since the window started) and
// the median probe time.
type probeBurst struct {
	at, d time.Duration
}

func newProber() *prober {
	probeState.once.Do(initProbe)
	return &prober{}
}

// once times one probe.
func (p *prober) once() time.Duration {
	st := &probeState
	start := time.Now()
	pos := p.pos
	for i := 0; i < probeChaseSteps; i++ {
		pos = st.chase[pos]
	}
	p.pos = pos
	sink := 0
	for i := 0; i < probeLookups; i++ {
		sink += st.index[st.keys[(int(pos)+i*7)%probeKeys]]
	}
	sum := sha256.Sum256(st.data)
	p.sink += sink + int(sum[0]) // keeps the work observable
	return time.Since(start)
}

// burst runs probeRuns probes and returns their median.
func (p *prober) burst() time.Duration {
	var ds [probeRuns]time.Duration
	for i := range ds {
		ds[i] = p.once()
	}
	sort.Slice(ds[:], func(i, j int) bool { return ds[i] < ds[j] })
	return ds[probeRuns/2]
}

// record runs a burst and logs it at its start, measured from t0.
func (p *prober) record(t0 time.Time) {
	at := time.Since(t0)
	p.log = append(p.log, probeBurst{at: at, d: p.burst()})
}

// due reports whether probeGap has passed since the last logged burst.
func (p *prober) due(t0 time.Time) bool {
	return len(p.log) == 0 || time.Since(t0)-p.log[len(p.log)-1].at >= probeGap
}

// scaleAround returns the factor that scales a time measured in [from, to]
// to the reference speed: probeRef over the mean of the last burst that
// started before to and the first burst that started at or after it. The
// caller logs a burst before its first op and after its last, so both
// exist.
func (p *prober) scaleAround(to time.Duration) float64 {
	j := sort.Search(len(p.log), func(k int) bool { return p.log[k].at >= to })
	j = max(1, min(j, len(p.log)-1))
	return scale(p.log[j-1].d, p.log[j].d)
}

// scale is probeRef over the mean of two bursts.
func scale(before, after time.Duration) float64 {
	return float64(probeRef) / (float64(before+after) / 2)
}

// medianBurst is the median burst time in the log.
func (p *prober) medianBurst() time.Duration {
	ds := make([]float64, len(p.log))
	for i, b := range p.log {
		ds[i] = float64(b.d)
	}
	sort.Float64s(ds)
	return time.Duration(median(ds))
}
