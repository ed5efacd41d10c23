package pipeline

import (
	"runtime"
	"sync"
)

// Pool is the long-lived counterpart of Pipeline.Run: a fixed set of
// workers fed by a bounded queue, built for the reveal service where jobs
// arrive continuously instead of as one batch. Admission is non-blocking —
// TrySubmit refuses when the queue is full, which is what lets the HTTP
// layer answer 429 instead of growing memory without bound — and every
// job runs under the same panic isolation as batch jobs.
type Pool struct {
	mu     sync.Mutex
	jobs   chan func()
	closed bool
	wg     sync.WaitGroup
}

// NewPool starts workers (<= 0 selects runtime.GOMAXPROCS(0)) draining a
// queue of the given depth (< 1 selects 1). The pool runs until Close.
func NewPool(workers, depth int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if depth < 1 {
		depth = 1
	}
	p := &Pool{jobs: make(chan func(), depth)}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer p.wg.Done()
			for fn := range p.jobs {
				// A panic escaping fn must not kill the worker; jobs that
				// want the PanicError wrap their own work in Isolate.
				_ = runJob(func(int) error { fn(); return nil }, 0)
			}
		}()
	}
	return p
}

// TrySubmit enqueues fn if the queue has room; it reports false — without
// blocking — when the queue is full or the pool is closed.
func (p *Pool) TrySubmit(fn func()) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	select {
	case p.jobs <- fn:
		return true
	default:
		return false
	}
}

// Close stops admission, drains every queued job, and waits for the
// workers to exit. Close is idempotent and safe to race with TrySubmit.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.jobs)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
