// Package pipeline is the concurrent batch-execution substrate for
// corpus-scale DexLego runs. The paper evaluates whole corpora — the four
// AOSP applications of Table I, the nine packed market applications of
// Table V, the F-Droid coverage apps of Tables VI/VII — and every app in
// such a corpus is independent, so batch extraction is embarrassingly
// parallel. A Pipeline runs jobs over a bounded worker pool with per-job
// panic isolation (one bad APK must not kill the batch) and deterministic,
// submission-ordered results regardless of completion order.
//
// The package also defines the structured per-stage metrics model
// (StageTiming, AppMetrics) and its aggregation into a batch Report with a
// JSON encoding; dexlego.Reveal fills AppMetrics per app and
// dexlego.RevealBatch assembles the Report.
package pipeline

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Pipeline is a bounded worker pool. The zero value runs with
// runtime.GOMAXPROCS(0) workers.
type Pipeline struct {
	// Workers caps the number of jobs in flight; values <= 0 select
	// runtime.GOMAXPROCS(0).
	Workers int
}

// New returns a pipeline with the given worker cap (<= 0 for the
// GOMAXPROCS default).
func New(workers int) *Pipeline { return &Pipeline{Workers: workers} }

// WorkerCount resolves the effective parallelism for a batch of n jobs.
func (p *Pipeline) WorkerCount(n int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// PanicError is a panic recovered from a job, preserving the panic value
// and the stack of the panicking goroutine.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pipeline: job panicked: %v", e.Value)
}

// Run invokes fn(i) for every i in [0, n) across the worker pool and
// returns one error slot per job, in job order: nil on success, the error
// fn returned, or a *PanicError if fn panicked. Run itself never panics on
// a job's behalf; a batch always completes.
func (p *Pipeline) Run(n int, fn func(i int) error) []error {
	errs := make([]error, n)
	if n == 0 {
		return errs
	}
	workers := p.WorkerCount(n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			errs[i] = runJob(fn, i)
		}
		return errs
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				errs[i] = runJob(fn, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return errs
}

// runJob isolates one job: a panic becomes a *PanicError instead of
// unwinding the worker.
func runJob(fn func(int) error, i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// Isolate runs fn under the pool's panic isolation: a panic becomes a
// *PanicError return instead of unwinding the caller. The reveal service
// uses it so one bad APK fails its job, never the serving process.
func Isolate(fn func() error) error {
	return runJob(func(int) error { return fn() }, 0)
}

// Map runs fn over [0, n) and collects the results in job order. The
// result slot of a failed job is the zero value of T; errs follows the
// same contract as Run.
func Map[T any](p *Pipeline, n int, fn func(i int) (T, error)) (out []T, errs []error) {
	out = make([]T, n)
	errs = p.Run(n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, errs
}

// FirstError returns the first non-nil error in job order, or nil.
func FirstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
