// Package runner is the parallel experiment orchestrator: it executes sets
// of independent simulation jobs on a bounded worker pool and merges their
// results in insertion order, so the output of a run is byte-identical
// regardless of how the scheduler interleaves the work.
//
// The concurrency contract mirrors the simulator's determinism contract:
// each job is single-threaded internally (one sim.Engine per job) and jobs
// share only immutable inputs (workload traces are built once and replayed
// read-only), so parallelism across jobs cannot perturb any job's result.
// The runner adds the remaining guarantees the harness needs:
//
//   - bounded concurrency: leaf jobs acquire a slot from a shared Pool, so
//     an entire evaluation — every figure's (species × platform × step)
//     simulation — respects one global -jobs limit even when coordinators
//     fan out recursively;
//   - deterministic aggregation: Run returns results indexed by job
//     position, never by completion order;
//   - cancellation: the first failure (or the caller's context) cancels
//     all jobs that have not yet started;
//   - panic isolation: a panicking job is captured as a *PanicError with
//     its stack instead of crashing the whole harness.
package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Pool bounds how many jobs execute simultaneously. One Pool is typically
// shared by many Run calls (every figure of an evaluation), so the bound is
// global across the whole job graph. The zero value is not usable; use
// NewPool.
type Pool struct {
	slots    chan struct{}
	observer func(JobEvent)
}

// JobEvent reports one finished pool job to the pool's observer: which job
// it was, how long it held its slot in wall-clock time, and how it ended.
// Wall time is host time, never simulated time — it feeds progress output
// and run logs, not deterministic results.
type JobEvent struct {
	// Label is the job's label (or its synthesized "job N" fallback).
	Label string
	// Wall is the job's execution duration.
	Wall time.Duration
	// Err is the job's failure, nil on success. Panics surface as
	// *PanicError.
	Err error
}

// SetObserver installs fn to be called once per finished pool job. fn is
// invoked from worker goroutines and must be safe for concurrent use.
// Install the observer before submitting jobs; only slot-holding (leaf)
// jobs are reported — coordinator jobs run with a nil pool and stay silent.
func (p *Pool) SetObserver(fn func(JobEvent)) { p.observer = fn }

// LogProgress installs an observer that writes one line per finished job
// to w: the completion count, the label, the wall time rounded to the
// millisecond, and FAIL plus the error for a failed job. Lines follow
// completion order (a live log, not a result). A nil w leaves the pool
// unobserved.
func (p *Pool) LogProgress(w io.Writer) {
	if w == nil {
		return
	}
	var mu sync.Mutex
	done := 0
	p.SetObserver(func(ev JobEvent) {
		mu.Lock()
		defer mu.Unlock()
		done++
		wall := ev.Wall.Round(time.Millisecond)
		if ev.Err != nil {
			fmt.Fprintf(w, "[%4d] FAIL %-48s %9s  %v\n", done, ev.Label, wall, ev.Err)
			return
		}
		fmt.Fprintf(w, "[%4d] done %-48s %9s\n", done, ev.Label, wall)
	})
}

// NewPool returns a pool allowing jobs concurrent executions. jobs <= 0
// selects GOMAXPROCS, the orchestrator's default.
func NewPool(jobs int) *Pool {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return &Pool{slots: make(chan struct{}, jobs)}
}

// Size returns the pool's concurrency bound.
func (p *Pool) Size() int { return cap(p.slots) }

// Job is one unit of work: a closure plus a label for error reporting.
type Job[T any] struct {
	// Label identifies the job in errors (e.g. "fm-seeding/Pt/beacon-d").
	Label string
	// Fn computes the job's result. It must not retain or mutate shared
	// state; the runner calls it from its own goroutine.
	Fn func(ctx context.Context) (T, error)
}

// PanicError is a panic recovered from a job, preserved with its stack so
// one bad configuration fails loudly without taking down sibling jobs.
type PanicError struct {
	// Label is the panicking job's label.
	Label string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error describes the panic.
func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %q panicked: %v", e.Label, e.Value)
}

// Run executes jobs and returns their results in insertion order: result[i]
// is jobs[i]'s output no matter which worker finished first. If pool is
// nil the jobs run unbounded — the mode coordinator layers use so that a
// coordinator blocked waiting on leaf jobs never holds a slot a leaf needs
// (which would deadlock a bounded pool).
//
// On failure Run cancels the remaining jobs and returns the first error in
// job order (preferring a job's own failure over a cancellation echo), so
// the reported error is deterministic too.
func Run[T any](ctx context.Context, pool *Pool, jobs []Job[T]) ([]T, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]T, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int, job Job[T]) {
			defer wg.Done()
			label := job.Label
			if label == "" {
				label = fmt.Sprintf("job %d", i)
			}
			if pool != nil {
				select {
				case pool.slots <- struct{}{}:
					defer func() { <-pool.slots }()
				case <-ctx.Done():
					errs[i] = fmt.Errorf("runner: %s: %w", label, context.Cause(ctx))
					return
				}
			}
			// A slot may have been granted after cancellation raced in.
			if err := ctx.Err(); err != nil {
				errs[i] = fmt.Errorf("runner: %s: %w", label, err)
				return
			}
			if job.Fn == nil {
				errs[i] = fmt.Errorf("runner: %s: nil job function", label)
				cancel()
				return
			}
			var observe func(JobEvent)
			if pool != nil {
				observe = pool.observer
			}
			start := time.Time{}
			if observe != nil {
				// Wall-clock here is JobEvent.Wall provenance for progress
				// output; it never reaches simulated results.
				start = time.Now() //beaconlint:allow nodeterminism wall-clock feeds JobEvent.Wall progress provenance only, never simulated results
			}
			defer func() {
				if r := recover(); r != nil {
					errs[i] = &PanicError{Label: label, Value: r, Stack: debug.Stack()}
					if observe != nil {
						observe(JobEvent{Label: label, Wall: time.Since(start), Err: errs[i]}) //beaconlint:allow nodeterminism wall-clock feeds JobEvent.Wall progress provenance only, never simulated results
					}
					cancel()
				}
			}()
			v, err := job.Fn(ctx)
			if observe != nil {
				observe(JobEvent{Label: label, Wall: time.Since(start), Err: err}) //beaconlint:allow nodeterminism wall-clock feeds JobEvent.Wall progress provenance only, never simulated results
			}
			if err != nil {
				errs[i] = fmt.Errorf("runner: %s: %w", label, err)
				cancel()
				return
			}
			results[i] = v
		}(i, jobs[i])
	}
	wg.Wait()

	// Prefer a root-cause error over cancellation echoes from jobs that
	// were aborted because of it; within each class, pick the first in job
	// order so the reported error is deterministic.
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !isContextErr(err) {
			return nil, err
		}
		if first == nil {
			first = err
		}
	}
	if first != nil {
		return nil, first
	}
	return results, nil
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
