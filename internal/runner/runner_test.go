package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunMergesInInsertionOrder(t *testing.T) {
	t.Parallel()
	// Jobs finish in reverse submission order (later jobs sleep less);
	// results must still come back indexed by submission.
	const n = 32
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Label: fmt.Sprintf("j%d", i),
			Fn: func(context.Context) (int, error) {
				time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
				return i * i, nil
			},
		}
	}
	got, err := Run(context.Background(), NewPool(8), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestRunRespectsPoolBound(t *testing.T) {
	t.Parallel()
	const bound = 3
	var inFlight, peak atomic.Int64
	jobs := make([]Job[struct{}], 50)
	for i := range jobs {
		jobs[i] = Job[struct{}]{Fn: func(context.Context) (struct{}, error) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			inFlight.Add(-1)
			return struct{}{}, nil
		}}
	}
	if _, err := Run(context.Background(), NewPool(bound), jobs); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > bound {
		t.Fatalf("observed %d concurrent jobs, bound is %d", p, bound)
	}
}

func TestRunSharedPoolAcrossRuns(t *testing.T) {
	t.Parallel()
	// Several concurrent Run calls on one pool must respect the global
	// bound — the coordinator/leaf topology the evaluation harness uses.
	const bound = 2
	pool := NewPool(bound)
	var inFlight, peak atomic.Int64
	leaf := Job[struct{}]{Fn: func(context.Context) (struct{}, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		inFlight.Add(-1)
		return struct{}{}, nil
	}}
	coordinators := make([]Job[struct{}], 6)
	for i := range coordinators {
		coordinators[i] = Job[struct{}]{Fn: func(ctx context.Context) (struct{}, error) {
			_, err := Run(ctx, pool, []Job[struct{}]{leaf, leaf, leaf, leaf})
			return struct{}{}, err
		}}
	}
	// Coordinators run unbounded (nil pool) so they cannot deadlock the
	// leaf pool.
	if _, err := Run(context.Background(), nil, coordinators); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > bound {
		t.Fatalf("observed %d concurrent leaves, bound is %d", p, bound)
	}
}

func TestRunError(t *testing.T) {
	t.Parallel()
	boom := errors.New("boom")
	jobs := []Job[int]{
		{Label: "ok", Fn: func(context.Context) (int, error) { return 1, nil }},
		{Label: "bad", Fn: func(context.Context) (int, error) { return 0, boom }},
	}
	_, err := Run(context.Background(), NewPool(2), jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestRunErrorCancelsPending(t *testing.T) {
	t.Parallel()
	boom := errors.New("boom")
	var ran atomic.Int64
	// Pool of 1: the failing job runs first and must cancel the rest
	// before they start.
	jobs := []Job[int]{
		{Label: "bad", Fn: func(context.Context) (int, error) { return 0, boom }},
	}
	for i := 0; i < 20; i++ {
		jobs = append(jobs, Job[int]{Fn: func(context.Context) (int, error) {
			ran.Add(1)
			return 0, nil
		}})
	}
	if _, err := Run(context.Background(), NewPool(1), jobs); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := ran.Load(); n == 20 {
		t.Error("cancellation did not stop any pending job")
	}
}

func TestRunPanicRecovery(t *testing.T) {
	t.Parallel()
	jobs := []Job[int]{
		{Label: "fine", Fn: func(context.Context) (int, error) { return 7, nil }},
		{Label: "bang", Fn: func(context.Context) (int, error) { panic("kaboom") }},
	}
	_, err := Run(context.Background(), NewPool(2), jobs)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *PanicError", err, err)
	}
	if pe.Label != "bang" || pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = %q/%v/%d stack bytes", pe.Label, pe.Value, len(pe.Stack))
	}
}

func TestRunContextCancellation(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	// Pool of 1: whichever blocker gets the slot parks on ctx; the other
	// waits for a slot. Cancellation must unwind both.
	blocker := Job[int]{Label: "blocker", Fn: func(ctx context.Context) (int, error) {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return 0, ctx.Err()
	}}
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, NewPool(1), []Job[int]{blocker, blocker})
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunNilFnAndEmpty(t *testing.T) {
	t.Parallel()
	if got, err := Run[int](context.Background(), nil, nil); err != nil || got != nil {
		t.Fatalf("empty run = %v, %v", got, err)
	}
	_, err := Run(context.Background(), nil, []Job[int]{{Label: "hole"}})
	if err == nil {
		t.Fatal("nil Fn accepted")
	}
}

func TestNewPoolDefaults(t *testing.T) {
	t.Parallel()
	if got := NewPool(0).Size(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("NewPool(0).Size() = %d, want GOMAXPROCS (%d)", got, runtime.GOMAXPROCS(0))
	}
	if got := NewPool(7).Size(); got != 7 {
		t.Errorf("NewPool(7).Size() = %d", got)
	}
}

// TestRunStress hammers a shared pool from many concurrent Run calls with
// mixed outcomes — the -race workhorse for the orchestrator.
func TestRunStress(t *testing.T) {
	t.Parallel()
	pool := NewPool(4)
	var wg sync.WaitGroup
	for round := 0; round < 8; round++ {
		wg.Add(1)
		go func(round int) {
			defer wg.Done()
			jobs := make([]Job[int], 40)
			for i := range jobs {
				i := i
				jobs[i] = Job[int]{
					Label: fmt.Sprintf("r%d/j%d", round, i),
					Fn: func(context.Context) (int, error) {
						// A little shared-state churn under the race
						// detector.
						s := 0
						for k := 0; k < 100; k++ {
							s += k ^ i
						}
						return s, nil
					},
				}
			}
			got, err := Run(context.Background(), pool, jobs)
			if err != nil {
				t.Error(err)
				return
			}
			for i, v := range got {
				want := 0
				for k := 0; k < 100; k++ {
					want += k ^ i
				}
				if v != want {
					t.Errorf("round %d result[%d] = %d, want %d", round, i, v, want)
				}
			}
		}(round)
	}
	wg.Wait()
}

// TestPoolObserver asserts the observer sees every slot-holding job with
// its label and outcome, and that coordinator (nil-pool) runs stay silent.
func TestPoolObserver(t *testing.T) {
	pool := NewPool(2)
	var mu sync.Mutex
	events := map[string]error{}
	pool.SetObserver(func(ev JobEvent) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Wall < 0 {
			t.Errorf("negative wall time for %q", ev.Label)
		}
		events[ev.Label] = ev.Err
	})

	// The failure must not cancel "ok" before it starts (a cancelled job
	// never executes and is rightly invisible to the observer), so "bad"
	// holds its error until "ok" is underway.
	boom := errors.New("boom")
	okStarted := make(chan struct{})
	jobs := []Job[int]{
		{Label: "ok", Fn: func(context.Context) (int, error) { close(okStarted); return 1, nil }},
		{Label: "bad", Fn: func(context.Context) (int, error) { <-okStarted; return 0, boom }},
	}
	if _, err := Run(context.Background(), pool, jobs); !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want %v", err, boom)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 {
		t.Fatalf("observer saw %d jobs, want 2: %v", len(events), events)
	}
	if events["ok"] != nil {
		t.Errorf("ok job reported error %v", events["ok"])
	}
	if !errors.Is(events["bad"], boom) {
		t.Errorf("bad job reported %v, want %v", events["bad"], boom)
	}
}

// TestPoolObserverPanic asserts a panicking job surfaces to the observer as
// a *PanicError instead of vanishing.
func TestPoolObserverPanic(t *testing.T) {
	pool := NewPool(1)
	var mu sync.Mutex
	var got error
	pool.SetObserver(func(ev JobEvent) {
		mu.Lock()
		defer mu.Unlock()
		got = ev.Err
	})
	jobs := []Job[int]{{Label: "explode", Fn: func(context.Context) (int, error) { panic("kaboom") }}}
	_, err := Run(context.Background(), pool, jobs)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run error = %v, want *PanicError", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !errors.As(got, &pe) {
		t.Errorf("observer saw %v, want *PanicError", got)
	}
}

// TestNilPoolNoObserver asserts coordinator runs (nil pool) never touch an
// observer — there is nowhere to hang one, and they must not crash.
func TestNilPoolNoObserver(t *testing.T) {
	jobs := []Job[int]{{Label: "c", Fn: func(context.Context) (int, error) { return 7, nil }}}
	out, err := Run(context.Background(), nil, jobs)
	if err != nil || out[0] != 7 {
		t.Fatalf("nil-pool run = %v, %v", out, err)
	}
}

// TestLogProgress pins the progress line format: one line per finished
// job, FAIL plus the error for a failure, wall time in whole milliseconds.
func TestLogProgress(t *testing.T) {
	var b strings.Builder
	pool := NewPool(1)
	pool.LogProgress(&b)
	if _, err := Run(context.Background(), pool, []Job[int]{
		{Label: "ok", Fn: func(context.Context) (int, error) { return 1, nil }},
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, err := Run(context.Background(), pool, []Job[int]{
		{Label: "bad", Fn: func(context.Context) (int, error) { return 0, boom }},
	}); !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want %v", err, boom)
	}
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), b.String())
	}
	for i, prefix := range []string{"[   1] done ok ", "[   2] FAIL bad "} {
		if !strings.HasPrefix(lines[i], prefix) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], prefix)
		}
		if strings.Contains(lines[i], "µs") || strings.Contains(lines[i], "ns") {
			t.Errorf("line %d = %q: wall time not rounded to ms", i, lines[i])
		}
	}
	if !strings.HasSuffix(lines[1], "  boom") {
		t.Errorf("failure line %q does not end with the error", lines[1])
	}
	quiet := NewPool(1)
	if quiet.LogProgress(nil); quiet.observer != nil {
		t.Error("a nil writer installed an observer")
	}
}
