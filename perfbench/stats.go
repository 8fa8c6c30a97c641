package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// minOps is the fewest ops a window times, so that p90 has minBeyond
// samples beyond it.
const minOps = 10 * minBeyond

// runStats is what one measured window produced.
type runStats struct {
	mu        sync.Mutex
	latencies []time.Duration
	failed    int
	steps     int64
	elapsed   time.Duration
	// roundSteps and roundElapsed are each round's steps and duration.
	roundSteps   []int64
	roundElapsed []time.Duration
	// allocBytes is host heap allocation over the window.
	allocBytes uint64
	// retainedBytes is the growth of the live heap over the rounds.
	retainedBytes int64
	// layer holds workload-specific per-layer values for traced runs.
	layer map[string]metric
	// shadow holds spans timed outside the window that stand in for layer
	// work done where the benchmark cannot wrap a call (inside a server).
	shadow []span
}

func (s *runStats) attempted() int { return len(s.latencies) }

// stepsPerSec is the median over rounds of each round's throughput, so a
// burst of host contention during one round does not move it.
func (s *runStats) stepsPerSec() float64 {
	rates := make([]float64, len(s.roundSteps))
	for r, n := range s.roundSteps {
		rates[r] = float64(n) / s.roundElapsed[r].Seconds()
	}
	return median(rates)
}

func (s *runStats) latenciesMS() []float64 {
	ms := make([]float64, len(s.latencies))
	for i, d := range s.latencies {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	return ms
}

// record adds one finished op; a non-nil err marks it failed.
func (s *runStats) record(d time.Duration, steps int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.latencies = append(s.latencies, d)
	if err != nil {
		s.failed++
		if s.failed <= 5 {
			fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
		}
		return
	}
	s.steps += steps
}

// opFunc runs the i-th op of a client's schedule, checks its output and
// returns the trace steps it replayed or emitted.
type opFunc func(i int) (int64, error)

// measure runs clients concurrently, each a closed loop over its own op
// sequence, in rounds of one cycle of cycleLen ops per client, until the
// rounds have taken seconds in total and at least minOps ops ran.
// Stopping only at round boundaries keeps every run's op mix identical,
// and a run with fewer than minOps ops would have no p90. A non-nil
// between runs untimed
// before every round but the first; the live heap is then also sampled
// after a GC around every round.
func measure(seconds float64, cycleLen int, between func() error, clients ...opFunc) (*runStats, error) {
	st := &runStats{layer: make(map[string]metric)}
	target := time.Duration(seconds * float64(time.Second))
	var ms runtime.MemStats
	for round := 0; st.elapsed < target || st.attempted() < minOps; round++ {
		if round > 0 && between != nil {
			if err := between(); err != nil {
				return nil, err
			}
		}
		if round == 0 || between != nil {
			runtime.GC()
		}
		runtime.ReadMemStats(&ms)
		alloc0, heap0 := ms.TotalAlloc, ms.HeapAlloc
		steps0 := st.steps
		start := time.Now()
		var wg sync.WaitGroup
		for _, op := range clients {
			wg.Add(1)
			go func(op opFunc) {
				defer wg.Done()
				for i := round * cycleLen; i < (round+1)*cycleLen; i++ {
					t0 := time.Now()
					steps, err := op(i)
					st.record(time.Since(t0), steps, err)
				}
			}(op)
		}
		wg.Wait()
		d := time.Since(start)
		st.elapsed += d
		st.roundSteps = append(st.roundSteps, st.steps-steps0)
		st.roundElapsed = append(st.roundElapsed, d)
		runtime.ReadMemStats(&ms)
		st.allocBytes += ms.TotalAlloc - alloc0
		if between != nil {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			st.retainedBytes += int64(ms.HeapAlloc) - int64(heap0)
		}
	}
	return st, nil
}

// percentile returns the nearest-rank q-quantile of xs. It refuses when
// fewer than minBeyond samples lie above the returned rank, since such a
// tail value is a single outlier rather than a percentile.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", 100*q, minBeyond, n-rank, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle value of xs (mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mix64 derives a well-spread 64-bit value from a seed and stream indices
// (splitmix64 finalizer), so per-op inputs differ across seeds and ops.
func mix64(seed uint64, idx ...uint64) uint64 {
	z := seed
	for _, i := range idx {
		z += 0x9E3779B97F4A7C15 ^ i*0xBF58476D1CE4E5B9
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
	}
	return z
}
