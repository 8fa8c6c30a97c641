package beacon

import (
	"errors"
	"sync"
	"sync/atomic"

	"beacon/internal/core"
)

// errBuildPanicked is what waiters on a onceMap key get when its build
// panicked: the panic itself surfaces in the job that ran the build.
var errBuildPanicked = errors.New("beacon: memoized build panicked")

// onceMap is a singleflight memo: each key's value is computed once, by its
// first caller, and every concurrent or later caller of that key waits for
// it and gets the same value and error. The zero value is ready to use.
//
// The Evaluator keeps two, over workloads and over simulations. Consumers
// share the values read-only — the timing simulators only read a workload's
// trace, and no figure mutates a Report — so sharing across parallel jobs
// is race-free (the runner stress tests run this under -race).
type onceMap[K comparable, V any] struct {
	mu     sync.Mutex
	m      map[K]*onceEntry[V]
	builds atomic.Int64
}

type onceEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

// get returns the memoized value for k, computing it with build on first use.
func (c *onceMap[K, V]) get(k K, build func() (V, error)) (V, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]*onceEntry[V])
	}
	e, ok := c.m[k]
	if !ok {
		e = &onceEntry[V]{}
		c.m[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		c.builds.Add(1)
		e.err = errBuildPanicked // left in place only if build panics
		e.v, e.err = build()
	})
	return e.v, e.err
}

// Builds reports how many distinct keys were actually computed — the memo's
// effectiveness metric, asserted by tests.
func (c *onceMap[K, V]) Builds() int64 { return c.builds.Load() }

// runKey identifies one memoized simulation: the workload (a WorkloadSpec is
// a flat struct of scalars, so every knob participates), the platform
// (fault profile and seed included) and, on BEACON, the machine it resolves
// to under the ablation overrides, so a sweep point that equals the
// platform default shares the default's run. A run is a pure function of
// these (the determinism invariant).
type runKey struct {
	wl WorkloadSpec
	p  Platform
	m  core.Config
}
