//go:build !beacon_heapref

// The reference heap queue (the beacon_heapref build) allocates one node
// per event by design, so the per-step allocation check holds only on the
// calendar queue.

package core

import (
	"testing"

	"beacon/internal/trace"
)

// TestRunAllocFreePerStep checks that the request path allocates nothing
// per step: a fresh machine's Run over a 4N-task workload may allocate
// more than over an N-task one only where a slab or queue doubles, under
// 0.01 allocations per extra step.
func TestRunAllocFreePerStep(t *testing.T) {
	big := fmWorkload(t)
	small := *big
	small.Tasks = big.Tasks[:len(big.Tasks)/4]
	for _, d := range []Design{DesignD, DesignS} {
		cfg := DefaultConfig(d, allOpts)
		allocs := func(wl *trace.Workload) float64 {
			return testing.AllocsPerRun(3, func() {
				m, err := NewMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(wl); err != nil {
					t.Fatal(err)
				}
			})
		}
		extra, steps := allocs(big)-allocs(&small), big.TotalSteps()-small.TotalSteps()
		if perStep := extra / float64(steps); perStep >= 0.01 {
			t.Errorf("%v: %.0f extra allocations over %d extra steps (%.3f per step), want < 0.01", d, extra, steps, perStep)
		}
	}
}
