package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"beacon/internal/baseline"
)

// newMachineAllocBudget caps the heap allocations one NewMachine may make
// for the Table I pool, and newMachineBytesBudget the bytes. Construction
// runs once per simulation, so its cost is paid on every Run: a DIMM
// allocates a rank's bank and chip state on the rank's first access, not
// at construction, and the event wheel is a 2,048-bucket table, which
// keeps the count in the low hundreds and the bytes in tens of KB however
// many banks the pool has.
const (
	newMachineAllocBudget = 400
	newMachineBytesBudget = 64 << 10
)

func TestNewMachineAllocBudget(t *testing.T) {
	for _, d := range []Design{DesignD, DesignS} {
		cfg := DefaultConfig(d, allOpts)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := NewMachine(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > newMachineAllocBudget {
			t.Errorf("%v: NewMachine makes %.0f allocations, budget %d", d, allocs, newMachineAllocBudget)
		}
		if bytes := constructionBytes(t, cfg); bytes > newMachineBytesBudget {
			t.Errorf("%v: NewMachine allocates %d bytes, budget %d", d, bytes, newMachineBytesBudget)
		}
	}
}

// constructionBytes returns the heap bytes one NewMachine allocates, the
// least over a few tries so that a background allocation cannot inflate
// it.
func constructionBytes(t *testing.T, cfg Config) uint64 {
	t.Helper()
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&before)
		if _, err := NewMachine(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// BenchmarkNewMachine measures building the Table I machine (run with
// -benchmem to see the allocation count).
func BenchmarkNewMachine(b *testing.B) {
	for _, d := range []Design{DesignD, DesignS} {
		cfg := DefaultConfig(d, allOpts)
		b.Run(fmt.Sprint(d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewMachine(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplayRun measures whole replays of one fixed small FM-seeding
// workload, machine construction included: a BEACON-D run and a DDR
// baseline run (with -benchmem, the bytes and allocations a run costs).
func BenchmarkReplayRun(b *testing.B) {
	wl := fmWorkload(b)
	b.Run("beacon-d", func(b *testing.B) {
		cfg := DefaultConfig(DesignD, allOpts)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(cfg, wl); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ddr", func(b *testing.B) {
		cfg := baseline.DefaultDDRConfig()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := baseline.RunDDR(cfg, wl); err != nil {
				b.Fatal(err)
			}
		}
	})
}
