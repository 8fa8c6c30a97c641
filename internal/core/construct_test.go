package core

import (
	"fmt"
	"testing"
)

// newMachineAllocBudget caps the heap allocations one NewMachine may make
// for the Table I pool. Construction runs once per simulation, so its cost
// is paid on every Run: bank and chip state are flat value slices and the
// event wheel is one slab, which keeps the count in the low hundreds
// however many banks the pool has.
const newMachineAllocBudget = 400

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
	}
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
