package beacon

import (
	"fmt"

	"beacon/internal/cxl"
	"beacon/internal/memmgmt"
	"beacon/internal/sim"
)

// The Fig. 8 memory-management flow as an end-to-end operation: the host
// requests DIMM-granularity allocations for the workload's spaces, the
// framework performs the memory clean (migrating resident tenant data and
// updating page tables), the workload runs, and the DIMMs are returned.
// SimulateWithAllocation charges the allocation's migration traffic as
// setup time, so callers can see when the one-time cost matters relative to
// the run.

// AllocationReport extends a Report with the Fig. 8 setup costs.
type AllocationReport struct {
	Report
	// DIMMsGranted is the number of DIMM grants backing the workload.
	DIMMsGranted int
	// MigratedBytes is tenant data displaced by the memory clean.
	MigratedBytes uint64
	// PageTableUpdates counts rewritten 4 KiB page-table entries.
	PageTableUpdates uint64
	// SetupSeconds is the modeled duration of the allocation (migration
	// traffic over the pool fabric plus page-table update work).
	SetupSeconds float64
	// TotalSeconds is setup + run.
	TotalSeconds float64
}

// AllocationOptions configures the pool occupancy the allocator faces.
type AllocationOptions struct {
	// TenantFraction is the share of every DIMM already holding other
	// tenants' data (0..1); the memory clean migrates what the workload's
	// allocation displaces.
	TenantFraction float64
	// PreferSwitch biases placement (default 0).
	PreferSwitch int
}

// migrationBytesPerCycle is the effective migration drain rate: bulk DMA at
// one x8 CXL link's bandwidth (the clean runs DIMM-to-DIMM over the fabric).
const migrationBytesPerCycle = 40.0

// pageTableUpdateCycles is the host+switch cost per rewritten entry.
const pageTableUpdateCycles = 160.0

// SimulateWithAllocation performs allocate -> run -> deallocate on a BEACON
// platform, charging the memory clean's migration as setup time.
func SimulateWithAllocation(p Platform, w *Workload, opts AllocationOptions) (*AllocationReport, error) {
	if p.Kind != BeaconD && p.Kind != BeaconS {
		return nil, fmt.Errorf("beacon: allocation-aware runs require a BEACON platform, got %v", p.Kind)
	}
	if w == nil || w.tr == nil {
		return nil, fmt.Errorf("beacon: nil workload")
	}
	if opts.TenantFraction < 0 || opts.TenantFraction > 1 {
		return nil, fmt.Errorf("beacon: tenant fraction %g out of [0,1]", opts.TenantFraction)
	}
	cfg := p.machine(machineOverrides{})
	pool := memmgmt.PoolLayout{
		Switches:       cfg.Fabric.Switches,
		DIMMsPerSwitch: cfg.Fabric.DIMMsPerSwitch,
		CXLGSlots:      cfg.CXLGPerSwitch,
	}
	// Size each DIMM so the workload must spread (the memory-expansion
	// regime): capacity = footprint / half the pool.
	footprint := w.tr.FootprintBytes()
	capacity := footprint / uint64(pool.TotalDIMMs()/2+1)
	if capacity == 0 {
		capacity = 1
	}
	alloc, err := memmgmt.NewAllocator(pool, capacity)
	if err != nil {
		return nil, err
	}
	for s := 0; s < pool.Switches; s++ {
		for d := 0; d < pool.DIMMsPerSwitch; d++ {
			tenant := uint64(float64(capacity) * opts.TenantFraction)
			if err := alloc.SetTenantBytes(cxl.DIMM(s, d), tenant); err != nil {
				return nil, err
			}
		}
	}

	var granted []*memmgmt.Allocation
	var migrated, ptes uint64
	for _, req := range memmgmt.PlanWorkload(w.tr, pool, opts.PreferSwitch) {
		a, err := alloc.Allocate(req)
		if err != nil && req.NeedCXLG {
			// Hot data exceeding the CXLG-DIMMs spills into unmodified
			// CXL-DIMMs — the memory-expansion story itself.
			req.NeedCXLG = false
			a, err = alloc.Allocate(req)
		}
		if err != nil {
			return nil, fmt.Errorf("beacon: allocation failed: %w", err)
		}
		granted = append(granted, a)
		migrated += a.MigratedBytes
		ptes += a.PageTableUpdates
	}

	res, err := Run(p, w)
	if err != nil {
		return nil, err
	}
	for _, a := range granted {
		if err := alloc.Deallocate(a.ID); err != nil {
			return nil, err
		}
	}

	setupCycles := float64(migrated)/migrationBytesPerCycle + float64(ptes)*pageTableUpdateCycles
	out := &AllocationReport{
		Report:           *res.Report,
		MigratedBytes:    migrated,
		PageTableUpdates: ptes,
		SetupSeconds:     sim.SecondsOf(setupCycles),
	}
	for _, a := range granted {
		out.DIMMsGranted += len(a.DIMMs)
	}
	out.TotalSeconds = out.SetupSeconds + res.Report.Seconds
	return out, nil
}
