package memmgmt

import (
	"testing"
	"testing/quick"

	"beacon/internal/cxl"
	"beacon/internal/trace"
)

func testAllocator(t *testing.T) *Allocator {
	t.Helper()
	a, err := NewAllocator(PoolLayout{Switches: 2, DIMMsPerSwitch: 4, CXLGSlots: 1}, 1000)
	if err != nil {
		t.Fatalf("NewAllocator: %v", err)
	}
	return a
}

func TestAllocatorValidation(t *testing.T) {
	if _, err := NewAllocator(PoolLayout{}, 100); err == nil {
		t.Error("invalid pool accepted")
	}
	if _, err := NewAllocator(PoolLayout{Switches: 1, DIMMsPerSwitch: 1}, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	a := testAllocator(t)
	if _, err := a.Allocate(AllocRequest{Bytes: 0}); err == nil {
		t.Error("zero-byte request accepted")
	}
	if _, err := a.Allocate(AllocRequest{Bytes: 10, PreferSwitch: 9}); err == nil {
		t.Error("out-of-pool preference accepted")
	}
	if err := a.SetTenantBytes(cxl.DIMM(9, 9), 1); err == nil {
		t.Error("out-of-pool tenant node accepted")
	}
	if err := a.SetTenantBytes(cxl.DIMM(0, 0), 5000); err == nil {
		t.Error("overfull tenant accepted")
	}
	if err := a.Deallocate(42); err == nil {
		t.Error("unknown deallocation accepted")
	}
}

func TestAllocatePrefersProximity(t *testing.T) {
	a := testAllocator(t)
	alloc, err := a.Allocate(AllocRequest{Bytes: 1500, PreferSwitch: 1})
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	// 1500 bytes spans two DIMMs, both under switch 1.
	if len(alloc.DIMMs) != 2 {
		t.Fatalf("DIMMs = %v", alloc.DIMMs)
	}
	for _, n := range alloc.DIMMs {
		if n.Switch != 1 {
			t.Errorf("allocation spilled to switch %d despite free capacity on 1", n.Switch)
		}
	}
}

func TestAllocateSpillsAcrossSwitches(t *testing.T) {
	a := testAllocator(t)
	alloc, err := a.Allocate(AllocRequest{Bytes: 4500, PreferSwitch: 0})
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	// 4.5 DIMMs worth: all of switch 0 plus part of switch 1.
	sw := map[int32]int{}
	for _, n := range alloc.DIMMs {
		sw[n.Switch]++
	}
	if sw[0] != 4 || sw[1] != 1 {
		t.Errorf("spread = %v, want 4 on switch 0 and 1 on switch 1", sw)
	}
}

func TestAllocateCXLGOnly(t *testing.T) {
	a := testAllocator(t)
	alloc, err := a.Allocate(AllocRequest{Bytes: 1800, PreferSwitch: 0, NeedCXLG: true})
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	for _, n := range alloc.DIMMs {
		if n.Slot != 0 {
			t.Errorf("CXLG allocation landed on plain slot %v", n)
		}
	}
	// Only 2 CXLG DIMMs x 1000 bytes exist; a bigger request must fail.
	if _, err := a.Allocate(AllocRequest{Bytes: 500, NeedCXLG: true}); err == nil {
		t.Error("over-capacity CXLG request accepted")
	}
}

func TestMemoryCleanMigration(t *testing.T) {
	a := testAllocator(t)
	// Tenant data occupies the preferred DIMMs.
	if err := a.SetTenantBytes(cxl.DIMM(0, 0), 800); err != nil {
		t.Fatal(err)
	}
	if err := a.SetTenantBytes(cxl.DIMM(0, 1), 600); err != nil {
		t.Fatal(err)
	}
	alloc, err := a.Allocate(AllocRequest{Bytes: 2000, PreferSwitch: 0})
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	// Both occupied DIMMs must be cleaned: 800 + 600 bytes displaced.
	if alloc.MigratedBytes != 1400 {
		t.Errorf("migrated = %d, want 1400", alloc.MigratedBytes)
	}
	if alloc.PageTableUpdates != 2 { // ceil(800/4096) + ceil(600/4096)
		t.Errorf("page table updates = %d, want 2", alloc.PageTableUpdates)
	}
}

func TestDeallocateReturnsCapacity(t *testing.T) {
	a := testAllocator(t)
	alloc, err := a.Allocate(AllocRequest{Bytes: 8000}) // whole pool
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if _, err := a.Allocate(AllocRequest{Bytes: 1}); err == nil {
		t.Error("allocation from a full pool accepted")
	}
	if err := a.Deallocate(alloc.ID); err != nil {
		t.Fatalf("Deallocate: %v", err)
	}
	if a.Live() != 0 {
		t.Errorf("live = %d", a.Live())
	}
	if _, err := a.Allocate(AllocRequest{Bytes: 8000}); err != nil {
		t.Errorf("pool not fully reclaimed: %v", err)
	}
}

// Property: allocation never grants more than capacity and deallocation
// fully undoes it.
func TestAllocatorConservationProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		a, err := NewAllocator(PoolLayout{Switches: 2, DIMMsPerSwitch: 4, CXLGSlots: 1}, 10000)
		if err != nil {
			return false
		}
		var ids []int
		var granted uint64
		for _, s := range sizes {
			req := AllocRequest{Bytes: uint64(s) + 1, PreferSwitch: int(s) % 2}
			alloc, err := a.Allocate(req)
			if err != nil {
				continue // pool full — acceptable
			}
			granted += alloc.Bytes
			if granted > 80000 {
				return false // over-granted
			}
			ids = append(ids, alloc.ID)
		}
		for _, id := range ids {
			if err := a.Deallocate(id); err != nil {
				return false
			}
		}
		// Everything reclaimed: the whole pool allocates again.
		_, err = a.Allocate(AllocRequest{Bytes: 80000})
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPlanWorkload(t *testing.T) {
	wl := &trace.Workload{Name: "w", Passes: 1}
	wl.SpaceBytes[trace.SpaceOcc] = 1000
	wl.SpaceBytes[trace.SpaceSuffixArray] = 200
	wl.SpaceBytes[trace.SpaceReads] = 500
	pool := PoolLayout{Switches: 2, DIMMsPerSwitch: 4, CXLGSlots: 1}
	reqs := PlanWorkload(wl, pool, 1)
	if len(reqs) != 2 {
		t.Fatalf("requests = %d", len(reqs))
	}
	if reqs[0].Bytes != 1200 || !reqs[0].NeedCXLG || reqs[0].PreferSwitch != 1 {
		t.Errorf("hot request = %+v", reqs[0])
	}
	if reqs[1].Bytes != 500 || reqs[1].NeedCXLG {
		t.Errorf("bulk request = %+v", reqs[1])
	}
	// A BEACON-S pool (no CXLG) never demands CXLG capacity.
	reqs = PlanWorkload(wl, PoolLayout{Switches: 2, DIMMsPerSwitch: 4}, 0)
	if reqs[0].NeedCXLG {
		t.Error("S pool demanded CXLG capacity")
	}
}
