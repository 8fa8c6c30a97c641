package memmgmt

import (
	"fmt"
	"sort"

	"beacon/internal/cxl"
	"beacon/internal/trace"
)

// This file implements the allocation half of the memory-management
// framework (Fig. 8): the host sends an allocation request with application
// metadata, the CXL switches pick DIMMs at DIMM granularity preferring
// proximity to the NDP modules, active data of other tenants is migrated
// away ("memory clean"), page tables are updated, and the chosen DIMMs are
// marked non-cacheable/dedicated. De-allocation returns them to the host
// space. The allocator tracks per-DIMM occupancy and reports the migration
// traffic each decision causes, which the timing harness charges as setup
// cost.

// AllocRequest is the host's view of an allocation (Fig. 8's "detailed
// information, e.g. application, algorithm, dataset, parameters").
type AllocRequest struct {
	// Application labels the requesting workload (diagnostics only).
	Application string
	// Bytes is the requested capacity.
	Bytes uint64
	// PreferSwitch is the switch whose NDP modules will touch the data
	// most; the allocator tries to satisfy the request under it first.
	PreferSwitch int
	// NeedCXLG requires CXLG-DIMM capacity (hot fine-grained structures).
	NeedCXLG bool
}

// Allocation is a granted request.
type Allocation struct {
	// ID identifies the allocation for de-allocation.
	ID int
	// DIMMs holds the granted modules in preference order.
	DIMMs []cxl.NodeID
	// Bytes is the granted capacity (== requested).
	Bytes uint64
	// MigratedBytes is the tenant data the memory clean step had to move to
	// free the chosen DIMMs.
	MigratedBytes uint64
	// PageTableUpdates counts the host/switch page-table entries rewritten
	// during the clean (4 KiB pages).
	PageTableUpdates uint64
}

// Allocator tracks the pool's DIMM occupancy and serves DIMM-granularity
// allocations.
type Allocator struct {
	pool PoolLayout
	// capacity per DIMM.
	capacity uint64
	// beacon[n] is capacity currently dedicated to BEACON allocations.
	beacon map[cxl.NodeID]uint64
	// tenant[n] is other tenants' resident data (eligible for migration).
	tenant map[cxl.NodeID]uint64
	// allocs tracks live allocations.
	allocs map[int]*Allocation
	nextID int
}

// NewAllocator creates an allocator for a pool of identical DIMMs of the
// given capacity.
func NewAllocator(pool PoolLayout, dimmCapacity uint64) (*Allocator, error) {
	if err := pool.Validate(); err != nil {
		return nil, err
	}
	if dimmCapacity == 0 {
		return nil, fmt.Errorf("memmgmt: zero DIMM capacity")
	}
	a := &Allocator{
		pool:     pool,
		capacity: dimmCapacity,
		beacon:   map[cxl.NodeID]uint64{},
		tenant:   map[cxl.NodeID]uint64{},
		allocs:   map[int]*Allocation{},
		nextID:   1,
	}
	return a, nil
}

// SetTenantBytes records other tenants' data resident on a DIMM (the memory
// clean step migrates it when the DIMM is chosen for BEACON).
func (a *Allocator) SetTenantBytes(n cxl.NodeID, bytes uint64) error {
	if err := a.checkNode(n); err != nil {
		return err
	}
	if bytes > a.capacity {
		return fmt.Errorf("memmgmt: tenant bytes %d exceed DIMM capacity %d", bytes, a.capacity)
	}
	a.tenant[n] = bytes
	return nil
}

func (a *Allocator) checkNode(n cxl.NodeID) error {
	if n.Kind != cxl.NodeDIMM || n.Switch < 0 || int(n.Switch) >= a.pool.Switches ||
		n.Slot < 0 || int(n.Slot) >= a.pool.DIMMsPerSwitch {
		return fmt.Errorf("memmgmt: node %v outside pool", n)
	}
	return nil
}

// FreeBytes returns the unallocated capacity of a DIMM (tenant data counts
// as free because the clean step can migrate it, at a cost).
func (a *Allocator) FreeBytes(n cxl.NodeID) uint64 {
	return a.capacity - a.beacon[n]
}

// candidates lists pool DIMMs in preference order for a request: CXLG
// eligibility first, then the preferred switch, then slot order — the
// "in proximity to the NDP modules, e.g., within the same CXL-Switch"
// policy of §IV-C.
func (a *Allocator) candidates(req AllocRequest) []cxl.NodeID {
	var out []cxl.NodeID
	for s := 0; s < a.pool.Switches; s++ {
		for d := 0; d < a.pool.DIMMsPerSwitch; d++ {
			n := cxl.DIMM(s, d)
			if req.NeedCXLG && !a.pool.IsCXLG(n) {
				continue
			}
			out = append(out, n)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		pi := int(out[i].Switch) != req.PreferSwitch
		pj := int(out[j].Switch) != req.PreferSwitch
		if pi != pj {
			return !pi // preferred switch first
		}
		if out[i].Switch != out[j].Switch {
			return out[i].Switch < out[j].Switch
		}
		return out[i].Slot < out[j].Slot
	})
	return out
}

// Allocate serves a request, performing the memory clean bookkeeping. It
// fails (the framework's "failed" response) if the pool cannot hold the
// request.
func (a *Allocator) Allocate(req AllocRequest) (*Allocation, error) {
	if req.Bytes == 0 {
		return nil, fmt.Errorf("memmgmt: zero-byte allocation")
	}
	if req.PreferSwitch < 0 || req.PreferSwitch >= a.pool.Switches {
		return nil, fmt.Errorf("memmgmt: preferred switch %d outside pool", req.PreferSwitch)
	}
	cand := a.candidates(req)
	var total uint64
	for _, n := range cand {
		total += a.FreeBytes(n)
	}
	if total < req.Bytes {
		return nil, fmt.Errorf("memmgmt: allocation of %d bytes failed: only %d available (cxlg-only=%v)",
			req.Bytes, total, req.NeedCXLG)
	}

	alloc := &Allocation{ID: a.nextID, Bytes: req.Bytes}
	a.nextID++
	remaining := req.Bytes
	for _, n := range cand {
		if remaining == 0 {
			break
		}
		free := a.FreeBytes(n)
		if free == 0 {
			continue
		}
		take := free
		if take > remaining {
			take = remaining
		}
		// Memory clean: displace tenant data that the new allocation
		// overlaps. Tenant data migrates off the DIMM proportionally.
		used := a.beacon[n] + a.tenant[n]
		if used+take > a.capacity {
			displaced := used + take - a.capacity
			if displaced > a.tenant[n] {
				displaced = a.tenant[n]
			}
			a.tenant[n] -= displaced
			alloc.MigratedBytes += displaced
			alloc.PageTableUpdates += (displaced + 4095) / 4096
		}
		a.beacon[n] += take
		alloc.DIMMs = append(alloc.DIMMs, n)
		remaining -= take
	}
	if remaining != 0 {
		// Should be unreachable given the capacity pre-check.
		return nil, fmt.Errorf("memmgmt: internal error: %d bytes unplaced", remaining)
	}
	a.allocs[alloc.ID] = alloc
	return alloc, nil
}

// Deallocate releases an allocation, returning its capacity to the host
// space (Fig. 8's de-allocation flow).
func (a *Allocator) Deallocate(id int) error {
	alloc, ok := a.allocs[id]
	if !ok {
		return fmt.Errorf("memmgmt: unknown allocation %d", id)
	}
	remaining := alloc.Bytes
	for _, n := range alloc.DIMMs {
		take := a.beacon[n]
		if take > remaining {
			take = remaining
		}
		a.beacon[n] -= take
		remaining -= take
	}
	delete(a.allocs, id)
	return nil
}

// Live returns the number of live allocations.
func (a *Allocator) Live() int { return len(a.allocs) }

// PlanWorkload sizes an allocation request for a workload's spaces: hot
// non-spatial spaces ask for CXLG capacity when the pool has any, bulk
// spaces for plain capacity. It returns the per-class requests the harness
// submits before a run.
func PlanWorkload(wl *trace.Workload, pool PoolLayout, preferSwitch int) []AllocRequest {
	var hot, bulk uint64
	for sp := trace.Space(0); sp < trace.NumSpaces; sp++ {
		b := wl.SpaceBytes[sp]
		if b == 0 {
			continue
		}
		switch sp {
		case trace.SpaceOcc, trace.SpaceSuffixArray, trace.SpaceHashBucket,
			trace.SpaceBloom, trace.SpaceCounters:
			hot += b
		default:
			bulk += b
		}
	}
	var out []AllocRequest
	if hot > 0 {
		out = append(out, AllocRequest{
			Application:  wl.Name,
			Bytes:        hot,
			PreferSwitch: preferSwitch,
			NeedCXLG:     pool.CXLGSlots > 0,
		})
	}
	if bulk > 0 {
		out = append(out, AllocRequest{
			Application:  wl.Name,
			Bytes:        bulk,
			PreferSwitch: preferSwitch,
		})
	}
	return out
}
