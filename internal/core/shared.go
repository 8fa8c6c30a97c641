package core

import (
	"fmt"

	"beacon/internal/sim"
	"beacon/internal/trace"
)

// Multi-tenant pooling: §II motivates disaggregation with memory pooling —
// one pool serving several workloads at once, soaking up the fragmentation
// that per-server DIMMs strand. RunShared replays several workloads
// concurrently on one machine: their tasks interleave in the NDP modules'
// schedulers and their traffic contends on the same fabric and DRAM, which
// is exactly the co-location scenario a pool operator cares about.

// SharedResult reports a co-located run.
type SharedResult struct {
	// Combined aggregates the whole run (its Cycles is the overall
	// makespan).
	Combined Result
	// PerWorkload holds each workload's own completion time (the cycle its
	// last task retired) and completed-task count.
	PerWorkload []WorkloadSlice
}

// WorkloadSlice is one tenant's share of a co-located run.
type WorkloadSlice struct {
	Name   string
	Cycles sim.Cycle
	Tasks  int
}

// RunShared replays all workloads concurrently. Space footprints are merged
// per space (max), so tenants with same-shaped data structures contend for
// the same DIMM regions — the conservative sharing assumption. The machine
// is single use.
func (m *Machine) RunShared(wls []*trace.Workload) (*SharedResult, error) {
	if len(wls) == 0 {
		return nil, fmt.Errorf("core: no workloads")
	}
	merged := &trace.Workload{Name: "shared", Passes: 1}
	taskOwner := make([]int, 0)
	for wi, wl := range wls {
		if err := wl.Validate(); err != nil {
			return nil, fmt.Errorf("core: workload %d: %w", wi, err)
		}
		for sp := trace.Space(0); sp < trace.NumSpaces; sp++ {
			if wl.SpaceBytes[sp] > merged.SpaceBytes[sp] {
				merged.SpaceBytes[sp] = wl.SpaceBytes[sp]
			}
			merged.LocalSpaces[sp] = merged.LocalSpaces[sp] || wl.LocalSpaces[sp]
		}
		merged.MergeBytes += wl.MergeBytes
	}
	// Interleave tasks round-robin across tenants so no tenant monopolizes
	// the schedulers' admission order.
	idx := make([]int, len(wls))
	for {
		progressed := false
		for wi, wl := range wls {
			if idx[wi] < len(wl.Tasks) {
				merged.Tasks = append(merged.Tasks, wl.Tasks[idx[wi]])
				taskOwner = append(taskOwner, wi)
				idx[wi]++
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}

	slices := make([]WorkloadSlice, len(wls))
	for wi, wl := range wls {
		slices[wi].Name = wl.Name
	}
	res, ends, err := m.runWithOwners(merged, taskOwner, len(wls))
	if err != nil {
		return nil, err
	}
	for wi := range slices {
		slices[wi].Cycles = ends[wi]
		slices[wi].Tasks = counts(taskOwner, wi)
	}
	return &SharedResult{Combined: *res, PerWorkload: slices}, nil
}

func counts(owners []int, w int) int {
	n := 0
	for _, o := range owners {
		if o == w {
			n++
		}
	}
	return n
}

// runWithOwners is Run plus per-owner completion tracking via the
// task-identity retire hook.
func (m *Machine) runWithOwners(wl *trace.Workload, owners []int, nOwners int) (*Result, []sim.Cycle, error) {
	ownerOf := make(map[*trace.Task]int, len(wl.Tasks))
	for i := range wl.Tasks {
		ownerOf[&wl.Tasks[i]] = owners[i]
	}
	ends := make([]sim.Cycle, nOwners)
	m.rp.OnTaskEnd = func(task *trace.Task, at sim.Cycle) {
		if o, ok := ownerOf[task]; ok && at > ends[o] {
			ends[o] = at
		}
	}
	res, err := m.Run(wl)
	if err != nil {
		return nil, nil, err
	}
	return res, ends, nil
}

// RunShared builds a machine and replays the workloads concurrently.
func RunShared(cfg Config, wls []*trace.Workload) (*SharedResult, error) {
	m, err := NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	return m.RunShared(wls)
}
