package core

import (
	"errors"
	"fmt"

	"beacon/internal/cxl"
	"beacon/internal/dram"
	"beacon/internal/energy"
	"beacon/internal/fault"
	"beacon/internal/memmgmt"
	"beacon/internal/ndp"
	"beacon/internal/obs"
	"beacon/internal/sim"
	"beacon/internal/trace"
)

// Result is the outcome of replaying one workload on one machine. Its
// replay totals' local/remote split is meaningful for BEACON-D only.
type Result struct {
	ndp.Totals
	// Energy is the Fig. 17-style breakdown.
	Energy energy.Breakdown
	// Fabric is the interconnect activity.
	Fabric cxl.Stats
	// DRAM aggregates all DIMMs' stats.
	DRAM dram.Stats
	// CXLGChipAccesses is the per-chip burst distribution aggregated over
	// CXLG-DIMMs (Fig. 13); nil for BEACON-S.
	CXLGChipAccesses []uint64
	// Faults counts injected faults and recovery actions when fault
	// injection is enabled (all zero otherwise).
	Faults fault.Stats
	// Tenants holds each workload's share of a co-located run, in workload
	// order (nil when one workload ran alone).
	Tenants []Tenant
}

// Tenant is one workload's share of a co-located run.
type Tenant struct {
	// Cycles is the cycle the workload's last task retired.
	Cycles sim.Cycle
	// Tasks is the workload's task count.
	Tasks int
}

// Machine is an instantiated BEACON system ready to replay workloads.
type Machine struct {
	cfg    Config
	engine *sim.Engine
	fabric *cxl.Fabric
	dimms  [][]*dram.DIMM // [switch][slot]
	// nodes holds each compute node's NDP module (PE pool + task
	// scheduler), home and mapper; rp replays tasks over them. atomics
	// holds the per-switch atomic engine bank used by remote RMW flows
	// (Fig. 7).
	nodes     []ndp.Node
	rp        *ndp.Replay
	atomics   []*sim.Resource
	packersOn bool
	// inj is the shared fault injector (nil when disabled).
	inj *fault.Injector
}

// NewMachine builds the machine.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, engine: sim.NewEngine()}
	var err error
	m.fabric, err = cxl.New(cfg.fabricConfig())
	if err != nil {
		return nil, err
	}
	mm := cfg.mmConfig()
	coal := mm.CoalesceGroup
	for s := 0; s < cfg.Fabric.Switches; s++ {
		var row []*dram.DIMM
		for d := 0; d < cfg.Fabric.DIMMsPerSwitch; d++ {
			dm, err := dram.NewDIMM(fmt.Sprintf("s%d.d%d", s, d), cfg.DIMM, coal)
			if err != nil {
				return nil, err
			}
			row = append(row, dm)
		}
		m.dimms = append(m.dimms, row)
		// Atomic engines in the Switch-Logic: BEACON-S reuses its in-switch
		// PEs (§IV-B "we reuse these PEs as the Atomic Engines"), BEACON-D
		// adds a bank of dedicated engines.
		width := 64
		if cfg.Design == DesignS {
			width = cfg.PEsPerNode
		}
		m.atomics = append(m.atomics, sim.NewResource(fmt.Sprintf("s%d.atomic", s), width))
	}
	// Compute homes.
	var homes []cxl.NodeID
	switch cfg.Design {
	case DesignD:
		for s := 0; s < cfg.Fabric.Switches; s++ {
			for g := 0; g < cfg.CXLGPerSwitch; g++ {
				homes = append(homes, cxl.DIMM(s, g))
			}
		}
	case DesignS:
		for s := 0; s < cfg.Fabric.Switches; s++ {
			homes = append(homes, cxl.Switch(s))
		}
	}
	for i, h := range homes {
		mp, err := memmgmt.NewMapper(mm, h)
		if err != nil {
			return nil, err
		}
		mod, err := ndp.New(fmt.Sprintf("node%d", i), ndp.Config{
			PEs:           cfg.PEsPerNode,
			QueueDepth:    cfg.InFlightPerNode,
			AtomicEngines: cfg.PEsPerNode, // local RMWs ride the NDP logic
			AtomicLatency: cfg.AtomicLatency,
		})
		if err != nil {
			return nil, err
		}
		m.nodes = append(m.nodes, ndp.Node{Module: mod, Home: h, Mapper: mp})
	}
	m.rp = ndp.NewReplay("core", m.nodes, &ndp.Walker{
		Engine: m.engine, Flows: Flows, ReqBytes: cfg.ReqBytes, AckBytes: cfg.AckBytes,
		Path: m.path, Access: m.access, Retry: m.retry, Atomic: m.atomic,
	})
	m.packersOn = cfg.Opts.DataPacking
	if cfg.Faults.Enabled() {
		m.inj = fault.NewInjector(cfg.FaultSeed, cfg.Faults)
		m.fabric.SetInjector(m.inj)
		for s := range m.dimms {
			for _, d := range m.dimms[s] {
				d.SetInjector(m.inj)
			}
		}
		m.rp.SetInjector(m.inj, cfg.Faults.NDP)
	}
	m.instrument(cfg.Obs)
	return m, nil
}

// instrument attaches the observability layer to every component. All
// hooks are observation-only; timing is identical with ob nil or set.
func (m *Machine) instrument(ob *obs.Obs) {
	if ob == nil {
		return
	}
	m.fabric.Instrument(ob)
	for s := range m.dimms {
		for _, d := range m.dimms[s] {
			d.Instrument(ob)
		}
	}
	m.rp.Instrument(ob)
	for _, a := range m.atomics {
		a.Instrument(ob.Tracer(), "rmw")
		ob.Track(a.Meter(obs.ClassAtomic))
	}
	m.inj.Instrument(ob)
}

// Homes returns the compute nodes (for tests).
func (m *Machine) Homes() []cxl.NodeID {
	homes := make([]cxl.NodeID, len(m.nodes))
	for i, n := range m.nodes {
		homes[i] = n.Home
	}
	return homes
}

// packed reports whether a payload of the given size travels packed.
func (m *Machine) packed(size int) bool {
	return m.packersOn && size < cxl.FlitBytes
}

// Flows is BEACON's flow table (ndp.Walker). A local piece, inside the
// compute node's own CXLG-DIMM, goes straight to the DRAM; a local RMW
// does its arithmetic in the NDP module's own MC/PE logic. A remote RMW is
// the Fig. 7 flow: (1) the command travels to the switch owning the target
// DIMM, (2-3) the switch MC reads the data, (4-5) the switch's atomic
// engine (BEACON-D) or PE (BEACON-S) computes, (6) the result is written
// back and the requester acknowledged.
var Flows = ndp.Flows{
	Local: [...]ndp.Flow{
		trace.OpRead:      {ndp.DRAMRead},
		trace.OpWrite:     {ndp.DRAMWrite},
		trace.OpAtomicRMW: {ndp.DRAMRead, ndp.Atomic(ndp.Home), ndp.DRAMWrite},
	},
	Remote: [...]ndp.Flow{
		trace.OpRead:  {ndp.Route(ndp.Home, ndp.Target, ndp.Req), ndp.DRAMRead, ndp.Route(ndp.Target, ndp.Home, ndp.Data)},
		trace.OpWrite: {ndp.Route(ndp.Home, ndp.Target, ndp.ReqData), ndp.DRAMWrite, ndp.Route(ndp.Target, ndp.Home, ndp.Ack)},
		trace.OpAtomicRMW: {
			ndp.Route(ndp.Home, ndp.TargetSwitch, ndp.Req),
			ndp.Route(ndp.TargetSwitch, ndp.Target, ndp.Req), ndp.DRAMRead, ndp.Route(ndp.Target, ndp.TargetSwitch, ndp.Data),
			ndp.Atomic(ndp.TargetSwitch),
			ndp.Route(ndp.TargetSwitch, ndp.Target, ndp.Data), ndp.DRAMWrite, ndp.Route(ndp.TargetSwitch, ndp.Home, ndp.Ack),
		},
	},
}

// viaHost is the Fig. 9 detour predicate: without the memory-access
// optimization (device bias), traffic to or from an unmodified CXL-DIMM
// detours through the host for coherence.
func (m *Machine) viaHost(from, to cxl.NodeID) bool {
	unmodified := func(n cxl.NodeID) bool { return n.Kind == cxl.NodeDIMM && int(n.Slot) >= m.cfg.CXLGPerSwitch }
	return !m.cfg.Opts.MemAccessOpt && (unmodified(from) || unmodified(to))
}

// path is the walker's Path over the CXL fabric.
func (m *Machine) path(from, to cxl.NodeID, size int) ([]cxl.Hop, int, error) {
	return m.fabric.PathHops(from, to, size, m.packed(size), m.viaHost(from, to))
}

// access is the walker's Access.
func (m *Machine) access(now sim.Cycle, pa memmgmt.PlacedAccess, write bool) (sim.Cycle, error) {
	return m.dimms[pa.Node.Switch][pa.Node.Slot].Access(now, pa.Loc, int(pa.Bytes), write, pa.Mode)
}

// retry is the walker's Retry: the memory controller re-issues an access
// that hit an uncorrectable ECC error after a backoff, up to the fault
// profile's retry budget, so transient media errors surface as latency
// instead of run failures.
func (m *Machine) retry(now sim.Cycle, err error, tries int) (sim.Cycles, bool) {
	if m.inj == nil || !errors.Is(err, fault.ErrUncorrectable) || tries >= m.cfg.Faults.DRAM.MaxRetries {
		return 0, false
	}
	m.inj.CountDRAMRetry(now)
	return sim.Cycles(m.cfg.Faults.DRAM.RetryBackoffCycles), true
}

// atomic is the walker's Atomic: the switch's atomic engine bank for a
// remote RMW, the NDP module's inline logic for a local one.
func (m *Machine) atomic(now sim.Cycle, at cxl.NodeID, local bool) sim.Cycle {
	if local {
		return now + sim.Cycles(m.cfg.AtomicLatency)
	}
	_, end := m.atomics[at.Switch].Acquire(now, sim.Cycles(m.cfg.AtomicLatency))
	return end
}

// Run replays the workloads and returns the result. One workload replays
// as is. Several share the machine — §II's memory pooling, one pool
// serving several tenants at once: their tasks interleave in the NDP
// modules' schedulers, their traffic contends on the same fabric and DRAM,
// and Result.Tenants reports each one's completion. The machine is single
// use: Run consumes its calendars.
func (m *Machine) Run(wls ...*trace.Workload) (*Result, error) {
	if len(wls) == 0 {
		return nil, fmt.Errorf("core: no workloads")
	}
	for i, wl := range wls {
		if err := wl.Validate(); err != nil {
			if len(wls) > 1 {
				err = fmt.Errorf("core: workload %d: %w", i, err)
			}
			return nil, err
		}
	}
	wl := wls[0]
	var tenants []Tenant
	if len(wls) > 1 {
		wl, tenants = m.coLocate(wls)
	}
	// Merge traffic for multi-pass flows: each node ships its local filter
	// up and receives the merged copy (between passes; the calendar model is
	// insensitive to exact ordering, so issue it at t=0).
	if wl.MergeBytes > 0 {
		size := int(wl.MergeBytes / 2)
		pk := m.packed(size)
		for _, n := range m.nodes {
			if _, err := m.fabric.Route(0, n.Home, cxl.Host(), size, pk, m.viaHost(n.Home, cxl.Host())); err != nil {
				return nil, err
			}
			if _, err := m.fabric.Route(0, cxl.Host(), n.Home, size, pk, m.viaHost(cxl.Host(), n.Home)); err != nil {
				return nil, err
			}
		}
	}
	tot, err := m.rp.Run(wl)
	if err != nil {
		return nil, err
	}
	res := &Result{Totals: tot, Fabric: m.fabric.Stats(), Tenants: tenants}
	if m.inj != nil {
		res.Faults = m.inj.Stats()
	}
	end := res.Cycles

	// Aggregate DRAM stats, the CXLG chip distribution and DRAM access
	// energy from one snapshot per DIMM.
	var cxlgChips []uint64
	var dramPJ float64
	for s := range m.dimms {
		for d, dm := range m.dimms[s] {
			st := dm.Stats()
			dramPJ += m.cfg.DRAMEnergy.AccessEnergyPJ(st, 1)
			res.DRAM.Reads += st.Reads
			res.DRAM.Writes += st.Writes
			res.DRAM.RowHits += st.RowHits
			res.DRAM.RowMisses += st.RowMisses
			res.DRAM.RowConflicts += st.RowConflicts
			res.DRAM.Activations += st.Activations
			res.DRAM.Refreshes += st.Refreshes
			res.DRAM.FAWStalls += st.FAWStalls
			res.DRAM.BurstsIssued += st.BurstsIssued
			res.DRAM.UsefulBytes += st.UsefulBytes
			res.DRAM.TransferredBytes += st.TransferredBytes
			res.DRAM.BusyCyclesByChips += st.BusyCyclesByChips
			res.DRAM.FAWStallCycles += st.FAWStallCycles
			res.DRAM.RefreshStallCycles += st.RefreshStallCycles
			if d < m.cfg.CXLGPerSwitch {
				if cxlgChips == nil {
					cxlgChips = make([]uint64, len(st.PerChipAccesses))
				}
				for i, c := range st.PerChipAccesses {
					cxlgChips[i] += c
				}
			}
		}
	}
	res.CXLGChipAccesses = cxlgChips

	// Energy.
	dramPJ += m.cfg.DRAMEnergy.BackgroundEnergyPJ(int64(end), m.cfg.Fabric.Switches*m.cfg.Fabric.DIMMsPerSwitch*m.cfg.DIMM.Ranks)
	em := m.cfg.Energy
	commPJ := em.LinkPJ(res.Fabric.WireBytes) + em.BusPJ(res.Fabric.SwitchBusBytes) + em.HostPJ(res.Fabric.HostCrossings)
	computePJ := em.PEComputePJ(int64(res.PEBusyCycles)) + em.PELeakagePJ(len(m.nodes)*m.cfg.PEsPerNode, int64(end))
	res.Energy = energy.Breakdown{CommunicationPJ: commPJ, DRAMPJ: dramPJ, ComputePJ: computePJ}
	return res, nil
}

// coLocate merges several validated workloads into the one the machine
// replays. Space footprints merge per space (max), so tenants with
// same-shaped data structures contend for the same DIMM regions — the
// conservative sharing assumption — and tasks interleave round-robin so no
// tenant monopolizes the schedulers' admission order. The task-retire hook
// records each tenant's completion in the returned slice.
func (m *Machine) coLocate(wls []*trace.Workload) (*trace.Workload, []Tenant) {
	merged := &trace.Workload{Name: "shared", Passes: 1}
	tenants := make([]Tenant, len(wls))
	total := 0
	for i, wl := range wls {
		for sp := trace.Space(0); sp < trace.NumSpaces; sp++ {
			merged.SpaceBytes[sp] = max(merged.SpaceBytes[sp], wl.SpaceBytes[sp])
			merged.LocalSpaces[sp] = merged.LocalSpaces[sp] || wl.LocalSpaces[sp]
		}
		merged.MergeBytes += wl.MergeBytes
		tenants[i].Tasks = len(wl.Tasks)
		total += len(wl.Tasks)
	}
	// The task slice never regrows, so its element addresses identify
	// each task's owner.
	merged.Tasks = make([]trace.Task, 0, total)
	owner := make(map[*trace.Task]int, total)
	for k := 0; len(merged.Tasks) < total; k++ {
		for i, wl := range wls {
			if k < len(wl.Tasks) {
				merged.Tasks = append(merged.Tasks, wl.Tasks[k])
				owner[&merged.Tasks[len(merged.Tasks)-1]] = i
			}
		}
	}
	// Tasks retire in simulated-time order, so a tenant's last retirement
	// is its completion.
	m.rp.OnTaskEnd = func(task *trace.Task, at sim.Cycle) { tenants[owner[task]].Cycles = at }
	return merged, tenants
}

// Run is the package-level convenience: build a machine and replay.
func Run(cfg Config, wls ...*trace.Workload) (*Result, error) {
	m, err := NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	return m.Run(wls...)
}
