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
}

// Seconds converts the makespan to seconds (1.25 ns cycles).
func (r *Result) Seconds() float64 { return sim.Seconds(r.Cycles) }

// EnergyPJ returns total energy.
func (r *Result) EnergyPJ() float64 { return r.Energy.TotalPJ() }

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
	for s := 0; s < cfg.Switches; s++ {
		var row []*dram.DIMM
		for d := 0; d < cfg.DIMMsPerSwitch; d++ {
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
		for s := 0; s < cfg.Switches; s++ {
			for g := 0; g < cfg.CXLGPerSwitch; g++ {
				homes = append(homes, cxl.DIMM(s, g))
			}
		}
	case DesignS:
		for s := 0; s < cfg.Switches; s++ {
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
	m.rp = ndp.NewReplay("core", m.engine, m.nodes, m.serve)
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
	ac := ob.Accountant()
	for _, a := range m.atomics {
		a.Instrument(ob.Tracer(), "rmw")
		a := a
		ac.Track(obs.Meter{
			Class: obs.ClassAtomic,
			Name:  a.Name(),
			Width: a.Width(),
			Busy:  func() int64 { return int64(a.BusyCycles()) },
			Wait:  func() int64 { return int64(a.WaitCycles()) },
		})
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

// dimmAt returns the DIMM model behind a node id.
func (m *Machine) dimmAt(n cxl.NodeID) *dram.DIMM {
	return m.dimms[n.Switch][n.Slot]
}

// packed reports whether a payload of the given size travels packed.
func (m *Machine) packed(size int) bool {
	return m.packersOn && size < cxl.FlitBytes
}

// route moves a message, honoring the memory-access optimization: without
// it, traffic to unmodified CXL-DIMMs detours through the host (Fig. 9).
func (m *Machine) route(now sim.Cycle, from, to cxl.NodeID, size int) (sim.Cycle, error) {
	if from == to {
		return now, nil
	}
	pk := m.packed(size)
	// The coherence detour applies to DIMM traffic when the target (or
	// source) is an unmodified CXL-DIMM and device bias is not configured.
	if !m.cfg.Opts.MemAccessOpt {
		touchesUnmod := (from.Kind == cxl.NodeDIMM && !m.isCXLG(from)) ||
			(to.Kind == cxl.NodeDIMM && !m.isCXLG(to))
		if touchesUnmod {
			return m.fabric.RouteViaHost(now, from, to, size, pk)
		}
	}
	return m.fabric.Route(now, from, to, size, pk)
}

// routeThen routes a message hop-by-hop, traversing each hop in an event at
// the previous hop's delivery time (so calendar reservations stay in time
// order — see cxl.Hop), and invokes cont at the delivery time.
func (m *Machine) routeThen(now sim.Cycle, from, to cxl.NodeID, size int, fail func(error), cont func(sim.Cycle)) {
	if from == to {
		cont(now)
		return
	}
	viaHost := false
	if !m.cfg.Opts.MemAccessOpt {
		// The coherence detour applies when the source or target is an
		// unmodified CXL-DIMM and device bias is not configured (Fig. 9).
		viaHost = (from.Kind == cxl.NodeDIMM && !m.isCXLG(from)) ||
			(to.Kind == cxl.NodeDIMM && !m.isCXLG(to))
	}
	hops, wire, err := m.fabric.PathHops(from, to, size, m.packed(size), viaHost)
	if err != nil {
		fail(err)
		return
	}
	var walk func(i int, t sim.Cycle)
	walk = func(i int, t sim.Cycle) {
		if i >= len(hops) {
			cont(t)
			return
		}
		t2 := hops[i].Traverse(t, wire)
		m.engine.ScheduleAtOrNow(t2, func() { walk(i+1, t2) })
	}
	walk(0, now)
}

func (m *Machine) isCXLG(n cxl.NodeID) bool {
	return n.Kind == cxl.NodeDIMM && n.Slot < m.cfg.CXLGPerSwitch
}

// dimmAccess performs one DRAM access with uncorrectable-ECC retry: the
// memory controller re-issues the access after a backoff, up to the fault
// profile's retry budget, so transient media errors surface as latency
// instead of run failures. Without injection (or for non-ECC errors) it
// degenerates to a single Access call.
func (m *Machine) dimmAccess(now sim.Cycle, dimm *dram.DIMM, pa memmgmt.PlacedAccess, write bool,
	fail func(error), cont func(sim.Cycle)) {
	var attempt func(t sim.Cycle, tries int)
	attempt = func(t sim.Cycle, tries int) {
		t2, err := dimm.Access(t, pa.Loc, pa.Bytes, write, pa.Mode)
		if err == nil {
			cont(t2)
			return
		}
		if m.inj == nil || !errors.Is(err, fault.ErrUncorrectable) ||
			tries >= m.cfg.Faults.DRAM.MaxRetries {
			fail(err)
			return
		}
		m.inj.CountDRAMRetry(t)
		m.engine.ScheduleAtOrNow(t+sim.Cycles(m.cfg.Faults.DRAM.RetryBackoffCycles), func() {
			attempt(m.engine.Now(), tries+1)
		})
	}
	attempt(now, 0)
}

// serve is the machine's ndp.Serve: a read/write access or the Fig. 7
// atomic flow over the CXL fabric.
func (m *Machine) serve(now sim.Cycle, home cxl.NodeID, pa memmgmt.PlacedAccess, op trace.Op,
	fail func(error), cont func(sim.Cycle)) {
	if op == trace.OpAtomicRMW {
		m.serveAtomic(now, home, pa, fail, cont)
		return
	}
	m.serveAccess(now, home, pa, op == trace.OpWrite, fail, cont)
}

// serveAccess performs a read/write access from `home` to one placed
// access, invoking cont in an event at the time the data (or ack) arrives
// back at home. Phases are event-separated (see sim.Engine.ScheduleAtOrNow).
func (m *Machine) serveAccess(now sim.Cycle, home cxl.NodeID, pa memmgmt.PlacedAccess, write bool,
	fail func(error), cont func(sim.Cycle)) {
	dimm := m.dimmAt(pa.Node)
	if pa.Node == home {
		// Local access inside the compute node's own CXLG-DIMM: straight to
		// the DRAM, no fabric.
		m.dimmAccess(now, dimm, pa, write, fail, cont)
		return
	}
	reqSize := m.cfg.ReqBytes
	respSize := pa.Bytes
	if write {
		reqSize = m.cfg.ReqBytes + pa.Bytes
		respSize = m.cfg.AckBytes
	}
	m.routeThen(now, home, pa.Node, reqSize, fail, func(t sim.Cycle) {
		m.dimmAccess(t, dimm, pa, write, fail, func(t2 sim.Cycle) {
			m.engine.ScheduleAtOrNow(t2, func() {
				m.routeThen(t2, pa.Node, home, respSize, fail, cont)
			})
		})
	})
}

// serveAtomic performs the Fig. 7 atomic RMW flow for one placed access,
// invoking cont when the acknowledgement reaches home.
func (m *Machine) serveAtomic(now sim.Cycle, home cxl.NodeID, pa memmgmt.PlacedAccess,
	fail func(error), cont func(sim.Cycle)) {
	dimm := m.dimmAt(pa.Node)
	if pa.Node == home {
		// Local RMW inside the CXLG-DIMM: read, compute in the NDP module's
		// own MC/PE logic (no shared engine involved), write back.
		m.dimmAccess(now, dimm, pa, false, fail, func(t sim.Cycle) {
			t2 := t + sim.Cycles(m.cfg.AtomicLatency)
			m.engine.ScheduleAtOrNow(t2, func() {
				m.dimmAccess(t2, dimm, pa, true, fail, cont)
			})
		})
		return
	}
	sw := cxl.Switch(pa.Node.Switch)
	// 1. Command travels to the switch owning the target DIMM.
	m.routeThen(now, home, sw, m.cfg.ReqBytes, fail, func(t sim.Cycle) {
		// 2-3. Switch MC reads the data from the DIMM.
		m.routeThen(t, sw, pa.Node, m.cfg.ReqBytes, fail, func(t sim.Cycle) {
			m.dimmAccess(t, dimm, pa, false, fail, func(t2 sim.Cycle) {
				m.engine.ScheduleAtOrNow(t2, func() {
					m.routeThen(t2, pa.Node, sw, pa.Bytes, fail, func(t sim.Cycle) {
						// 4-5. Atomic engine (D) / switch PE (S) computes.
						_, t3 := m.atomics[pa.Node.Switch].Acquire(t, sim.Cycles(m.cfg.AtomicLatency))
						m.engine.ScheduleAtOrNow(t3, func() {
							// 6. Write back and acknowledge the requester.
							m.routeThen(t3, sw, pa.Node, pa.Bytes, fail, func(t sim.Cycle) {
								m.dimmAccess(t, dimm, pa, true, fail, func(t4 sim.Cycle) {
									m.engine.ScheduleAtOrNow(t4, func() {
										m.routeThen(t4, sw, home, m.cfg.AckBytes, fail, cont)
									})
								})
							})
						})
					})
				})
			})
		})
	})
}

// Run replays the workload and returns the result. The machine is single
// use: Run consumes its calendars.
func (m *Machine) Run(wl *trace.Workload) (*Result, error) {
	if err := wl.Validate(); err != nil {
		return nil, err
	}
	// Merge traffic for multi-pass flows: each node ships its local filter
	// up and receives the merged copy (between passes; the calendar model is
	// insensitive to exact ordering, so issue it at t=0).
	if wl.MergeBytes > 0 {
		for _, n := range m.nodes {
			if _, err := m.route(0, n.Home, cxl.Host(), int(wl.MergeBytes/2)); err != nil {
				return nil, err
			}
			if _, err := m.route(0, cxl.Host(), n.Home, int(wl.MergeBytes/2)); err != nil {
				return nil, err
			}
		}
	}
	tot, err := m.rp.Run(wl)
	if err != nil {
		return nil, err
	}
	res := &Result{Totals: tot, Fabric: m.fabric.Stats()}
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
	dramPJ += m.cfg.DRAMEnergy.BackgroundEnergyPJ(int64(end), m.cfg.Switches*m.cfg.DIMMsPerSwitch*m.cfg.DIMM.Ranks)
	em := m.cfg.Energy
	commPJ := em.LinkPJ(res.Fabric.WireBytes) + em.BusPJ(res.Fabric.SwitchBusBytes) + em.HostPJ(res.Fabric.HostCrossings)
	computePJ := em.PEComputePJ(int64(res.PEBusyCycles)) + em.PELeakagePJ(len(m.nodes)*m.cfg.PEsPerNode, int64(end))
	res.Energy = energy.Breakdown{CommunicationPJ: commPJ, DRAMPJ: dramPJ, ComputePJ: computePJ}
	return res, nil
}

// Run is the package-level convenience: build a machine and replay.
func Run(cfg Config, wl *trace.Workload) (*Result, error) {
	m, err := NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	return m.Run(wl)
}
