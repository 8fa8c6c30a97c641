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

// DebugTaskEnd, when non-nil, receives every task's completion time (test
// instrumentation).
var DebugTaskEnd func(sim.Cycle)

// DebugStepTrace, when non-nil, receives (taskIndex, step, eventNow, peDone)
// for every step issue (test instrumentation).
var DebugStepTrace func(ti, step int, now, tc sim.Cycle)

// Result is the outcome of replaying one workload on one machine.
type Result struct {
	// Cycles is the makespan in DRAM bus cycles.
	Cycles sim.Cycle
	// Tasks is the number of tasks completed.
	Tasks int
	// Steps is the number of memory steps executed.
	Steps int
	// Energy is the Fig. 17-style breakdown.
	Energy energy.Breakdown
	// Fabric is the interconnect activity.
	Fabric cxl.Stats
	// DRAM aggregates all DIMMs' stats.
	DRAM dram.Stats
	// CXLGChipAccesses is the per-chip burst distribution aggregated over
	// CXLG-DIMMs (Fig. 13); nil for BEACON-S.
	CXLGChipAccesses []uint64
	// PEBusyCycles is the total busy time across all PEs.
	PEBusyCycles sim.Cycles
	// LocalAccesses / RemoteAccesses split DRAM accesses by whether they
	// stayed inside the compute node's own DIMM (BEACON-D only).
	LocalAccesses, RemoteAccesses uint64
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
	cfg     Config
	engine  *sim.Engine
	fabric  *cxl.Fabric
	dimms   [][]*dram.DIMM // [switch][slot]
	mappers []*memmgmt.Mapper
	homes   []cxl.NodeID
	// modules holds each compute node's NDP module (PE pool + task
	// scheduler); atomics holds the per-switch atomic engine bank used by
	// remote RMW flows (Fig. 7).
	modules   []*ndp.Module
	atomics   []*sim.Resource
	packersOn bool
	// Fault injection (nil/empty when disabled): the shared injector, one
	// unit-failure stream per compute node, the liveness map, and the host
	// CPU pool that absorbs tasks when every NDP unit has failed.
	inj       *fault.Injector
	nodeFault []fault.Component
	dead      []bool
	hostCPU   *sim.Resource
	// Observability (nil when disabled): per-node task tracks, the
	// step-completion latency histogram, and the snapshot driver.
	ob          *obs.Obs
	taskTracks  []obs.Track
	stepLatency *obs.Histogram
	// onTaskEnd, when non-nil, receives every task's identity and
	// completion time (RunShared attributes finishes to tenants with it).
	// It is per machine, so concurrent co-located runs never see each
	// other's tasks.
	onTaskEnd func(*trace.Task, sim.Cycle)
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
	switch cfg.Design {
	case DesignD:
		for s := 0; s < cfg.Switches; s++ {
			for g := 0; g < cfg.CXLGPerSwitch; g++ {
				m.homes = append(m.homes, cxl.DIMM(s, g))
			}
		}
	case DesignS:
		for s := 0; s < cfg.Switches; s++ {
			m.homes = append(m.homes, cxl.Switch(s))
		}
	}
	for i, h := range m.homes {
		mp, err := memmgmt.NewMapper(mm, h)
		if err != nil {
			return nil, err
		}
		m.mappers = append(m.mappers, mp)
		mod, err := ndp.New(fmt.Sprintf("node%d", i), ndp.Config{
			PEs:           cfg.PEsPerNode,
			QueueDepth:    cfg.InFlightPerNode,
			AtomicEngines: cfg.PEsPerNode, // local RMWs ride the NDP logic
			AtomicLatency: cfg.AtomicLatency,
		})
		if err != nil {
			return nil, err
		}
		m.modules = append(m.modules, mod)
	}
	m.packersOn = cfg.Opts.DataPacking
	if cfg.Faults.Enabled() {
		m.inj = fault.NewInjector(cfg.FaultSeed, cfg.Faults)
		m.fabric.SetInjector(m.inj)
		for s := range m.dimms {
			for _, d := range m.dimms[s] {
				d.SetInjector(m.inj)
			}
		}
		for i, mod := range m.modules {
			mod.SetInjector(m.inj)
			m.nodeFault = append(m.nodeFault, m.inj.Component(fmt.Sprintf("node%d", i)))
		}
		m.dead = make([]bool, len(m.homes))
		host := cfg.Faults.NDP.HostPEs
		if host <= 0 {
			host = 1
		}
		m.hostCPU = sim.NewResource("host.cpu", host)
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
	m.ob = ob
	reg := ob.Registry()
	reg.Gauge("engine.pending_events", func() float64 { return float64(m.engine.Pending()) })
	reg.Gauge("engine.executed_events", func() float64 { return float64(m.engine.Executed()) })
	m.fabric.Instrument(ob)
	for s := range m.dimms {
		for _, d := range m.dimms[s] {
			d.Instrument(ob)
		}
	}
	for i, mod := range m.modules {
		mod.Instrument(ob)
		m.taskTracks = append(m.taskTracks, ob.Tracer().Track(fmt.Sprintf("node%d.tasks", i)))
	}
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
	if m.hostCPU != nil {
		ac.Track(obs.Meter{
			Class: obs.ClassHostCPU,
			Name:  m.hostCPU.Name(),
			Width: m.hostCPU.Width(),
			Busy:  func() int64 { return int64(m.hostCPU.BusyCycles()) },
			Wait:  func() int64 { return int64(m.hostCPU.WaitCycles()) },
		})
	}
	if m.inj != nil {
		m.inj.Instrument(ob)
	}
	// Step-completion latency from issue to last returned piece, in cycles.
	m.stepLatency = reg.Histogram("core.step_latency_cycles", obs.ExpBuckets(1, 2, 24))
}

// Homes returns the compute nodes (for tests).
func (m *Machine) Homes() []cxl.NodeID { return append([]cxl.NodeID(nil), m.homes...) }

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

// then schedules fn at absolute time t (which may equal the current time).
// Every multi-cycle phase boundary in the serving paths goes through then()
// so that calendar reservations are made in (near) time order — reserving a
// far-future slot from an early event would block earlier-time requests
// behind it and destroy the queues' work-conserving behaviour.
func (m *Machine) then(t sim.Cycle, fn func()) {
	now := m.engine.Now()
	if t < now {
		t = now
	}
	m.engine.ScheduleAt(t, fn)
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
		m.then(t2, func() { walk(i+1, t2) })
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
		m.then(t+sim.Cycles(m.cfg.Faults.DRAM.RetryBackoffCycles), func() {
			attempt(m.engine.Now(), tries+1)
		})
	}
	attempt(now, 0)
}

// serveAccess performs a read/write access from `home` to one placed
// access, invoking cont in an event at the time the data (or ack) arrives
// back at home. Phases are event-separated (see then()).
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
			m.then(t2, func() {
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
			m.then(t2, func() {
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
				m.then(t2, func() {
					m.routeThen(t2, pa.Node, sw, pa.Bytes, fail, func(t sim.Cycle) {
						// 4-5. Atomic engine (D) / switch PE (S) computes.
						_, t3 := m.atomics[pa.Node.Switch].Acquire(t, sim.Cycles(m.cfg.AtomicLatency))
						m.then(t3, func() {
							// 6. Write back and acknowledge the requester.
							m.routeThen(t3, sw, pa.Node, pa.Bytes, fail, func(t sim.Cycle) {
								m.dimmAccess(t, dimm, pa, true, fail, func(t4 sim.Cycle) {
									m.then(t4, func() {
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
	res := &Result{}
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}

	// Merge traffic for multi-pass flows: each node ships its local filter
	// up and receives the merged copy (between passes; the calendar model is
	// insensitive to exact ordering, so issue it at t=0).
	if wl.MergeBytes > 0 {
		for _, h := range m.homes {
			if _, err := m.route(0, h, cxl.Host(), int(wl.MergeBytes/2)); err != nil {
				return nil, err
			}
			if _, err := m.route(0, cxl.Host(), h, int(wl.MergeBytes/2)); err != nil {
				return nil, err
			}
		}
	}

	m.engine.MaxEvents = m.cfg.MaxEvents
	if m.engine.MaxEvents == 0 {
		m.engine.MaxEvents = uint64(wl.TotalSteps())*64 + 1<<20
	}

	// Observability: drive registry snapshots off the clock's advance (no
	// events scheduled, so timing is untouched), publish run progress as
	// gauges, and record per-task lifetime spans.
	var taskStart map[*trace.Task]sim.Cycle
	if m.ob != nil {
		m.engine.OnAdvance = func(now sim.Cycle) { m.ob.MaybeSample(int64(now)) }
		reg := m.ob.Registry()
		reg.Gauge("core.tasks_completed", func() float64 { return float64(res.Tasks) })
		reg.Gauge("core.steps_completed", func() float64 { return float64(res.Steps) })
		reg.Gauge("core.local_accesses", func() float64 { return float64(res.LocalAccesses) })
		reg.Gauge("core.remote_accesses", func() float64 { return float64(res.RemoteAccesses) })
		taskStart = make(map[*trace.Task]sim.Cycle, len(wl.Tasks))
	}

	// Per-node task admission: each NDP module's Task Scheduler keeps a
	// bounded number of tasks in flight and admits the next as one retires.
	// onHost marks tasks that fell back to the host CPU after every NDP unit
	// failed; they run the degraded software path to completion.
	var runTask func(node int, task *trace.Task, step int, now sim.Cycle, onHost bool)
	admit := func(node int) {
		m.modules[node].Admit(func(task *trace.Task) {
			runTask(node, task, 0, m.engine.Now(), false)
		})
	}
	runTask = func(node int, task *trace.Task, step int, now sim.Cycle, onHost bool) {
		if firstErr != nil {
			return
		}
		if step == 0 && m.inj != nil && !onHost {
			// Unit-failure check at admission: a node that fails stops
			// accepting work. Its tasks migrate to the next surviving node
			// after the failover latency, or — with no survivors — fall back
			// to the host CPU baseline path.
			if !m.dead[node] && m.nodeFault[node].NDPUnitFails(now) {
				m.dead[node] = true
			}
			if m.dead[node] {
				at := now + sim.Cycles(m.cfg.Faults.NDP.FailoverLatencyCycles)
				if alt := m.aliveAfter(node); alt >= 0 {
					m.inj.CountMigration(now)
					m.then(at, func() {
						m.modules[alt].Enqueue(task)
						admit(alt)
					})
				} else {
					m.inj.CountHostFallback(now)
					m.then(at, func() { runTask(node, task, 0, m.engine.Now(), true) })
				}
				// Free the dead node's scheduler slot so its backlog drains
				// (each drained task migrates in turn); via an event so the
				// drain stays iterative rather than recursive.
				m.engine.Schedule(0, func() {
					if firstErr == nil {
						m.modules[node].Complete(func(t *trace.Task) {
							runTask(node, t, 0, m.engine.Now(), false)
						})
					}
				})
				return
			}
		}
		if taskStart != nil && step == 0 {
			taskStart[task] = now
		}
		if step >= len(task.Steps) {
			res.Tasks++
			if taskStart != nil {
				m.ob.Tracer().Span(m.taskTracks[node], "task", int64(taskStart[task]), int64(now))
			}
			if DebugTaskEnd != nil {
				DebugTaskEnd(now)
			}
			if m.onTaskEnd != nil {
				m.onTaskEnd(task, now)
			}
			if onHost {
				// The failed node's scheduler slot was already freed at
				// failover time.
				return
			}
			m.modules[node].Complete(func(task *trace.Task) {
				runTask(node, task, 0, m.engine.Now(), false)
			})
			return
		}
		st := task.Steps[step]
		// PE compute preceding the access: the full engine latency for a new
		// logical operation, one pipeline cycle for a continuation access.
		var tc sim.Cycle
		if onHost {
			// Degraded software path: a host CPU thread services the step with
			// the per-step fallback penalty instead of an NDP PE.
			_, tc = m.hostCPU.Acquire(now,
				sim.Cycles(m.cfg.Faults.NDP.HostFallbackCycles+int(st.Compute)))
		} else {
			tc = m.modules[node].Compute(now, task.Engine, st)
		}
		if DebugStepTrace != nil {
			DebugStepTrace(taskIndex(task, wl), step, now, tc)
		}

		home := m.homes[node]
		if onHost {
			// The data stays placed for the failed node; the host reaches it
			// across the fabric.
			home = cxl.Host()
		}
		local := wl.LocalSpaces[st.Space]
		// Non-replicated atomic targets are logically one copy pool-wide.
		shared := st.Op == trace.OpAtomicRMW && !local
		placed, err := m.mappers[node].MapShared(st.Space, st.Addr, st.Size, st.Spatial, local, shared)
		if err != nil {
			fail(err)
			return
		}
		// Issue the access(es) when the PE finishes computing; the step
		// completes when every placed piece has returned.
		m.then(tc, func() {
			remaining := len(placed)
			latest := tc
			pieceDone := func(t sim.Cycle) {
				if t > latest {
					latest = t
				}
				remaining--
				if remaining == 0 {
					res.Steps++
					m.stepLatency.Observe(float64(latest - now))
					m.then(latest, func() { runTask(node, task, step+1, latest, onHost) })
				}
			}
			for _, pa := range placed {
				if pa.Node == home {
					res.LocalAccesses++
				} else {
					res.RemoteAccesses++
				}
				switch st.Op {
				case trace.OpAtomicRMW:
					m.serveAtomic(tc, home, pa, fail, pieceDone)
				case trace.OpWrite:
					m.serveAccess(tc, home, pa, true, fail, pieceDone)
				default:
					m.serveAccess(tc, home, pa, false, fail, pieceDone)
				}
			}
		})
	}

	// Distribute tasks round-robin across compute nodes and start admission.
	for i := range wl.Tasks {
		m.modules[i%len(m.homes)].Enqueue(&wl.Tasks[i])
	}
	for node := range m.homes {
		node := node
		m.engine.Schedule(0, func() { admit(node) })
	}
	end, err := m.engine.Run()
	if err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if res.Tasks != len(wl.Tasks) {
		return nil, fmt.Errorf("core: completed %d of %d tasks", res.Tasks, len(wl.Tasks))
	}
	// Final registry snapshot at the makespan, so even SampleEvery==0 runs
	// dump end-of-run metrics.
	m.ob.Sample(int64(end))

	res.Cycles = end
	if m.inj != nil {
		res.Faults = m.inj.Stats()
	}
	var peBusy sim.Cycles
	for _, mod := range m.modules {
		peBusy += mod.PEBusyCycles()
	}
	res.PEBusyCycles = peBusy
	res.Fabric = m.fabric.Stats()

	// Aggregate DRAM stats and the CXLG chip distribution.
	var cxlgChips []uint64
	for s := range m.dimms {
		for d, dm := range m.dimms[s] {
			st := dm.Stats()
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
	dm := m.cfg.DRAMEnergy
	var dramPJ float64
	for s := range m.dimms {
		for _, d := range m.dimms[s] {
			dramPJ += dm.AccessEnergyPJ(d.Stats(), 1)
		}
	}
	dramPJ += dm.BackgroundEnergyPJ(int64(end), m.cfg.Switches*m.cfg.DIMMsPerSwitch*m.cfg.DIMM.Ranks)
	em := m.cfg.Energy
	commPJ := em.LinkPJ(res.Fabric.WireBytes) + em.BusPJ(res.Fabric.SwitchBusBytes) + em.HostPJ(res.Fabric.HostCrossings)
	computePJ := em.PEComputePJ(int64(peBusy)) + em.PELeakagePJ(len(m.homes)*m.cfg.PEsPerNode, int64(end))
	res.Energy = energy.Breakdown{CommunicationPJ: commPJ, DRAMPJ: dramPJ, ComputePJ: computePJ}
	return res, nil
}

// aliveAfter returns the next surviving node after node in round-robin
// order, or -1 when every node has failed.
func (m *Machine) aliveAfter(node int) int {
	for i := 1; i <= len(m.homes); i++ {
		n := (node + i) % len(m.homes)
		if !m.dead[n] {
			return n
		}
	}
	return -1
}

// taskIndex locates a task within its workload (debug only; O(1) via
// pointer arithmetic is not portable, so linear scan is memoized by a map).
var taskIndexMemo map[*trace.Task]int

func taskIndex(task *trace.Task, wl *trace.Workload) int {
	if taskIndexMemo == nil {
		taskIndexMemo = map[*trace.Task]int{}
		for i := range wl.Tasks {
			taskIndexMemo[&wl.Tasks[i]] = i
		}
	}
	return taskIndexMemo[task]
}

// Run is the package-level convenience: build a machine and replay.
func Run(cfg Config, wl *trace.Workload) (*Result, error) {
	m, err := NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	return m.Run(wl)
}
