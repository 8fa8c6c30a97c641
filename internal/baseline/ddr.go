// Package baseline implements the paper's comparison systems: the previous
// DDR-DIMM based NDP accelerators (MEDAL for DNA seeding, NEST for k-mer
// counting) and the 48-thread CPU software baseline.
//
// The DDR machines share BEACON's DIMM timing model and task-replay
// semantics but live on conventional DDR memory channels: inter-DIMM
// communication crosses a single shared, half-duplex channel bus
// (12.8 GB/s), and cross-channel traffic detours through the host memory
// controller. That topology is the source of MEDAL's ~12x intra/inter
// bandwidth gap and of Fig. 3's finding that idealized communication would
// speed the previous work up ~4.4x.
package baseline

import (
	"fmt"

	"beacon/internal/cxl"
	"beacon/internal/dram"
	"beacon/internal/energy"
	"beacon/internal/memmgmt"
	"beacon/internal/ndp"
	"beacon/internal/obs"
	"beacon/internal/sim"
	"beacon/internal/trace"
)

// DDRConfig describes a MEDAL/NEST-style platform (Table I: 512 GB across
// 4 channels, 2 DIMMs per channel, every DIMM customized).
type DDRConfig struct {
	// Channels is the number of DDR memory channels.
	Channels int
	// DIMMsPerChannel is the number of accelerator DIMMs per channel.
	DIMMsPerChannel int
	// PEsPerDIMM is the PE count per DIMM.
	PEsPerDIMM int
	// DIMM is the module geometry (same modules as BEACON, Table I).
	DIMM dram.Config
	// ChannelBytesPerCycle is the shared channel bandwidth (DDR4-1600:
	// 12.8 GB/s = 16 B/cycle), half-duplex: requests and responses of every
	// DIMM on the channel contend for it.
	ChannelBytesPerCycle float64
	// ChannelLatencyCycles is the bus turnaround/propagation latency.
	ChannelLatencyCycles int
	// HostBridgeBytesPerCycle and HostLatencyCycles govern cross-channel
	// traffic, which traverses the host.
	HostBridgeBytesPerCycle float64
	HostLatencyCycles       int
	// ReqBytes is the command message size.
	ReqBytes int
	// AtomicLatency is the in-DIMM atomic unit latency.
	AtomicLatency int
	// InFlightPerDIMM bounds concurrently active tasks per DIMM.
	InFlightPerDIMM int
	// TaskAffinity is the fraction of hot-index stripes kept local to the
	// serving DIMM by task-migration techniques. The default (0) models
	// MEDAL's evaluation regime: the index is sharded channel-locally but
	// probes land on random shards, leaving inter-DIMM communication as the
	// bottleneck (Fig. 1, Fig. 3). Raising it is an ablation knob for
	// hypothetical stronger affinity schemes.
	TaskAffinity float64
	// IdealComm removes all communication cost (Fig. 3's idealization).
	IdealComm bool
	// Energy models.
	Energy     energy.Model
	DRAMEnergy dram.EnergyModel
	// MaxEvents is the livelock backstop (0 = derived).
	MaxEvents uint64
	// Obs, when non-nil, attaches the observability layer (see core.Config).
	// Observation-only: cycle counts are identical with Obs set or nil.
	Obs *obs.Obs
}

// DefaultDDRConfig returns the Table I MEDAL/NEST platform.
func DefaultDDRConfig() DDRConfig {
	return DDRConfig{
		Channels:                4,
		DIMMsPerChannel:         2,
		PEsPerDIMM:              128,
		DIMM:                    dram.DefaultConfig(),
		ChannelBytesPerCycle:    16, // 12.8 GB/s at the 800 MHz bus clock
		ChannelLatencyCycles:    24,
		HostBridgeBytesPerCycle: 64,
		HostLatencyCycles:       240,
		ReqBytes:                16,
		AtomicLatency:           4,
		TaskAffinity:            0,
		Energy:                  energy.DefaultModel(),
		DRAMEnergy:              dram.DefaultEnergyModel(),
	}
}

// MEDALConfig returns the MEDAL platform: like DefaultDDRConfig but with
// the PE count set for area parity with BEACON (§VI-A: "BEACON and the NDP
// baselines have the same area overhead"): 4 CXLG-DIMMs x 128 PEs x
// 14090 um2 spread over 8 DIMMs of 8941 um2 MEDAL PEs ~= 100 PEs per DIMM.
func MEDALConfig() DDRConfig {
	cfg := DefaultDDRConfig()
	cfg.PEsPerDIMM = 100
	return cfg
}

// NESTConfig returns the NEST platform at area parity: NEST's larger PE
// (16721 um2) yields ~54 PEs per DIMM for the same total area.
func NESTConfig() DDRConfig {
	cfg := DefaultDDRConfig()
	cfg.PEsPerDIMM = 54
	return cfg
}

// Validate checks the configuration.
func (c DDRConfig) Validate() error {
	if c.Channels <= 0 || c.DIMMsPerChannel <= 0 {
		return fmt.Errorf("baseline: platform %dx%d invalid", c.Channels, c.DIMMsPerChannel)
	}
	if c.PEsPerDIMM <= 0 {
		return fmt.Errorf("baseline: PEs per DIMM must be positive")
	}
	if err := c.DIMM.Validate(); err != nil {
		return err
	}
	if !c.IdealComm {
		if c.ChannelBytesPerCycle <= 0 || c.HostBridgeBytesPerCycle <= 0 {
			return fmt.Errorf("baseline: bus bandwidths must be positive")
		}
		if c.ChannelLatencyCycles < 0 || c.HostLatencyCycles < 0 {
			return fmt.Errorf("baseline: negative bus latency")
		}
	}
	if c.ReqBytes <= 0 || c.AtomicLatency < 0 {
		return fmt.Errorf("baseline: invalid message/latency parameters")
	}
	if c.TaskAffinity < 0 || c.TaskAffinity >= 1 {
		return fmt.Errorf("baseline: task affinity %g out of [0,1)", c.TaskAffinity)
	}
	return nil
}

// Result is the outcome of a DDR-baseline run.
type Result struct {
	// Cycles is the makespan.
	Cycles sim.Cycle
	// Tasks and Steps count completed work.
	Tasks, Steps int
	// Energy is the breakdown.
	Energy energy.Breakdown
	// ChannelBytes is the traffic crossing DDR channel buses.
	ChannelBytes uint64
	// HostCrossings counts cross-channel detours.
	HostCrossings uint64
	// PEBusyCycles accumulates PE busy time.
	PEBusyCycles sim.Cycles
	// LocalAccesses / RemoteAccesses split by DIMM locality.
	LocalAccesses, RemoteAccesses uint64
}

// Seconds converts the makespan to seconds (1.25 ns cycles).
func (r *Result) Seconds() float64 { return sim.Seconds(r.Cycles) }

// EnergyPJ returns total energy.
func (r *Result) EnergyPJ() float64 { return r.Energy.TotalPJ() }

// DDRMachine is an instantiated MEDAL/NEST-style platform.
type DDRMachine struct {
	cfg     DDRConfig
	engine  *sim.Engine
	dimms   [][]*dram.DIMM // [channel][slot]
	mappers []*memmgmt.Mapper
	homes   []cxl.NodeID  // channel=Switch, slot=Slot
	modules []*ndp.Module // one NDP module per accelerator DIMM
	chanBus []*sim.Pipe   // per channel, half duplex shared
	host    *sim.Pipe
	ob      *obs.Obs
	stats   struct {
		channelBytes  uint64
		hostCrossings uint64
	}
}

// NewDDRMachine builds the platform.
func NewDDRMachine(cfg DDRConfig) (*DDRMachine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &DDRMachine{cfg: cfg, engine: sim.NewEngine()}
	// Address mapping: every DIMM is customized (fine-grained, per-chip:
	// MEDAL has no multi-chip coalescing), the index shards stripe across
	// the whole platform, spatial data is row-major.
	mm := memmgmt.Config{
		Pool: memmgmt.PoolLayout{
			Switches:       cfg.Channels,
			DIMMsPerSwitch: cfg.DIMMsPerChannel,
			CXLGSlots:      cfg.DIMMsPerChannel,
		},
		DIMM:           cfg.DIMM,
		Scheme:         memmgmt.SchemeArchData,
		PlacementLocal: true, // MEDAL shards the index channel-locally
		HomeBias:       cfg.TaskAffinity,
		CoalesceGroup:  1,
		StripeBytes:    4096,
		FineUnitBytes:  32,
	}
	for ch := 0; ch < cfg.Channels; ch++ {
		var row []*dram.DIMM
		for d := 0; d < cfg.DIMMsPerChannel; d++ {
			dm, err := dram.NewDIMM(fmt.Sprintf("ch%d.d%d", ch, d), cfg.DIMM, 1)
			if err != nil {
				return nil, err
			}
			row = append(row, dm)
			home := cxl.DIMM(ch, d)
			m.homes = append(m.homes, home)
			mp, err := memmgmt.NewMapper(mm, home)
			if err != nil {
				return nil, err
			}
			m.mappers = append(m.mappers, mp)
			mod, err := ndp.New(fmt.Sprintf("ch%d.d%d", ch, d), ndp.Config{
				PEs:           cfg.PEsPerDIMM,
				QueueDepth:    cfg.InFlightPerDIMM,
				AtomicEngines: cfg.PEsPerDIMM,
				AtomicLatency: cfg.AtomicLatency,
			})
			if err != nil {
				return nil, err
			}
			m.modules = append(m.modules, mod)
		}
		m.dimms = append(m.dimms, row)
		if !cfg.IdealComm {
			m.chanBus = append(m.chanBus, sim.NewPipe(fmt.Sprintf("ch%d.bus", ch),
				cfg.ChannelBytesPerCycle, sim.Cycles(cfg.ChannelLatencyCycles)))
		}
	}
	if !cfg.IdealComm {
		m.host = sim.NewPipeN("hostbridge", cfg.HostBridgeBytesPerCycle,
			sim.Cycles(cfg.HostLatencyCycles), cfg.Channels)
	}
	m.instrument(cfg.Obs)
	return m, nil
}

// instrument attaches the observability layer; observation-only.
func (m *DDRMachine) instrument(ob *obs.Obs) {
	if ob == nil {
		return
	}
	m.ob = ob
	reg := ob.Registry()
	reg.Gauge("engine.pending_events", func() float64 { return float64(m.engine.Pending()) })
	reg.Gauge("engine.executed_events", func() float64 { return float64(m.engine.Executed()) })
	reg.Gauge("ddr.channel_bytes", func() float64 { return float64(m.stats.channelBytes) })
	reg.Gauge("ddr.host_crossings", func() float64 { return float64(m.stats.hostCrossings) })
	for _, row := range m.dimms {
		for _, d := range row {
			d.Instrument(ob)
		}
	}
	for _, mod := range m.modules {
		mod.Instrument(ob)
	}
	// Channel buses and the host bridge account their cycles through the
	// Accountant (util.* gauges), replacing the old ad-hoc ddr.*.busy_cycles
	// gauges with the same polled counters plus queueing wait.
	tr := ob.Tracer()
	ac := ob.Accountant()
	pipe := func(p *sim.Pipe, class string) {
		p.Instrument(tr, "xfer")
		ac.Track(obs.Meter{
			Class: class,
			Name:  p.Name(),
			Width: p.Width(),
			Busy:  func() int64 { return int64(p.BusyCycles()) },
			Wait:  func() int64 { return int64(p.WaitCycles()) },
		})
	}
	for _, bus := range m.chanBus {
		pipe(bus, obs.ClassBus)
	}
	if m.host != nil {
		pipe(m.host, obs.ClassHostBridge)
	}
}

// wire64 rounds a payload to DDR burst granularity.
func wire64(n int) int { return (n + 63) / 64 * 64 }

// then schedules fn at absolute time t (clamped to now).
func (m *DDRMachine) then(t sim.Cycle, fn func()) {
	if now := m.engine.Now(); t < now {
		t = now
	}
	m.engine.ScheduleAt(t, fn)
}

// routeThen moves a message between DIMMs with per-hop events, as in
// internal/core: same-channel over the shared bus, cross-channel via the
// host bridge.
func (m *DDRMachine) routeThen(now sim.Cycle, from, to cxl.NodeID, size int, cont func(sim.Cycle)) {
	if m.cfg.IdealComm || from == to {
		cont(now)
		return
	}
	wire := wire64(size)
	m.stats.channelBytes += uint64(wire)
	t1 := m.chanBus[from.Switch].Transfer(now, wire)
	if from.Switch == to.Switch {
		m.then(t1, func() { cont(t1) })
		return
	}
	m.stats.hostCrossings++
	m.stats.channelBytes += uint64(wire)
	m.then(t1, func() {
		t2 := m.host.Transfer(t1, wire)
		m.then(t2, func() {
			t3 := m.chanBus[to.Switch].Transfer(t2, wire)
			m.then(t3, func() { cont(t3) })
		})
	})
}

// Run replays a workload. The machine is single use.
func (m *DDRMachine) Run(wl *trace.Workload) (*Result, error) {
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

	// Multi-pass merge traffic crosses channels via the host.
	if wl.MergeBytes > 0 && !m.cfg.IdealComm {
		for range m.homes {
			m.host.Transfer(0, int(wl.MergeBytes))
			m.stats.channelBytes += wl.MergeBytes
		}
	}

	m.engine.MaxEvents = m.cfg.MaxEvents
	if m.engine.MaxEvents == 0 {
		m.engine.MaxEvents = uint64(wl.TotalSteps())*64 + 1<<20
	}
	if m.ob != nil {
		m.engine.OnAdvance = func(now sim.Cycle) { m.ob.MaybeSample(int64(now)) }
		reg := m.ob.Registry()
		reg.Gauge("ddr.tasks_completed", func() float64 { return float64(res.Tasks) })
		reg.Gauge("ddr.steps_completed", func() float64 { return float64(res.Steps) })
		reg.Gauge("ddr.local_accesses", func() float64 { return float64(res.LocalAccesses) })
		reg.Gauge("ddr.remote_accesses", func() float64 { return float64(res.RemoteAccesses) })
	}

	dimmAt := func(n cxl.NodeID) *dram.DIMM { return m.dimms[n.Switch][n.Slot] }
	nodeIndex := func(n cxl.NodeID) int { return n.Switch*m.cfg.DIMMsPerChannel + n.Slot }

	var runTask func(node int, task *trace.Task, step int, now sim.Cycle)
	admit := func(node int) {
		m.modules[node].Admit(func(task *trace.Task) {
			runTask(node, task, 0, m.engine.Now())
		})
	}

	// serve one placed access; cont receives completion time.
	serve := func(now sim.Cycle, home cxl.NodeID, pa memmgmt.PlacedAccess, op trace.Op, cont func(sim.Cycle)) {
		dimm := dimmAt(pa.Node)
		doDRAM := func(t sim.Cycle, write bool, k func(sim.Cycle)) {
			t2, err := dimm.Access(t, pa.Loc, pa.Bytes, write, pa.Mode)
			if err != nil {
				fail(err)
				return
			}
			k(t2)
		}
		switch {
		case pa.Node == home && op == trace.OpAtomicRMW:
			doDRAM(now, false, func(t sim.Cycle) {
				t2 := t + m.modules[nodeIndex(home)].AtomicLatency()
				m.then(t2, func() { doDRAM(t2, true, cont) })
			})
		case pa.Node == home:
			doDRAM(now, op == trace.OpWrite, cont)
		case op == trace.OpAtomicRMW:
			// Remote RMW: command to the target DIMM, whose own NDP logic
			// performs the read-modify-write, then acknowledges.
			m.routeThen(now, home, pa.Node, m.cfg.ReqBytes+pa.Bytes, func(t sim.Cycle) {
				doDRAM(t, false, func(t2 sim.Cycle) {
					t3 := m.modules[nodeIndex(pa.Node)].Atomic(t2)
					m.then(t3, func() {
						doDRAM(t3, true, func(t4 sim.Cycle) {
							m.then(t4, func() { m.routeThen(t4, pa.Node, home, 4, cont) })
						})
					})
				})
			})
		case op == trace.OpWrite:
			m.routeThen(now, home, pa.Node, m.cfg.ReqBytes+pa.Bytes, func(t sim.Cycle) {
				doDRAM(t, true, func(t2 sim.Cycle) {
					m.then(t2, func() { m.routeThen(t2, pa.Node, home, 4, cont) })
				})
			})
		default:
			m.routeThen(now, home, pa.Node, m.cfg.ReqBytes, func(t sim.Cycle) {
				doDRAM(t, false, func(t2 sim.Cycle) {
					m.then(t2, func() { m.routeThen(t2, pa.Node, home, pa.Bytes, cont) })
				})
			})
		}
	}

	runTask = func(node int, task *trace.Task, step int, now sim.Cycle) {
		if firstErr != nil {
			return
		}
		if step >= len(task.Steps) {
			res.Tasks++
			m.modules[node].Complete(func(task *trace.Task) {
				runTask(node, task, 0, m.engine.Now())
			})
			return
		}
		st := task.Steps[step]
		tc := m.modules[node].Compute(now, task.Engine, st)
		home := m.homes[node]
		local := wl.LocalSpaces[st.Space]
		shared := st.Op == trace.OpAtomicRMW && !local
		placed, err := m.mappers[node].MapShared(st.Space, st.Addr, st.Size, st.Spatial, local, shared)
		if err != nil {
			fail(err)
			return
		}
		m.then(tc, func() {
			remaining := len(placed)
			latest := tc
			done := func(t sim.Cycle) {
				if t > latest {
					latest = t
				}
				remaining--
				if remaining == 0 {
					res.Steps++
					m.then(latest, func() { runTask(node, task, step+1, latest) })
				}
			}
			for _, pa := range placed {
				if pa.Node == home {
					res.LocalAccesses++
				} else {
					res.RemoteAccesses++
				}
				serve(tc, home, pa, st.Op, done)
			}
		})
	}

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
		return nil, fmt.Errorf("baseline: completed %d of %d tasks", res.Tasks, len(wl.Tasks))
	}
	// Final registry snapshot at the makespan, so even SampleEvery==0 runs
	// dump end-of-run metrics.
	m.ob.Sample(int64(end))

	res.Cycles = end
	var peBusy sim.Cycles
	for _, mod := range m.modules {
		peBusy += mod.PEBusyCycles()
	}
	res.PEBusyCycles = peBusy
	res.ChannelBytes = m.stats.channelBytes
	res.HostCrossings = m.stats.hostCrossings

	var dramPJ float64
	for _, row := range m.dimms {
		for _, d := range row {
			dramPJ += m.cfg.DRAMEnergy.AccessEnergyPJ(d.Stats(), 1)
		}
	}
	ranks := m.cfg.Channels * m.cfg.DIMMsPerChannel * m.cfg.DIMM.Ranks
	dramPJ += m.cfg.DRAMEnergy.BackgroundEnergyPJ(int64(end), ranks)
	commPJ := m.cfg.Energy.DDRChannelPJ(res.ChannelBytes) + m.cfg.Energy.HostPJ(res.HostCrossings)
	computePJ := m.cfg.Energy.PEComputePJ(int64(peBusy)) +
		m.cfg.Energy.PELeakagePJ(len(m.homes)*m.cfg.PEsPerDIMM, int64(end))
	res.Energy = energy.Breakdown{CommunicationPJ: commPJ, DRAMPJ: dramPJ, ComputePJ: computePJ}
	return res, nil
}

// RunDDR builds a machine and replays the workload.
func RunDDR(cfg DDRConfig, wl *trace.Workload) (*Result, error) {
	m, err := NewDDRMachine(cfg)
	if err != nil {
		return nil, err
	}
	return m.Run(wl)
}
