// Package baseline implements the paper's comparison systems: the previous
// DDR-DIMM based NDP accelerators (MEDAL for DNA seeding, NEST for k-mer
// counting) and the 48-thread CPU software baseline.
//
// The DDR machines share BEACON's DIMM timing model and its task-replay
// loop (ndp.Replay) but live on conventional DDR memory channels: inter-DIMM
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
	// IdealComm removes all communication cost (Fig. 3's idealization).
	IdealComm bool
	// Energy models.
	Energy     energy.Model
	DRAMEnergy dram.EnergyModel
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
	return nil
}

// Result is the outcome of a DDR-baseline run.
type Result struct {
	ndp.Totals
	// Energy is the breakdown.
	Energy energy.Breakdown
	// ChannelBytes is the traffic crossing DDR channel buses.
	ChannelBytes uint64
	// HostCrossings counts cross-channel detours.
	HostCrossings uint64
}

// DDRMachine is an instantiated MEDAL/NEST-style platform.
type DDRMachine struct {
	cfg    DDRConfig
	engine *sim.Engine
	dimms  [][]*dram.DIMM // [channel][slot]
	// nodes holds one NDP module per accelerator DIMM, homed at
	// channel=Switch, slot=Slot; rp replays tasks over them.
	nodes   []ndp.Node
	rp      *ndp.Replay
	chanBus []*sim.Pipe // per channel, half duplex shared
	host    *sim.Pipe
	// paths[a][b] is the hop sequence from channel a to channel b.
	paths [][][]cxl.Hop
	stats struct {
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
			mp, err := memmgmt.NewMapper(mm, home)
			if err != nil {
				return nil, err
			}
			mod, err := ndp.New(fmt.Sprintf("ch%d.d%d", ch, d), ndp.Config{
				PEs:           cfg.PEsPerDIMM,
				AtomicEngines: cfg.PEsPerDIMM,
				AtomicLatency: cfg.AtomicLatency,
			})
			if err != nil {
				return nil, err
			}
			m.nodes = append(m.nodes, ndp.Node{Module: mod, Home: home, Mapper: mp})
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
		for a, bus := range m.chanBus {
			row := make([][]cxl.Hop, cfg.Channels)
			for b := range row {
				row[b] = []cxl.Hop{cxl.PipeHop(bus), cxl.PipeHop(m.host), cxl.PipeHop(m.chanBus[b])}
				if b == a {
					row[b] = row[b][:1]
				}
			}
			m.paths = append(m.paths, row)
		}
	}
	m.rp = ndp.NewReplay("ddr", m.nodes, &ndp.Walker{
		Engine: m.engine, Flows: Flows, ReqBytes: cfg.ReqBytes, AckBytes: 4,
		Path: m.path, Access: m.access, Atomic: m.atomic,
	})
	m.instrument(cfg.Obs)
	return m, nil
}

// instrument attaches the observability layer; observation-only.
func (m *DDRMachine) instrument(ob *obs.Obs) {
	if ob == nil {
		return
	}
	reg := ob.Registry()
	reg.Gauge("ddr.channel_bytes", func() float64 { return float64(m.stats.channelBytes) })
	reg.Gauge("ddr.host_crossings", func() float64 { return float64(m.stats.hostCrossings) })
	for _, row := range m.dimms {
		for _, d := range row {
			d.Instrument(ob)
		}
	}
	m.rp.Instrument(ob)
	// Channel buses and the host bridge account their cycles through
	// Obs.Track (util.* gauges): the pipes' polled busy counters plus
	// queueing wait.
	tr := ob.Tracer()
	pipe := func(p *sim.Pipe, class string) {
		p.Instrument(tr, "xfer")
		ob.Track(p.Meter(class))
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

// Flows is the DDR baseline's flow table (ndp.Walker): local pieces stay
// inside the DIMM; remote ones cross the channel bus (and the host bridge
// between channels). A remote RMW sends its command with the operand to
// the target DIMM, whose own NDP logic performs the read-modify-write, then
// acknowledges.
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
			ndp.Route(ndp.Home, ndp.Target, ndp.ReqData),
			ndp.DRAMRead, ndp.Atomic(ndp.Target), ndp.DRAMWrite,
			ndp.Route(ndp.Target, ndp.Home, ndp.Ack),
		},
	},
}

// path is the walker's Path: same-channel messages cross the shared bus,
// cross-channel ones also the host bridge and the target's bus, each hop
// moving the payload rounded to DDR bursts.
func (m *DDRMachine) path(from, to cxl.NodeID, size int) ([]cxl.Hop, int, error) {
	if m.cfg.IdealComm {
		return nil, 0, nil
	}
	wire := wire64(size)
	m.stats.channelBytes += uint64(wire)
	if from.Switch != to.Switch {
		m.stats.hostCrossings++
		m.stats.channelBytes += uint64(wire)
	}
	return m.paths[from.Switch][to.Switch], wire, nil
}

// access is the walker's Access; the DDR baseline never retries.
func (m *DDRMachine) access(now sim.Cycle, pa memmgmt.PlacedAccess, write bool) (sim.Cycle, error) {
	return m.dimms[pa.Node.Switch][pa.Node.Slot].Access(now, pa.Loc, int(pa.Bytes), write, pa.Mode)
}

// atomic is the walker's Atomic: a local RMW computes inline in the home
// DIMM's logic, a remote one on the target DIMM's atomic units.
func (m *DDRMachine) atomic(now sim.Cycle, at cxl.NodeID, local bool) sim.Cycle {
	mod := m.nodes[int(at.Switch)*m.cfg.DIMMsPerChannel+int(at.Slot)].Module
	if local {
		return now + mod.AtomicLatency()
	}
	return mod.Atomic(now)
}

// Run replays a workload. The machine is single use.
func (m *DDRMachine) Run(wl *trace.Workload) (*Result, error) {
	if err := wl.Validate(); err != nil {
		return nil, err
	}
	// Multi-pass merge traffic crosses channels via the host.
	if wl.MergeBytes > 0 && !m.cfg.IdealComm {
		for range m.nodes {
			m.host.Transfer(0, int(wl.MergeBytes))
			m.stats.channelBytes += wl.MergeBytes
		}
	}
	tot, err := m.rp.Run(wl)
	if err != nil {
		return nil, err
	}
	res := &Result{Totals: tot, ChannelBytes: m.stats.channelBytes, HostCrossings: m.stats.hostCrossings}
	end := res.Cycles

	var dramPJ float64
	for _, row := range m.dimms {
		for _, d := range row {
			dramPJ += m.cfg.DRAMEnergy.AccessEnergyPJ(d.Stats(), 1)
		}
	}
	ranks := m.cfg.Channels * m.cfg.DIMMsPerChannel * m.cfg.DIMM.Ranks
	dramPJ += m.cfg.DRAMEnergy.BackgroundEnergyPJ(int64(end), ranks)
	commPJ := m.cfg.Energy.DDRChannelPJ(res.ChannelBytes) + m.cfg.Energy.HostPJ(res.HostCrossings)
	computePJ := m.cfg.Energy.PEComputePJ(int64(res.PEBusyCycles)) +
		m.cfg.Energy.PELeakagePJ(len(m.nodes)*m.cfg.PEsPerDIMM, int64(end))
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
