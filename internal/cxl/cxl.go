// Package cxl models the memory-pool interconnect: full-duplex CXL links
// between host, switches and DIMMs, the in-switch Switch-Bus that routes
// traffic between ports without a host detour, and the Data Packer that
// coalesces fine-grained payloads into 64-byte flits.
//
// The model is flit-level, not transaction-level: what the evaluation
// depends on is bandwidth (bytes/cycle per link direction), propagation
// latency, the 64 B transfer granularity that wastes bandwidth on
// fine-grained genomics traffic, and the topology-induced host round trips
// that BEACON's memory-access optimization removes (Fig. 9).
package cxl

import (
	"fmt"
	"slices"

	"beacon/internal/fault"
	"beacon/internal/obs"
	"beacon/internal/sim"
)

// FlitBytes is the CXL transfer granularity (§IV-B: "the default data
// transfer granularity in CXL is 64 Bytes").
const FlitBytes = 64

// PackHeaderBytes is the per-message bookkeeping the Data Packer adds when
// it packs several fine-grained payloads into shared flits (request id +
// offset/length so the receiver can unpack).
const PackHeaderBytes = 4

// LinkConfig describes one full-duplex link.
type LinkConfig struct {
	// BytesPerCycle is the per-direction bandwidth in bytes per DRAM cycle.
	// A PCIe 5.0 x8 CXL link (32 GB/s) at the 800 MHz DDR4-1600 bus clock
	// moves 40 B/cycle.
	BytesPerCycle float64
	// LatencyCycles is the one-way propagation + protocol latency.
	LatencyCycles int
}

// Validate checks the link parameters.
func (c LinkConfig) Validate() error {
	if c.BytesPerCycle <= 0 {
		return fmt.Errorf("cxl: link bandwidth must be positive, got %g", c.BytesPerCycle)
	}
	if c.LatencyCycles < 0 {
		return fmt.Errorf("cxl: negative link latency %d", c.LatencyCycles)
	}
	return nil
}

// NodeKind discriminates fabric endpoints.
type NodeKind uint8

// Endpoint kinds.
const (
	NodeHost NodeKind = iota
	NodeSwitch
	NodeDIMM
)

// NodeID names a fabric endpoint. Switch is the switch index; Slot is the
// DIMM slot under that switch (DIMM nodes only). Both are int32, so a
// NodeID is 12 bytes in every in-flight request that carries one.
type NodeID struct {
	Kind   NodeKind
	Switch int32
	Slot   int32
}

// Host returns the host endpoint.
func Host() NodeID { return NodeID{Kind: NodeHost} }

// Switch returns switch endpoint i.
func Switch(i int) NodeID { return NodeID{Kind: NodeSwitch, Switch: int32(i)} }

// DIMM returns the endpoint for slot j under switch i.
func DIMM(i, j int) NodeID { return NodeID{Kind: NodeDIMM, Switch: int32(i), Slot: int32(j)} }

// String renders the endpoint.
func (n NodeID) String() string {
	switch n.Kind {
	case NodeHost:
		return "host"
	case NodeSwitch:
		return fmt.Sprintf("switch%d", n.Switch)
	case NodeDIMM:
		return fmt.Sprintf("dimm%d.%d", n.Switch, n.Slot)
	}
	return fmt.Sprintf("node(%d)", n.Kind)
}

// Config describes the pool fabric.
type Config struct {
	// Switches is the number of CXL switches attached to the host.
	Switches int
	// DIMMsPerSwitch is the number of CXL-DIMMs under each switch.
	DIMMsPerSwitch int
	// HostLink connects the host to each switch.
	HostLink LinkConfig
	// DIMMLink connects a switch to each of its DIMMs.
	DIMMLink LinkConfig
	// SwitchBusBytesPerCycle is the internal Switch-Bus bandwidth (the
	// added component that routes port-to-port without the host).
	SwitchBusBytesPerCycle float64
	// SwitchLatencyCycles is the VCS routing decision latency per traversal.
	SwitchLatencyCycles int
	// PackerLatencyCycles is the Data Packer's pack/unpack pipeline latency
	// added to packed transfers.
	PackerLatencyCycles int
	// HostLatencyCycles is the host-side processing added to every
	// coherence round trip (Fig. 9 a/c flows).
	HostLatencyCycles int
	// Ideal short-circuits the fabric: infinite bandwidth, zero latency
	// (the paper's "imaginary idealized communication").
	Ideal bool
}

// DefaultConfig returns the Table I BEACON pool shape: 2 switches, 4 DIMMs
// each, x8-per-DIMM and x16-per-switch CXL 2.0 links.
func DefaultConfig() Config {
	return Config{
		Switches:               2,
		DIMMsPerSwitch:         4,
		HostLink:               LinkConfig{BytesPerCycle: 80, LatencyCycles: 120}, // x16: 64 GB/s, ~150 ns
		DIMMLink:               LinkConfig{BytesPerCycle: 40, LatencyCycles: 80},  // x8: 32 GB/s, ~100 ns
		SwitchBusBytesPerCycle: 160,                                               // per-lane on-chip bus
		SwitchLatencyCycles:    16,
		PackerLatencyCycles:    4,
		HostLatencyCycles:      240, // host DMA/coherence engine turnaround
	}
}

// Validate checks the fabric configuration.
func (c Config) Validate() error {
	if c.Switches <= 0 {
		return fmt.Errorf("cxl: switches must be positive, got %d", c.Switches)
	}
	if c.DIMMsPerSwitch <= 0 {
		return fmt.Errorf("cxl: DIMMs per switch must be positive, got %d", c.DIMMsPerSwitch)
	}
	if c.Ideal {
		return nil // link parameters unused
	}
	if err := c.HostLink.Validate(); err != nil {
		return err
	}
	if err := c.DIMMLink.Validate(); err != nil {
		return err
	}
	if c.SwitchBusBytesPerCycle <= 0 {
		return fmt.Errorf("cxl: switch bus bandwidth must be positive")
	}
	if c.SwitchLatencyCycles < 0 || c.PackerLatencyCycles < 0 || c.HostLatencyCycles < 0 {
		return fmt.Errorf("cxl: negative latency in config")
	}
	return nil
}

// PinBytesPerCycle returns the bottleneck per-direction link bandwidth (in
// bytes per cycle) on the path between two endpoints: the tightest of the
// DIMM link, host link and Switch-Bus the path traverses. It is the wire
// ceiling calibration envelopes check sustained bandwidth against. An ideal
// fabric (or a degenerate same-node path) has no wire and returns 0,
// meaning "unbounded".
func (c Config) PinBytesPerCycle(from, to NodeID) float64 {
	if c.Ideal || from == to {
		return 0
	}
	min := 0.0
	tighten := func(bw float64) {
		if min == 0 || bw < min {
			min = bw
		}
	}
	// Any path touching a DIMM crosses its x8 link; any path touching the
	// host (or crossing switches, which detours through the host) crosses a
	// host link; every switch traversal crosses the Switch-Bus.
	if from.Kind == NodeDIMM || to.Kind == NodeDIMM {
		tighten(c.DIMMLink.BytesPerCycle)
	}
	if from.Kind == NodeHost || to.Kind == NodeHost || from.Switch != to.Switch {
		tighten(c.HostLink.BytesPerCycle)
	}
	if from.Kind != NodeHost || to.Kind != NodeHost {
		tighten(c.SwitchBusBytesPerCycle)
	}
	return min
}

// duplex is a pair of directed pipes.
type duplex struct {
	// toward the host/switch root ("up") and away from it ("down").
	up, down *sim.Pipe
}

// Stats aggregates fabric activity.
type Stats struct {
	// WireBytes is the total bytes serialized onto links (both directions,
	// all hops), including flit padding when unpacked.
	WireBytes uint64
	// UsefulBytes is the payload portion.
	UsefulBytes uint64
	// HostCrossings counts traversals through the host (coherence flows).
	HostCrossings uint64
	// SwitchBusBytes counts in-switch routed bytes.
	SwitchBusBytes uint64
	// Messages counts routed messages.
	Messages uint64
}

// Fabric is the instantiated pool interconnect.
type Fabric struct {
	cfg       Config
	hostLinks []duplex   // per switch
	dimmLinks [][]duplex // [switch][slot]
	bus       []*sim.Pipe
	packers   []*sim.Pipe // per switch: packer pipeline
	stats     Stats
	// linkFaults/busFaults map each pipe to its fault stream when injection
	// is enabled (lookup only — never iterated).
	linkFaults map[*sim.Pipe]fault.Component
	busFaults  map[*sim.Pipe]fault.Component
	// routes memoizes PathHops' hop sequences, indexed by (from, to,
	// packer, viaHost); built on first use (see PathHops).
	routes [][]Hop
}

// New builds a fabric.
func New(cfg Config) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Fabric{cfg: cfg}
	if cfg.Ideal {
		return f, nil
	}
	for s := 0; s < cfg.Switches; s++ {
		f.hostLinks = append(f.hostLinks, duplex{
			up:   sim.NewPipe(fmt.Sprintf("host-s%d.up", s), cfg.HostLink.BytesPerCycle, sim.Cycles(cfg.HostLink.LatencyCycles)),
			down: sim.NewPipe(fmt.Sprintf("host-s%d.down", s), cfg.HostLink.BytesPerCycle, sim.Cycles(cfg.HostLink.LatencyCycles)),
		})
		// The Switch-Bus and packer are crossbar-like and non-blocking:
		// one ingress and one egress lane per port (DIMM ports + host
		// port), each at the per-port bandwidth.
		lanes := 2 * (cfg.DIMMsPerSwitch + 1)
		f.bus = append(f.bus, sim.NewPipeN(fmt.Sprintf("s%d.bus", s), cfg.SwitchBusBytesPerCycle, sim.Cycles(cfg.SwitchLatencyCycles), lanes))
		f.packers = append(f.packers, sim.NewPipeN(fmt.Sprintf("s%d.packer", s), cfg.SwitchBusBytesPerCycle, sim.Cycles(cfg.PackerLatencyCycles), lanes))
		var row []duplex
		for d := 0; d < cfg.DIMMsPerSwitch; d++ {
			row = append(row, duplex{
				up:   sim.NewPipe(fmt.Sprintf("s%d-d%d.up", s, d), cfg.DIMMLink.BytesPerCycle, sim.Cycles(cfg.DIMMLink.LatencyCycles)),
				down: sim.NewPipe(fmt.Sprintf("s%d-d%d.down", s, d), cfg.DIMMLink.BytesPerCycle, sim.Cycles(cfg.DIMMLink.LatencyCycles)),
			})
		}
		f.dimmLinks = append(f.dimmLinks, row)
	}
	return f, nil
}

// Config returns the fabric configuration.
func (f *Fabric) Config() Config { return f.cfg }

// SetInjector enables fault injection: every link direction gets its own
// flit-CRC stream and every Switch-Bus its own port-degradation stream,
// keyed by pipe name. An ideal fabric has no pipes and injects nothing.
func (f *Fabric) SetInjector(in *fault.Injector) {
	if in == nil || f.cfg.Ideal {
		return
	}
	f.linkFaults = make(map[*sim.Pipe]fault.Component)
	f.busFaults = make(map[*sim.Pipe]fault.Component)
	for s := range f.hostLinks {
		f.linkFaults[f.hostLinks[s].up] = in.Component("cxl/" + f.hostLinks[s].up.Name())
		f.linkFaults[f.hostLinks[s].down] = in.Component("cxl/" + f.hostLinks[s].down.Name())
		f.busFaults[f.bus[s]] = in.Component("cxl/" + f.bus[s].Name())
	}
	for s := range f.dimmLinks {
		for d := range f.dimmLinks[s] {
			f.linkFaults[f.dimmLinks[s][d].up] = in.Component("cxl/" + f.dimmLinks[s][d].up.Name())
			f.linkFaults[f.dimmLinks[s][d].down] = in.Component("cxl/" + f.dimmLinks[s][d].down.Name())
		}
	}
}

// Instrument attaches observability: every link, switch-bus and packer lane
// calendar gains a trace track recording its occupancy spans, and the
// fabric's message counters plus per-pipe activity become polled gauges
// under "cxl.". Observation-only; an ideal fabric has nothing to record.
func (f *Fabric) Instrument(ob *obs.Obs) {
	if ob == nil || f.cfg.Ideal {
		return
	}
	tr := ob.Tracer()
	reg := ob.Registry()
	reg.Gauge("cxl.wire_bytes", func() float64 { return float64(f.stats.WireBytes) })
	reg.Gauge("cxl.useful_bytes", func() float64 { return float64(f.stats.UsefulBytes) })
	reg.Gauge("cxl.host_crossings", func() float64 { return float64(f.stats.HostCrossings) })
	reg.Gauge("cxl.switch_bus_bytes", func() float64 { return float64(f.stats.SwitchBusBytes) })
	reg.Gauge("cxl.messages", func() float64 { return float64(f.stats.Messages) })
	// Per-pipe accounting rides Obs.Track: each link direction, switch-bus
	// and packer registers util.* gauges polling the pipe's own lane
	// calendar (busy + queueing wait), which feed bottleneck attribution.
	pipe := func(p *sim.Pipe, class string) {
		p.Instrument(tr, "xfer")
		reg.Gauge("cxl."+p.Name()+".bytes_moved", func() float64 { return float64(p.BytesMoved()) })
		ob.Track(p.Meter(class))
	}
	for s := range f.hostLinks {
		pipe(f.hostLinks[s].up, obs.ClassLink)
		pipe(f.hostLinks[s].down, obs.ClassLink)
		pipe(f.bus[s], obs.ClassSwitch)
		pipe(f.packers[s], obs.ClassPacker)
	}
	for s := range f.dimmLinks {
		for d := range f.dimmLinks[s] {
			pipe(f.dimmLinks[s][d].up, obs.ClassLink)
			pipe(f.dimmLinks[s][d].down, obs.ClassLink)
		}
	}
}

// Stats returns a copy of the counters.
func (f *Fabric) Stats() Stats { return f.stats }

// WireBytesFor returns the bytes a message of useful payload occupies on the
// wire: packed messages share flits (payload + unpack header); unpacked
// messages round up to whole 64 B flits.
func WireBytesFor(useful int, packed bool) int {
	if useful <= 0 {
		return 0
	}
	if packed {
		return useful + PackHeaderBytes
	}
	return (useful + FlitBytes - 1) / FlitBytes * FlitBytes
}

// hopKind classifies a path stage for stats accounting.
type hopKind uint8

const (
	hopLink hopKind = iota
	hopBus
	hopPacker
	hopLatency
	hopPipe
)

// Hop is one traversal stage of a routed path. A path is walked with a
// Cursor, which traverses each hop in an event at the previous hop's
// delivery time:
// granting calendar slots far in the future would block earlier-time
// traffic behind idle holes (the calendars are FIFO in call order and do
// not backfill).
type Hop struct {
	f     *Fabric
	pipe  *sim.Pipe
	kind  hopKind
	extra sim.Cycles // added after delivery (host turnaround)
}

// PipeHop is a plain hop through one pipe, outside any Fabric: it counts
// no fabric stats and injects no faults. The DDR baseline builds its
// channel-bus and host-bridge paths from it.
func PipeHop(p *sim.Pipe) Hop { return Hop{pipe: p, kind: hopPipe} }

// Traverse sends wire bytes through the hop at time now and returns the
// delivery time. A pure-latency hop has no pipe. With fault injection
// enabled, link hops roll flit CRC errors — each retry waits out the replay
// buffer, then re-serializes the whole message through the same pipe (so
// retransmissions consume real link bandwidth and show up in WireBytes) —
// and bus hops roll transient port degradation, a pure delivery delay.
func (h Hop) Traverse(now sim.Cycle, wire int) sim.Cycle {
	t := now
	if h.pipe != nil {
		t = h.pipe.Transfer(now, wire)
		switch h.kind {
		case hopLink:
			h.f.stats.WireBytes += uint64(wire)
			if fc, ok := h.f.linkFaults[h.pipe]; ok {
				flits := (wire + FlitBytes - 1) / FlitBytes
				for r := fc.LinkCRC(t, flits); r > 0; r-- {
					t = h.pipe.Transfer(t+fc.ReplayLatency(), wire)
					h.f.stats.WireBytes += uint64(wire)
				}
			}
		case hopBus:
			h.f.stats.SwitchBusBytes += uint64(wire)
			if fc, ok := h.f.busFaults[h.pipe]; ok {
				t += fc.SwitchDegrade(t)
			}
		}
	}
	return t + h.extra
}

// Cursor is the one event-driven hop walker: a position on a path that
// traverses each hop in an event at the previous hop's delivery. Its
// holder keeps it by value in an in-flight record and calls Next at the
// walk's start (inline) and then in an event at each returned delivery
// time; when Next reports no hop left, the message has arrived at the
// time passed in.
type Cursor struct {
	hops []Hop
	wire int32
}

// NewCursor starts a walk over hops, moving wire bytes per hop.
func NewCursor(hops []Hop, wire int32) Cursor { return Cursor{hops: hops, wire: wire} }

// Next traverses the next hop at now and returns its delivery time; ok is
// false when every hop has been traversed.
func (c *Cursor) Next(now sim.Cycle) (t sim.Cycle, ok bool) {
	if len(c.hops) == 0 {
		return now, false
	}
	t = c.hops[0].Traverse(now, int(c.wire))
	c.hops = c.hops[1:]
	return t, true
}

// nodeIndex numbers a checked endpoint densely: the host, then the
// switches, then every DIMM switch-major.
func (f *Fabric) nodeIndex(n NodeID) int {
	switch n.Kind {
	case NodeSwitch:
		return 1 + int(n.Switch)
	case NodeDIMM:
		return 1 + f.cfg.Switches + int(n.Switch)*f.cfg.DIMMsPerSwitch + int(n.Slot)
	}
	return 0
}

// PathHops returns the hop sequence for a message and the wire bytes it
// occupies per hop (an ideal fabric yields no hops). viaHost forces the
// Fig. 9 coherence detour with the host turnaround latency. Message-level
// stats (Messages, UsefulBytes, HostCrossings) are counted here, once per
// call.
//
// The hop sequence depends only on the endpoints, viaHost and whether the
// Data Packer handles the message (packed and under one flit), so it is
// built on first use of each such route and reused after. The returned
// slice is shared by every later message on the route: callers must treat
// it as read-only.
func (f *Fabric) PathHops(from, to NodeID, useful int, packed, viaHost bool) ([]Hop, int, error) {
	if err := f.checkNode(from); err != nil {
		return nil, 0, err
	}
	if err := f.checkNode(to); err != nil {
		return nil, 0, err
	}
	f.stats.Messages++
	f.stats.UsefulBytes += uint64(useful)
	if viaHost {
		f.stats.HostCrossings++
	}
	if f.cfg.Ideal || from == to {
		return nil, 0, nil
	}
	packer := packed && useful < FlitBytes
	n := 1 + f.cfg.Switches*(1+f.cfg.DIMMsPerSwitch)
	if f.routes == nil {
		f.routes = make([][]Hop, n*n*4)
	}
	key := ((f.nodeIndex(from)*n+f.nodeIndex(to))*2+b2i(packer))*2 + b2i(viaHost)
	hops := f.routes[key]
	if hops == nil {
		hops = f.buildPath(from, to, packer, viaHost)
		f.routes[key] = hops
	}
	return hops, WireBytesFor(useful, packed), nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// buildPath builds the hop sequence between two distinct endpoints; packer
// puts the source switch's Data Packer first.
func (f *Fabric) buildPath(from, to NodeID, packer, viaHost bool) []Hop {
	var buf [10]Hop
	hops := buf[:0]
	link := func(p *sim.Pipe) { hops = append(hops, Hop{f: f, pipe: p, kind: hopLink}) }
	bus := func(s int32) { hops = append(hops, Hop{f: f, pipe: f.bus[s], kind: hopBus}) }
	if packer {
		sw := from.Switch
		if from.Kind == NodeHost {
			sw = to.Switch
		}
		hops = append(hops, Hop{f: f, pipe: f.packers[sw], kind: hopPacker})
	}

	// The Switch-Bus is traversed once per switch the message passes
	// through. A message entering and leaving the same switch (DIMM ->
	// sibling DIMM, DIMM -> own switch logic) crosses it once; cross-switch
	// traffic crosses the source's and the destination's bus.

	// The path climbs to the host for host endpoints, cross-switch traffic,
	// and forced coherence detours.
	needHost := viaHost || to.Kind == NodeHost || from.Kind == NodeHost ||
		from.Switch != to.Switch

	// Ascend from the source.
	cur := from
	if from.Kind == NodeDIMM {
		link(f.dimmLinks[from.Switch][from.Slot].up)
		bus(from.Switch)
		cur = Switch(int(from.Switch))
	}
	if needHost && cur.Kind == NodeSwitch {
		if from.Kind == NodeSwitch {
			// The switch logic routes onto its host port via the bus.
			bus(from.Switch)
		}
		link(f.hostLinks[cur.Switch].up)
		cur = Host()
	}
	if cur.Kind == NodeHost {
		if viaHost {
			hops = append(hops, Hop{f: f, extra: sim.Cycles(f.cfg.HostLatencyCycles), kind: hopLatency})
		}
		if to.Kind == NodeHost {
			return slices.Clone(hops)
		}
		link(f.hostLinks[to.Switch].down)
		bus(to.Switch)
		cur = Switch(int(to.Switch))
	}
	if to.Kind == NodeSwitch {
		return slices.Clone(hops)
	}
	// Descend to the DIMM. The source-side bus hop already covered in-switch
	// routing when the message stayed under one switch; a switch-logic
	// source still needs its single bus traversal.
	if from.Kind == NodeSwitch && !needHost {
		bus(to.Switch)
	}
	link(f.dimmLinks[to.Switch][to.Slot].down)
	return slices.Clone(hops)
}

func (f *Fabric) checkNode(n NodeID) error {
	switch n.Kind {
	case NodeHost:
		return nil
	case NodeSwitch:
		if n.Switch < 0 || int(n.Switch) >= f.cfg.Switches {
			return fmt.Errorf("cxl: switch %d out of range", n.Switch)
		}
		return nil
	case NodeDIMM:
		if n.Switch < 0 || int(n.Switch) >= f.cfg.Switches {
			return fmt.Errorf("cxl: switch %d out of range", n.Switch)
		}
		if n.Slot < 0 || int(n.Slot) >= f.cfg.DIMMsPerSwitch {
			return fmt.Errorf("cxl: slot %d out of range", n.Slot)
		}
		return nil
	}
	return fmt.Errorf("cxl: unknown node kind %d", n.Kind)
}

// Route delivers a message of `useful` payload bytes from one endpoint to
// another, reserving every hop synchronously, and returns the delivery
// time. Cross-switch traffic traverses the host links (the CXL tree has no
// switch-to-switch cables) but pays the host coherence turnaround only with
// viaHost, the naive coherence flow of Fig. 9 (a)/(c).
//
// Synchronous routing reserves downstream hops ahead of time; under load
// that blocks earlier-time traffic behind idle calendar holes. It is fine
// for tests and one-shot transfers; timed flows walk PathHops with a Cursor.
func (f *Fabric) Route(now sim.Cycle, from, to NodeID, useful int, packed, viaHost bool) (sim.Cycle, error) {
	hops, wire, err := f.PathHops(from, to, useful, packed, viaHost)
	if err != nil {
		return 0, err
	}
	t := now
	for _, h := range hops {
		t = h.Traverse(t, wire)
	}
	return t, nil
}
