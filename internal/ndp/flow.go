package ndp

import (
	"beacon/internal/cxl"
	"beacon/internal/memmgmt"
	"beacon/internal/sim"
	"beacon/internal/trace"
)

// End names a flow endpoint relative to the piece being served.
type End uint8

// Flow endpoints.
const (
	Home         End = iota // the compute node that issued the step (the host after a fallback)
	Target                  // the DIMM holding the piece
	TargetSwitch            // the switch above the target DIMM
)

// Size names a message's payload relative to the piece being served.
type Size uint8

// Message sizes.
const (
	Req     Size = iota // a command header
	ReqData             // a command header carrying the piece's data
	Data                // the piece's data
	Ack                 // a completion token
)

type phaseKind uint8

const (
	phaseRoute phaseKind = iota
	phaseRead
	phaseWrite
	phaseAtomic
)

// Phase is one step of a flow: a message between two endpoints, a DRAM
// access of the piece, or the RMW arithmetic at an endpoint.
type Phase struct {
	kind     phaseKind
	from, to End
	size     Size
}

// Route carries a message of the given size from one endpoint to another.
func Route(from, to End, size Size) Phase {
	return Phase{kind: phaseRoute, from: from, to: to, size: size}
}

// Atomic performs the RMW arithmetic at an endpoint.
func Atomic(at End) Phase { return Phase{kind: phaseAtomic, to: at} }

// DRAMRead and DRAMWrite access the piece in its DIMM.
var (
	DRAMRead  = Phase{kind: phaseRead}
	DRAMWrite = Phase{kind: phaseWrite}
)

// Flow is the static phase table one placed piece walks.
type Flow []Phase

// Flows is a machine's flow tables, indexed by operation: Local for pieces
// in the home's own DIMM, Remote for the rest.
type Flows struct {
	Local, Remote [trace.OpAtomicRMW + 1]Flow
}

// Walker walks a machine's flows. The machine supplies its tables, its
// message sizes and three primitives; the walker alone decides which phase
// boundaries become engine events, so calendar reservations stay in time
// order. A route walks its hops with cxl.Walk; a route between equal
// endpoints skips Path and counts no message. After a DRAM or atomic
// phase, an atomic phase or the end of the flow runs inline, any other
// phase in a new event at the completion time.
type Walker struct {
	Engine *sim.Engine
	Flows  Flows
	// ReqBytes and AckBytes size the Req and Ack messages.
	ReqBytes, AckBytes int
	// Path returns the hops a message of useful payload bytes takes between
	// two distinct endpoints and the wire bytes it occupies per hop.
	Path func(from, to cxl.NodeID, useful int) ([]cxl.Hop, int, error)
	// Access performs one DRAM access of a piece starting at now and
	// returns its completion time.
	Access func(now sim.Cycle, pa memmgmt.PlacedAccess, write bool) (sim.Cycle, error)
	// Retry, when non-nil, is asked after a failed Access whether to
	// re-issue it, and after what backoff; tries counts earlier retries. A
	// retry runs in an event at the end of the backoff.
	Retry func(now sim.Cycle, err error, tries int) (sim.Cycles, bool)
	// Atomic performs the RMW arithmetic at node at, starting at now, and
	// returns its completion time. local reports that the piece lies in
	// the home's own DIMM.
	Atomic func(now sim.Cycle, at cxl.NodeID, local bool) sim.Cycle
}

// walk is one placed piece in flight through its flow.
type walk struct {
	w    *Walker
	flow Flow
	home cxl.NodeID
	pa   memmgmt.PlacedAccess
	fail func(error)
	cont func(sim.Cycle)
}

// Walk serves one placed piece of an op issued by home at now: it walks the
// piece's flow and calls cont with the time the data (or acknowledgement)
// is back at home, or fail on an error, never both.
func (w *Walker) Walk(now sim.Cycle, home cxl.NodeID, pa memmgmt.PlacedAccess, op trace.Op,
	fail func(error), cont func(sim.Cycle)) {
	flow := w.Flows.Remote[op]
	if pa.Node == home {
		flow = w.Flows.Local[op]
	}
	k := &walk{w: w, flow: flow, home: home, pa: pa, fail: fail, cont: cont}
	k.run(0, now)
}

// run starts phase i at t.
func (k *walk) run(i int, t sim.Cycle) {
	if i == len(k.flow) {
		k.cont(t)
		return
	}
	ph := k.flow[i]
	switch ph.kind {
	case phaseRoute:
		from, to := k.node(ph.from), k.node(ph.to)
		if from == to {
			k.run(i+1, t)
			return
		}
		hops, wire, err := k.w.Path(from, to, k.bytes(ph.size))
		if err != nil {
			k.fail(err)
			return
		}
		cxl.Walk(k.w.Engine, hops, wire, t, func(d sim.Cycle) { k.run(i+1, d) })
	case phaseRead, phaseWrite:
		k.access(i, t, 0)
	case phaseAtomic:
		k.after(i+1, k.w.Atomic(t, k.node(ph.to), k.pa.Node == k.home))
	}
}

// access performs DRAM phase i at t, re-issuing it after the Retry hook's
// backoff while the hook allows.
func (k *walk) access(i int, t sim.Cycle, tries int) {
	done, err := k.w.Access(t, k.pa, k.flow[i].kind == phaseWrite)
	if err == nil {
		k.after(i+1, done)
		return
	}
	if k.w.Retry != nil {
		if backoff, ok := k.w.Retry(t, err, tries); ok {
			eng := k.w.Engine
			eng.ScheduleAtOrNow(t+backoff, func() { k.access(i, eng.Now(), tries+1) })
			return
		}
	}
	k.fail(err)
}

// after starts phase i at t, the completion of a DRAM or atomic phase.
func (k *walk) after(i int, t sim.Cycle) {
	if i == len(k.flow) || k.flow[i].kind == phaseAtomic {
		k.run(i, t)
		return
	}
	k.w.Engine.ScheduleAtOrNow(t, func() { k.run(i, t) })
}

// node resolves a symbolic endpoint.
func (k *walk) node(e End) cxl.NodeID {
	return [...]cxl.NodeID{Home: k.home, Target: k.pa.Node, TargetSwitch: cxl.Switch(k.pa.Node.Switch)}[e]
}

// bytes resolves a symbolic message size.
func (k *walk) bytes(s Size) int {
	return [...]int{Req: k.w.ReqBytes, ReqData: k.w.ReqBytes + k.pa.Bytes, Data: k.pa.Bytes, Ack: k.w.AckBytes}[s]
}
