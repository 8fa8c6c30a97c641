package ndp

import (
	"fmt"
	"math"

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
// order. A route walks its hops with a cxl.Cursor; a route between equal
// endpoints skips Path and counts no message. After a DRAM or atomic
// phase, an atomic phase or the end of the flow runs inline, any other
// phase in a new event at the completion time.
//
// Every piece in flight is one record in the walker's slab, released when
// the piece finishes or fails and reused by the next Walk, and every
// phase boundary is a typed engine event carrying the record's index, so
// a warmed-up walker allocates nothing. A Walker is single-threaded, like
// its engine.
type Walker struct {
	Engine *sim.Engine
	Flows  Flows
	// ReqBytes and AckBytes size the Req and Ack messages.
	ReqBytes, AckBytes int
	// Path returns the hops a message of useful payload bytes takes between
	// two distinct endpoints and the wire bytes it occupies per hop. The
	// walker only reads the hops.
	Path func(from, to cxl.NodeID, useful int) ([]cxl.Hop, int, error)
	// Access performs one DRAM access of a piece starting at now and
	// returns its completion time.
	Access func(now sim.Cycle, pa memmgmt.PlacedAccess, write bool) (sim.Cycle, error)
	// Retry, when non-nil, is asked after a failed Access whether to
	// re-issue it, and after what backoff; tries counts earlier retries,
	// up to 65,535. A retry runs in an event at the end of the backoff.
	Retry func(now sim.Cycle, err error, tries int) (sim.Cycles, bool)
	// Atomic performs the RMW arithmetic at node at, starting at now, and
	// returns its completion time. local reports that the piece lies in
	// the home's own DIMM.
	Atomic func(now sim.Cycle, at cxl.NodeID, local bool) sim.Cycle
	// Done receives a walked piece's tag and the time its data (or
	// acknowledgement) is back at home; Fail receives its tag and the
	// error that stopped it. Exactly one of them is called per Walk, after
	// the piece's record is released. NewReplay binds both.
	Done func(tag int32, t sim.Cycle)
	Fail func(tag int32, err error)

	// walks holds the pieces in flight.
	walks slab[walk]
	// The event handlers, bound on the first Walk: a hop delivered, a
	// phase due, a DRAM retry due.
	onHop, onPhase, onRetry sim.Handler
}

// walk is one placed piece in flight through its flow, the walker's table
// flow names (flowOf): phase i started at t, hops is its position on the
// current route, and tries counts the current DRAM phase's retries,
// saturating at 65,535. It is 96 bytes, one per piece in flight.
type walk struct {
	hops  cxl.Cursor
	t     sim.Cycle
	pa    memmgmt.PlacedAccess
	home  cxl.NodeID
	tag   int32
	flow  uint8
	i     uint8
	tries uint16
}

// numOps is the number of flows in each of Flows' tables. A walk's flow is
// its op in Local, or numOps past it in Remote.
const numOps = uint8(len(Flows{}.Local))

// flowOf returns the table flow f names.
func (w *Walker) flowOf(f uint8) Flow {
	if f >= numOps {
		return w.Flows.Remote[f-numOps]
	}
	return w.Flows.Local[f]
}

// Walk serves one placed piece of an op issued by home at now: it walks the
// piece's flow and reports tag to Done with the time the data (or
// acknowledgement) is back at home, or to Fail on an error, never both.
func (w *Walker) Walk(now sim.Cycle, home cxl.NodeID, pa memmgmt.PlacedAccess, op trace.Op, tag int32) {
	if w.onHop == nil {
		w.bind()
	}
	flow := uint8(op) + numOps
	if pa.Node == home {
		flow = uint8(op)
	}
	idx := w.walks.get()
	w.walks.recs[idx] = walk{home: home, pa: pa, tag: tag, flow: flow}
	w.run(idx, 0, now)
}

// bind binds the event handlers and checks that every flow's phase index
// fits a walk's uint8.
func (w *Walker) bind() {
	for f := range 2 * numOps {
		if n := len(w.flowOf(f)); n > math.MaxUint8 {
			panic(fmt.Sprintf("ndp: flow %d has %d phases, past the %d a walk can index", f, n, math.MaxUint8))
		}
	}
	w.onHop, w.onPhase, w.onRetry = w.hopDelivered, w.phaseDue, w.retryDue
}

// run starts phase i of record idx at t.
func (w *Walker) run(idx int32, i int, t sim.Cycle) {
	k := &w.walks.recs[idx]
	flow := w.flowOf(k.flow)
	if i == len(flow) {
		w.release(idx, t, nil)
		return
	}
	k.i, k.t = uint8(i), t
	ph := flow[i]
	switch ph.kind {
	case phaseRoute:
		from, to := k.node(ph.from), k.node(ph.to)
		if from == to {
			w.run(idx, i+1, t)
			return
		}
		hops, wire, err := w.Path(from, to, w.bytes(k, ph.size))
		if err == nil && wire > math.MaxInt32 {
			err = fmt.Errorf("ndp: %d wire bytes per hop past the int32 range", wire)
		}
		if err != nil {
			w.release(idx, t, err)
			return
		}
		k.hops = cxl.NewCursor(hops, int32(wire))
		w.hop(idx, t)
	case phaseRead, phaseWrite:
		k.tries = 0
		w.access(idx, t)
	case phaseAtomic:
		w.after(idx, i+1, w.Atomic(t, k.node(ph.to), k.pa.Node == k.home))
	}
}

// hop traverses record idx's next hop at t, the route's start or the
// previous hop's delivery, and continues in an event at its delivery; with
// no hop left the route has arrived and the next phase starts at t.
func (w *Walker) hop(idx int32, t sim.Cycle) {
	k := &w.walks.recs[idx]
	if d, ok := k.hops.Next(t); ok {
		k.t = d
		w.Engine.Post(d, w.onHop, idx)
		return
	}
	w.run(idx, int(k.i)+1, t)
}

// access performs record idx's DRAM phase at t, re-issuing it after the
// Retry hook's backoff while the hook allows.
func (w *Walker) access(idx int32, t sim.Cycle) {
	k := &w.walks.recs[idx]
	done, err := w.Access(t, k.pa, w.flowOf(k.flow)[k.i].kind == phaseWrite)
	if err == nil {
		w.after(idx, int(k.i)+1, done)
		return
	}
	if w.Retry != nil {
		if backoff, ok := w.Retry(t, err, int(k.tries)); ok {
			k.tries = min(k.tries+1, math.MaxUint16)
			w.Engine.Post(t+backoff, w.onRetry, idx)
			return
		}
	}
	w.release(idx, t, err)
}

// after starts phase i of record idx at t, the completion of a DRAM or
// atomic phase.
func (w *Walker) after(idx int32, i int, t sim.Cycle) {
	k := &w.walks.recs[idx]
	if flow := w.flowOf(k.flow); i == len(flow) || flow[i].kind == phaseAtomic {
		w.run(idx, i, t)
		return
	}
	k.i, k.t = uint8(i), t
	w.Engine.Post(t, w.onPhase, idx)
}

// The event handlers resume a record where it left off.
func (w *Walker) hopDelivered(idx int32) { w.hop(idx, w.walks.recs[idx].t) }
func (w *Walker) phaseDue(idx int32)     { w.run(idx, int(w.walks.recs[idx].i), w.walks.recs[idx].t) }
func (w *Walker) retryDue(idx int32)     { w.access(idx, w.Engine.Now()) }

// release frees record idx and reports its piece: done at t, or failed
// with err.
func (w *Walker) release(idx int32, t sim.Cycle, err error) {
	tag := w.walks.recs[idx].tag
	w.walks.put(idx)
	if err != nil {
		w.Fail(tag, err)
		return
	}
	w.Done(tag, t)
}

// node resolves a symbolic endpoint.
func (k *walk) node(e End) cxl.NodeID {
	return [...]cxl.NodeID{Home: k.home, Target: k.pa.Node, TargetSwitch: cxl.Switch(int(k.pa.Node.Switch))}[e]
}

// bytes resolves a symbolic message size.
func (w *Walker) bytes(k *walk, s Size) int {
	return [...]int{Req: w.ReqBytes, ReqData: w.ReqBytes + int(k.pa.Bytes), Data: int(k.pa.Bytes), Ack: w.AckBytes}[s]
}
