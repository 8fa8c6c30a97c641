// Package sim provides the discrete-event simulation kernel used by every
// timing model in this repository. Time advances in integer DRAM bus cycles;
// components post typed events (a Handler bound once plus an int32
// argument) or, on cold paths, schedule closures on a shared engine, and
// model contention with resource calendars (see resource.go). Every
// pending event is a handler and its argument: a closure waits in the
// engine's side slab, and its event carries the slot's index to one
// handler the engine binds for closures, so a bucketed event is 24 bytes.
// A model that knows how many events it keeps pending reserves the queue
// for them once (Engine.Reserve).
//
// The kernel is deliberately small: a pending-event queue with deterministic
// tie-breaking, a clock, and a handful of queueing primitives. Determinism is
// a hard requirement — two runs with the same configuration and seed must
// produce identical cycle counts — so all iteration orders are defined and no
// map iteration ever reaches a scheduling decision.
//
// Two pending-event queues implement the contract (see scheduler.go): the
// calendar queue (calendar.go) that NewEngine builds and the reference
// binary heap (heap.go) kept for this package's differential suite. The
// suite proves them event-for-event identical.
package sim

import (
	"fmt"
)

// Cycle is a point in simulated time, measured in DRAM bus cycles (tCK).
// With DDR4-1600 (tCK = 1.25 ns) a Cycle corresponds to 1.25 ns.
type Cycle int64

// Cycles is a duration in DRAM bus cycles.
type Cycles = Cycle

const (
	// Never is a sentinel "unreachable" time.
	Never Cycle = 1<<62 - 1
)

// Handler is a typed event target. A model binds one per event kind once,
// typically a method value on machine-wide state, and posts events that
// carry only an int32 argument, typically the index of an in-flight record
// in the model's slab, so neither posting nor dispatching allocates.
type Handler func(arg int32)

// action is what an event runs: a typed handler with its argument. A
// closure event (ScheduleAt, ScheduleAtOrNow) runs the engine's closure
// handler on the index of the closure's side-slab slot.
type action struct {
	h   Handler
	arg int32
}

// Engine is a single-threaded discrete-event simulator over one timeline.
// The zero value is not usable; call NewEngine (use is enforced: scheduling
// on a zero-value Engine panics with a diagnostic rather than corrupting
// silently). An engine is single-use: Run drains it, and a later Run
// continues the same timeline from its final cycle.
type Engine struct {
	now   Cycle
	seq   uint64
	sched scheduler
	// Executed counts events that have run; useful for progress accounting
	// and runaway detection in tests.
	executed uint64
	// MaxEvents, when non-zero, aborts Run with an error after that many
	// events. It is a safety net against livelocked models.
	MaxEvents uint64
	// OnAdvance, when non-nil, is invoked each time the clock advances to a
	// new value, before that time's events run. It is an observation hook
	// (metrics sampling drives it); it must not schedule events or mutate
	// model state — the kernel's determinism contract assumes runs with and
	// without the hook are byte-identical.
	OnAdvance func(now Cycle)
	// err records the first violation (an event scheduled in the past, or a
	// MaxEvents livelock abort); Run surfaces it instead of executing on a
	// corrupted timeline, and every later schedule is rejected: the error
	// stays for the engine's lifetime.
	err error
	// fns is the closure side slab: fns[i] is the closure a pending
	// closure event with argument i runs; fnFree lists the free slots.
	// callFn, bound in newEngine, is the handler every closure event
	// carries.
	fns    []func()
	fnFree []int32
	callFn Handler
}

// NewEngine returns an engine with the clock at cycle 0 on the calendar
// queue (the reference heap when built with the beacon_heapref tag). It is
// the only constructor outside this package.
func NewEngine() *Engine { return newEngine(defaultScheduler()) }

// newEngine returns an engine over the given pending-event queue; the
// differential suite uses it to run the reference heap.
func newEngine(s scheduler) *Engine {
	e := &Engine{sched: s}
	e.callFn = e.runFn
	return e
}

// mustInit panics when the engine was not built by NewEngine.
func (e *Engine) mustInit() {
	if e.sched == nil {
		panic("sim: zero-value Engine is unusable; call NewEngine")
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Cycle { return e.now }

// Executed returns the number of events that have been dispatched.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of scheduled-but-not-yet-run events.
func (e *Engine) Pending() int {
	if e.sched == nil {
		return 0
	}
	return e.sched.len()
}

// Reserve gives the pending-event queue room for n events at once, so a
// run whose peak stays within n never regrows it. A model calls it once,
// before its first event, with its bound on the events it keeps pending;
// a peak past n still grows the queue.
func (e *Engine) Reserve(n int) {
	e.mustInit()
	e.sched.reserve(n)
}

// Slab reports the pending-event queue's storage: the most events it has
// held and the room it has for them. A peak past the room Reserve gave
// would have regrown it.
func (e *Engine) Slab() (peak, room int) {
	if e.sched == nil {
		return 0, 0
	}
	return e.sched.usage()
}

// ScheduleAt runs fn at absolute time at (>= Now). An event in the past is
// a model bug: it is rejected (dropped, never reordered onto the timeline,
// and fn is not kept) and recorded as an error that Run returns. Once an
// error has been recorded — a past-time violation or a MaxEvents abort —
// every subsequent event is rejected too: the timeline is already corrupt
// and must not keep growing.
func (e *Engine) ScheduleAt(at Cycle, fn func()) {
	if e.admit(at) {
		e.push(at, e.callFn, e.keepFn(fn))
	}
}

// ScheduleAtOrNow runs fn at absolute time at, or at Now when at has
// already passed. It is Post for cold paths that need a closure.
func (e *Engine) ScheduleAtOrNow(at Cycle, fn func()) {
	e.ScheduleAt(max(at, e.now), fn)
}

// Post runs h(arg) at absolute time at, or at Now when at has already
// passed. The timing models route every multi-cycle phase boundary
// through it so that calendar reservations are made in (near) time order:
// reserving a far-future slot from an early event would block
// earlier-time requests behind it and destroy the queues'
// work-conserving behaviour. Posted and scheduled events share one
// timeline and one (at, seq) order.
func (e *Engine) Post(at Cycle, h Handler, arg int32) {
	if at = max(at, e.now); e.admit(at) {
		e.push(at, h, arg)
	}
}

// admit enforces ScheduleAt's past-time and sticky-error rules on an event
// at absolute time at, reporting whether it may be enqueued.
func (e *Engine) admit(at Cycle) bool {
	e.mustInit()
	if e.err != nil {
		return false
	}
	if at < e.now {
		e.err = fmt.Errorf("sim: schedule in the past: at=%d now=%d", at, e.now)
		return false
	}
	return true
}

// push enqueues h(arg) at absolute time at, next in seq order.
func (e *Engine) push(at Cycle, h Handler, arg int32) {
	e.sched.schedule(at, e.seq, action{h: h, arg: arg})
	e.seq++
}

// keepFn stores fn in a free side-slab slot and returns its index.
func (e *Engine) keepFn(fn func()) int32 {
	if n := len(e.fnFree); n > 0 {
		i := e.fnFree[n-1]
		e.fnFree = e.fnFree[:n-1]
		e.fns[i] = fn
		return i
	}
	e.fns = append(e.fns, fn)
	return int32(len(e.fns) - 1)
}

// runFn is the closure handler: it frees side-slab slot i, so fn can
// schedule into it, and runs the closure it held.
func (e *Engine) runFn(i int32) {
	fn := e.fns[i]
	e.fns[i] = nil
	e.fnFree = append(e.fnFree, i)
	fn()
}

// Run drains the pending-event queue until it is empty, returning the final
// time. Each event that begins a new cycle advances the clock and fires
// OnAdvance first. If MaxEvents is exceeded, Run returns an error
// describing the livelock; a past-time scheduling violation (see
// ScheduleAt) also aborts the run. Events scheduled after Run returns
// continue the same timeline, and a later Run drains them.
func (e *Engine) Run() (Cycle, error) {
	e.mustInit()
	for e.err == nil && e.sched.len() > 0 {
		at, a, _ := e.sched.pop()
		if at != e.now {
			if e.OnAdvance != nil {
				e.OnAdvance(at)
			}
			e.now = at
		}
		e.executed++
		if e.MaxEvents != 0 && e.executed > e.MaxEvents {
			e.err = fmt.Errorf("sim: exceeded MaxEvents=%d at cycle %d (livelock?)", e.MaxEvents, e.now)
			break
		}
		a.h(a.arg)
	}
	return e.now, e.err
}
