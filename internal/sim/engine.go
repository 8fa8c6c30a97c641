// Package sim provides the discrete-event simulation kernel used by every
// timing model in this repository. Time advances in integer DRAM bus cycles;
// components post typed events (a Handler bound once plus an int32
// argument) or, on cold paths, schedule closures on a shared engine, and
// model contention with resource calendars (see resource.go).
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

// action is what an event runs: a closure (ScheduleAt, ScheduleAtOrNow)
// or a typed handler with its argument (Post).
type action struct {
	fn  func()
	h   Handler
	arg int32
}

func (a action) run() {
	if a.h != nil {
		a.h(a.arg)
		return
	}
	a.fn()
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
}

// NewEngine returns an engine with the clock at cycle 0 on the calendar
// queue (the reference heap when built with the beacon_heapref tag). It is
// the only constructor outside this package.
func NewEngine() *Engine { return newEngine(defaultScheduler()) }

// newEngine returns an engine over the given pending-event queue; the
// differential suite uses it to run the reference heap.
func newEngine(s scheduler) *Engine { return &Engine{sched: s} }

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

// ScheduleAt runs fn at absolute time at (>= Now). An event in the past is
// a model bug: it is rejected (dropped, never reordered onto the timeline)
// and recorded as an error that Run returns. Once an error has been
// recorded — a past-time violation or a MaxEvents abort — every subsequent
// event is rejected too: the timeline is already corrupt and must not keep
// growing.
func (e *Engine) ScheduleAt(at Cycle, fn func()) { e.schedule(at, action{fn: fn}) }

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
	e.schedule(max(at, e.now), action{h: h, arg: arg})
}

// schedule enqueues a at absolute time at, enforcing ScheduleAt's
// past-time and sticky-error rules.
func (e *Engine) schedule(at Cycle, a action) {
	e.mustInit()
	if e.err != nil {
		return
	}
	if at < e.now {
		e.err = fmt.Errorf("sim: schedule in the past: at=%d now=%d", at, e.now)
		return
	}
	e.sched.schedule(at, e.seq, a)
	e.seq++
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
		a.run()
	}
	return e.now, e.err
}
