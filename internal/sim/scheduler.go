package sim

// scheduler is the pending-event priority queue behind the Engine. Events
// are totally ordered by (at, seq): earlier times first, insertion order
// within a time. The Engine owns seq assignment and past-time rejection;
// a scheduler only ever sees events with monotonically increasing seq and
// at >= the time of the last popped event.
//
// Two implementations exist:
//
//   - heapScheduler (heap.go) is the original binary heap. It is the
//     reference implementation: small, obviously correct, O(log n) per
//     operation, one allocation per event.
//   - calendarScheduler (calendar.go) is a bucketed timing wheel with a
//     heap overflow tier for far-future events. Bucketed events share one
//     slab, each bucket a linked list through it, with dispatched slots
//     reused from a free list. It dispatches same-cycle batches in O(1)
//     per event with zero steady-state allocations and is what NewEngine
//     builds.
//
// The queue is a private detail of this package: no option, field or flag
// outside it selects one. The differential suite (differential_test.go,
// FuzzSchedulerEquivalence) reaches the heap through newEngine and pins the
// two to identical dispatch sequences on arbitrary workloads. For a
// whole-stack cross-check, building with the beacon_heapref tag makes
// NewEngine return the heap instead (see queue_default.go and
// queue_heapref.go); reports must stay byte-identical.
type scheduler interface {
	// schedule inserts an event. seq values arrive strictly increasing.
	schedule(at Cycle, seq uint64, a action)
	// pop removes and returns the earliest pending event.
	pop() (Cycle, action, bool)
	// len returns the number of pending events.
	len() int
	// reserve gives the queue room for n pending events; a peak past it
	// still grows the queue.
	reserve(n int)
	// usage returns the most events the queue's storage has held and its
	// capacity.
	usage() (peak, room int)
}
