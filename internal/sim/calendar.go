package sim

import (
	"fmt"
	"math/bits"
)

// Calendar-queue scheduler: a bucketed timing wheel over the near future
// with a binary-heap overflow tier for far-future events.
//
// Simulated workloads schedule almost every event within a few thousand
// cycles of the present (link hops, DRAM timings, PE step latencies), so
// the wheel covers a window of calWindow cycles starting at the dispatch
// cursor. An event inside the window lands in the bucket for its exact
// cycle — one append, no comparisons — and events for one cycle dispatch
// as a batch by walking the bucket. Events beyond the window wait in a
// value min-heap and migrate into buckets as the window slides forward.
//
// Event storage is flat: every bucketed event lives in one slab of
// calSlot values, each bucket is a singly linked FIFO list through the
// slots' 1-based next indexes (head/tail per bucket), and dispatched slots
// go on a free list for the next schedule to reuse. The slab therefore
// grows only to the peak number of bucketed events and scheduling
// allocates nothing at steady state; the overflow tier is a value heap in
// its own reusable slice, so there is no per-event heap node either.
//
// Ordering invariants, maintained jointly with the Engine:
//
//   - cur is the cycle of the most recently dispatched batch; the Engine's
//     clock equals or exceeds it, so no future schedule can target an
//     earlier cycle (past-time schedules are rejected before they reach the
//     scheduler). cur therefore only advances in pop, when a new batch
//     actually begins.
//   - every bucketed event has at in [cur, horizon); every overflow event
//     has at >= horizon; and horizon <= cur + calWindow, so two bucketed
//     events can only share a bucket index by having the same cycle.
//   - within a bucket, events appear in seq order: direct schedules append
//     in arrival (= seq) order, and overflow migration happens in (at, seq)
//     heap order into buckets that cannot hold any directly scheduled event
//     yet — while an event waits in overflow, its cycle is at or beyond
//     horizon, so a same-cycle direct schedule would land in overflow too.
const (
	calBits = 13
	// calWindow is the wheel span in cycles (8192 ≈ 10 µs of simulated
	// time at DDR4-1600); one bucket per cycle.
	calWindow = Cycle(1) << calBits
	calMask   = calWindow - 1
)

// calEvent is one pending event in the overflow heap.
type calEvent struct {
	at  Cycle
	seq uint64
	act action
}

// calSlot is one bucketed event, its action flattened so the slot packs
// into 32 bytes. Buckets keep seq order by list position, so the slot
// needs no seq; next is the 1-based slab index of the following event in
// the same bucket (or on the free list), 0 ending it.
type calSlot struct {
	at   Cycle
	fn   func()
	h    Handler
	arg  int32
	next int32
}

// calList is one bucket: 1-based slab indexes of its first and last
// events, 0 when empty.
type calList struct {
	head, tail int32
}

type calendarScheduler struct {
	// slab stores every bucketed event; free heads the list of slots
	// released by pop (1-based, 0 = none).
	slab []calSlot
	free int32
	// buckets[i] lists the events for the unique in-window cycle with
	// cycle&calMask == i, in seq order.
	buckets []calList
	// occ is the bucket-occupancy bitmap (1 bit per bucket); it lets the
	// head scan skip 64 empty cycles per word.
	occ []uint64
	// inWindow counts events currently bucketed.
	inWindow int
	// cur is the cycle of the batch currently (or last) dispatched.
	cur Cycle
	// open is true while cur's batch is being dispatched.
	open bool
	// horizon is the bucket/overflow boundary (see the invariants above).
	horizon Cycle
	// overflow holds events at or beyond horizon, ordered by (at, seq).
	overflow []calEvent
}

func newCalendarScheduler() *calendarScheduler {
	return &calendarScheduler{
		buckets: make([]calList, calWindow),
		occ:     make([]uint64, calWindow/64),
		horizon: calWindow,
	}
}

func (c *calendarScheduler) schedule(at Cycle, seq uint64, a action) {
	if at < c.horizon {
		c.bucket(at, a)
	} else {
		c.overflowPush(calEvent{at: at, seq: seq, act: a})
	}
}

// bucket appends a window event to the tail of its cycle's bucket, in a
// free slot when one is left over from a dispatched event.
func (c *calendarScheduler) bucket(at Cycle, a action) {
	slot := calSlot{at: at, fn: a.fn, h: a.h, arg: a.arg}
	idx := c.free
	if idx != 0 {
		c.free = c.slab[idx-1].next
		c.slab[idx-1] = slot
	} else {
		c.slab = append(c.slab, slot)
		idx = int32(len(c.slab))
	}
	i := int(at & calMask)
	b := &c.buckets[i]
	if b.head == 0 {
		b.head = idx
		c.occ[i>>6] |= 1 << uint(i&63)
	} else {
		c.slab[b.tail-1].next = idx
	}
	b.tail = idx
	c.inWindow++
}

func (c *calendarScheduler) pop() (Cycle, action, bool) {
	at, ok := c.headTime()
	if !ok {
		return 0, action{}, false
	}
	if !c.open {
		// A new batch begins: commit the cursor to its cycle, slide the
		// window forward and migrate newly eligible overflow events before
		// reading the bucket. When the head itself came from overflow (the
		// window was empty past cur), this migration is what fills the
		// batch's bucket — in (at, seq) order, so the batch dispatches
		// complete and correctly ordered.
		c.cur = at
		c.open = true
		c.advanceHorizon()
	}
	b := &c.buckets[int(c.cur&calMask)]
	idx := b.head
	s := &c.slab[idx-1]
	if s.at != c.cur {
		panic(fmt.Sprintf("sim: calendar bucket corrupt: event at %d in bucket for cycle %d", s.at, c.cur))
	}
	a := action{fn: s.fn, h: s.h, arg: s.arg}
	b.head = s.next
	// Release the slot: dropping the fn pointer lets the closure be
	// collected while the slot waits on the free list.
	*s = calSlot{next: c.free}
	c.free = idx
	c.inWindow--
	return at, a, true
}

func (c *calendarScheduler) len() int { return c.inWindow + len(c.overflow) }

// headTime returns the earliest pending event time without committing the
// cursor. It closes a finished batch and otherwise scans the wheel, or
// reads the overflow head when the window is empty.
func (c *calendarScheduler) headTime() (Cycle, bool) {
	if c.open {
		i := int(c.cur & calMask)
		if c.buckets[i].head != 0 {
			return c.cur, true // mid-batch: the open bucket still has events
		}
		// Batch finished: mark the bucket empty. The cursor stays on cur —
		// the Engine may legally schedule at this very cycle again before
		// the clock moves.
		c.occ[i>>6] &^= 1 << uint(i&63)
		c.open = false
	}
	switch {
	case c.inWindow > 0:
		return c.cur + Cycle(c.scan(int(c.cur&calMask))), true
	case len(c.overflow) > 0:
		return c.overflow[0].at, true
	}
	return 0, false
}

// scan returns the distance (in cycles) from bucket index `from` to the
// next occupied bucket, wrapping around the wheel. The caller guarantees
// at least one bucket is occupied.
func (c *calendarScheduler) scan(from int) int {
	word, bit := from>>6, from&63
	if v := c.occ[word] >> uint(bit); v != 0 {
		return bits.TrailingZeros64(v)
	}
	mask := len(c.occ) - 1
	for i := 1; i <= len(c.occ); i++ {
		if v := c.occ[(word+i)&mask]; v != 0 {
			return i<<6 - bit + bits.TrailingZeros64(v)
		}
	}
	panic("sim: calendar scan over an empty window")
}

// advanceHorizon slides the bucket/overflow boundary up to cur+calWindow,
// migrating every overflow event that now falls inside the window. The
// migration happens in (at, seq) order, and any bucket it fills received
// no direct schedules while the migrated event waited (they would have
// been routed to overflow by the same horizon comparison), so per-bucket
// seq order is preserved.
func (c *calendarScheduler) advanceHorizon() {
	target := c.cur + calWindow
	if target <= c.horizon {
		return
	}
	c.horizon = target
	for len(c.overflow) > 0 && c.overflow[0].at < target {
		ev := c.overflowPop()
		c.bucket(ev.at, ev.act)
	}
}

// The overflow tier is a hand-rolled value min-heap ordered by (at, seq).
// container/heap would box every calEvent through its any-typed interface,
// allocating on exactly the far-future path the tier exists to absorb.

func calLess(a, b calEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (c *calendarScheduler) overflowPush(ev calEvent) {
	h := append(c.overflow, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !calLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	c.overflow = h
}

func (c *calendarScheduler) overflowPop() calEvent {
	h := c.overflow
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = calEvent{} // release the closure
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && calLess(h[l], h[min]) {
			min = l
		}
		if r < n && calLess(h[r], h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	c.overflow = h
	return top
}
