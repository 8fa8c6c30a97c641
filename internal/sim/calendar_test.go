package sim

import "testing"

// slabChurn is a standing population of self-rescheduling events. Each
// hop draws its stride from rng: a quarter are same-cycle reschedules
// (appended to the batch being dispatched), most are short in-window hops,
// and every 32nd overshoots the wheel into the overflow tier, to migrate
// back as the window slides. Every other hop is a handler event, so
// closure and typed events share the buckets. visit, when non-nil, runs
// after every schedule. The hop closure and handler are built once, so a
// run allocates nothing of its own.
type slabChurn struct {
	e         *Engine
	rng       *RNG
	remaining int
	visit     func(stride Cycles)
	hop       func()
	fire      Handler
}

func newSlabChurn(e *Engine, rng *RNG, visit func(stride Cycles)) *slabChurn {
	c := &slabChurn{e: e, rng: rng, visit: visit}
	c.hop = c.step
	c.fire = func(int32) { c.step() }
	return c
}

// start schedules `actors` events that between them dispatch `events` hops.
func (c *slabChurn) start(actors, events int) {
	c.remaining = events
	for i := 0; i < actors; i++ {
		c.e.ScheduleAt(c.e.Now()+Cycles(c.rng.Intn(512)), c.hop)
	}
}

func (c *slabChurn) step() {
	if c.remaining == 0 {
		return
	}
	c.remaining--
	var stride Cycles
	switch r := c.rng.Intn(32); {
	case r == 0:
		stride = calWindow + Cycles(c.rng.Intn(4*int(calWindow)))
	case r < 8:
		stride = 0
	default:
		stride = Cycles(1 + c.rng.Intn(3000))
	}
	if c.remaining%2 == 0 {
		c.e.Post(c.e.Now()+stride, c.fire, 0)
	} else {
		c.e.ScheduleAt(c.e.Now()+stride, c.hop)
	}
	if c.visit != nil {
		c.visit(stride)
	}
}

// TestCalendarSlabTracksPeakPending checks that the calendar's one event
// slab never holds more slots than the peak number of pending events:
// dispatched slots are reused before the slab grows, across many wheel
// wraps, same-cycle reschedules mid-batch and overflow migration. It also
// checks every dispatch time against the reference heap on the same
// workload.
func TestCalendarSlabTracksPeakPending(t *testing.T) {
	const actors, events = 300, 150_000
	run := func(newQueue func() scheduler, check bool) []Cycle {
		e := newEngine(newQueue())
		cal, _ := e.sched.(*calendarScheduler)
		var order []Cycle
		peak, sameCycle, far := 0, 0, 0
		newSlabChurn(e, NewRNG(0x51AB), func(stride Cycles) {
			order = append(order, e.Now())
			if !check {
				return
			}
			peak = max(peak, e.Pending())
			if n := len(cal.slab); n > peak {
				t.Fatalf("at cycle %d: slab holds %d slots, peak pending is %d", e.Now(), n, peak)
			}
			switch {
			case stride == 0:
				sameCycle++
			case stride >= calWindow:
				far++
			}
		}).start(actors, events)
		end, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if check {
			if wraps := end / calWindow; wraps < 100 {
				t.Errorf("run ended at cycle %d: only %d window wraps", end, wraps)
			}
			if sameCycle == 0 || far == 0 {
				t.Errorf("workload lacks same-cycle (%d) or overflow (%d) schedules", sameCycle, far)
			}
			if len(cal.slab) > actors {
				t.Errorf("slab grew to %d slots for %d standing events", len(cal.slab), actors)
			}
		}
		return order
	}
	cal := run(calendarQueue, true)
	ref := run(heapQueue, false)
	if len(cal) != len(ref) {
		t.Fatalf("calendar dispatched %d events, heap %d", len(cal), len(ref))
	}
	for i := range cal {
		if cal[i] != ref[i] {
			t.Fatalf("dispatch %d at cycle %d on the calendar, %d on the heap", i, cal[i], ref[i])
		}
	}
}

// TestCalendarSteadyStateAllocFree checks that a warmed-up engine dispatches
// a full churn run — closure and handler events, wheel wraps, same-cycle
// batches, overflow round trips — without a single heap allocation: slots,
// bucket lists and the overflow heap all reuse the capacity earlier runs
// on the same timeline grew.
func TestCalendarSteadyStateAllocFree(t *testing.T) {
	e := newEngine(calendarQueue())
	c := newSlabChurn(e, NewRNG(0xF4EE), nil)
	churn := func() {
		c.start(256, 20_000)
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	churn() // warm-up: grow the slab and overflow heap to their peaks
	if allocs := testing.AllocsPerRun(10, churn); allocs != 0 {
		t.Errorf("steady-state churn run allocates %.1f times, want 0", allocs)
	}
}
