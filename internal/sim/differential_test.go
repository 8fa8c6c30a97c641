package sim

// Differential scheduler-equivalence suite.
//
// The calendar queue replaced the binary heap as the Engine's pending-event
// queue; the heap stays compiled in as the reference implementation,
// reached through the unexported newEngine. This file drives both through
// identical scripted workloads — same-cycle ties, re-entrant scheduling
// from inside events, schedules that resume a drained timeline, MaxEvents
// aborts, past-schedule violations and far-future (overflow-tier) events —
// and asserts the full observable record is identical:
// dispatch order, OnAdvance timestamps, clock values, counters, and errors.
//
// The same interpreter backs FuzzSchedulerEquivalence (fuzz_test.go), so
// every fuzz input is a differential test too.

import (
	"fmt"
	"strings"
	"testing"
)

// The two pending-event queues under test.
var (
	heapQueue     = func() scheduler { return &heapScheduler{} }
	calendarQueue = func() scheduler { return newCalendarScheduler() }
)

// runScript interprets a byte-encoded scheduling workload on a fresh engine
// over the queue newQueue builds and returns the full observable record.
// The interpretation is a pure function of (queue, script); the
// differential suite asserts the record is independent of the queue.
//
// Script encoding: a sequence of instructions, each an opcode byte (mod 11)
// followed by up to two u16 little-endian operands (missing bytes read as
// zero; interpretation stops when the script is exhausted):
//
//	0: schedule one event after (a % 3000) cycles
//	1: schedule one event at now + a*17 cycles (reaches the overflow tier)
//	2: schedule (b%4 + 1) events all after (a % 500) cycles (same-cycle ties)
//	3: schedule a re-entrant chain: the event reschedules itself b%3 times
//	   at (a % 200) cycle strides, logging each hop
//	4: schedule an event that commits a past-schedule violation when it runs
//	5: Run() — drain; later instructions continue the same timeline
//	6: MaxEvents = Executed() + a%64 + 1 (tight livelock bound)
//	7: schedule one event at Never
//	8: post one handler event at now + (a % 3000) - 1000 (a past time
//	   runs at now)
//	9: on one cycle (a % 500 ahead), alternate (b%4 + 1) closure events
//	   with as many handler events
//	10: post a re-entrant handler chain: the handler re-posts itself b%3
//	    times at (a % 200) cycle strides, logging each hop
//
// Handler events go through two handlers bound once per script, the way a
// timing model binds one per event kind, and carry the record index as
// their argument.
func runScript(newQueue func() scheduler, script []byte) []string {
	var log []string
	e := newEngine(newQueue())
	e.OnAdvance = func(now Cycle) {
		log = append(log, fmt.Sprintf("adv@%d", now))
	}

	pos := 0
	next := func() (byte, bool) {
		if pos >= len(script) {
			return 0, false
		}
		b := script[pos]
		pos++
		return b, true
	}
	operand := func() uint16 {
		lo, _ := next()
		hi, _ := next()
		return uint16(lo) | uint16(hi)<<8
	}

	nextID := 0
	mkEvent := func() func() {
		id := nextID
		nextID++
		return func() {
			log = append(log, fmt.Sprintf("ev#%d@%d", id, e.Now()))
		}
	}
	logHandler := Handler(func(id int32) {
		log = append(log, fmt.Sprintf("h#%d@%d", id, e.Now()))
	})
	// chains is the handler chains' record slab: each record's id,
	// stride and hops left.
	type chainRec struct {
		id        int
		stride    Cycles
		remaining int
	}
	var chains []chainRec
	var chainHandler Handler
	chainHandler = func(i int32) {
		c := &chains[i]
		log = append(log, fmt.Sprintf("hchain#%d[%d]@%d", c.id, c.remaining, e.Now()))
		if c.remaining > 0 {
			c.remaining--
			e.Post(e.Now()+c.stride, chainHandler, i)
		}
	}
	post := func(at Cycle) {
		e.Post(at, logHandler, int32(nextID))
		nextID++
	}

	for {
		op, ok := next()
		if !ok {
			break
		}
		switch op % 11 {
		case 0:
			e.ScheduleAt(e.Now()+Cycles(operand()%3000), mkEvent())
		case 1:
			e.ScheduleAt(e.Now()+Cycle(operand())*17, mkEvent())
		case 2:
			d := Cycles(operand() % 500)
			n := int(operand()%4) + 1
			for i := 0; i < n; i++ {
				e.ScheduleAt(e.Now()+d, mkEvent())
			}
		case 3:
			stride := Cycles(operand() % 200)
			hops := int(operand() % 3)
			id := nextID
			nextID++
			var chain func(remaining int) func()
			chain = func(remaining int) func() {
				return func() {
					log = append(log, fmt.Sprintf("chain#%d[%d]@%d", id, remaining, e.Now()))
					if remaining > 0 {
						e.ScheduleAt(e.Now()+stride, chain(remaining-1))
					}
				}
			}
			e.ScheduleAt(e.Now()+stride, chain(hops))
		case 4:
			d := Cycles(operand() % 300)
			id := nextID
			nextID++
			e.ScheduleAt(e.Now()+d, func() {
				log = append(log, fmt.Sprintf("violate#%d@%d", id, e.Now()))
				e.ScheduleAt(e.Now()-1, func() {
					log = append(log, "PAST EVENT RAN (must never appear)")
				})
			})
		case 5:
			now, err := e.Run()
			log = append(log, fmt.Sprintf("run now=%d executed=%d pending=%d err=%v", now, e.Executed(), e.Pending(), err))
		case 6:
			e.MaxEvents = e.Executed() + uint64(operand()%64) + 1
			log = append(log, fmt.Sprintf("maxevents=%d", e.MaxEvents))
		case 7:
			e.ScheduleAt(Never, mkEvent())
		case 8:
			post(e.Now() + Cycle(operand()%3000) - 1000)
		case 9:
			at := e.Now() + Cycle(operand()%500)
			n := int(operand()%4) + 1
			for i := 0; i < n; i++ {
				e.ScheduleAt(at, mkEvent())
				post(at)
			}
		case 10:
			stride := Cycles(operand() % 200)
			chains = append(chains, chainRec{id: nextID, stride: stride, remaining: int(operand() % 3)})
			nextID++
			e.Post(e.Now()+stride, chainHandler, int32(len(chains)-1))
		}
	}
	now, err := e.Run()
	log = append(log, fmt.Sprintf("final now=%d executed=%d pending=%d err=%v", now, e.Executed(), e.Pending(), err))
	return log
}

// diffSchedulers runs the script under both schedulers and returns the two
// records plus the first line where they diverge (-1 when identical).
func diffSchedulers(script []byte) (heap, cal []string, divergence int) {
	heap = runScript(heapQueue, script)
	cal = runScript(calendarQueue, script)
	n := len(heap)
	if len(cal) < n {
		n = len(cal)
	}
	for i := 0; i < n; i++ {
		if heap[i] != cal[i] {
			return heap, cal, i
		}
	}
	if len(heap) != len(cal) {
		return heap, cal, n
	}
	return heap, cal, -1
}

func assertEquivalent(t *testing.T, script []byte) {
	t.Helper()
	heap, cal, div := diffSchedulers(script)
	if div < 0 {
		return
	}
	line := func(log []string, i int) string {
		if i < len(log) {
			return log[i]
		}
		return "<log ended>"
	}
	t.Fatalf("schedulers diverge at record %d:\n  heap:     %s\n  calendar: %s\nscript=%x\nheap log:\n%s\ncalendar log:\n%s",
		div, line(heap, div), line(cal, div), script,
		strings.Join(heap, "\n"), strings.Join(cal, "\n"))
}

// op builds one instruction: opcode plus little-endian u16 operands.
func op(code byte, operands ...uint16) []byte {
	out := []byte{code}
	for _, v := range operands {
		out = append(out, byte(v), byte(v>>8))
	}
	return out
}

func script(instrs ...[]byte) []byte {
	var out []byte
	for _, in := range instrs {
		out = append(out, in...)
	}
	return out
}

// scriptedCases are the hand-written differential scenarios. They double as
// the fuzz seed corpus: TestFuzzCorpusSeeded pins each one to a committed
// corpus file so CI's fuzz job starts from exactly these workloads.
var scriptedCases = []struct {
	name   string
	script []byte
}{
	{"empty", nil},
	{"single_event", script(op(0, 100))},
	{"same_cycle_ties", script(
		op(2, 50, 3), // 4 events at +50
		op(0, 50),    // a 5th at the same cycle
		op(2, 50, 2), // 3 more
	)},
	{"zero_delay_storm", script(op(2, 0, 3), op(2, 0, 3), op(0, 0))},
	{"reentrant_chains", script(
		op(3, 40, 2),
		op(3, 40, 2), // same strides: chains interleave at shared cycles
		op(3, 7, 1),
		op(0, 40),
	)},
	{"run_resume_boundaries", script(
		op(0, 10), op(0, 20), op(0, 20),
		op(5),       // drain: the run ends on a tie cycle
		op(0, 0),    // schedule onto that closed batch's cycle
		op(2, 0, 1), // two more ties there
		op(0, 25),   // and one from the resume point
		op(5),
		op(0, 2999), // a second resume, near the window's edge
	)},
	{"run_continues_drained_timeline", script(
		op(0, 5),
		op(5),      // queue drains at cycle 5
		op(0, 100), // continue the timeline from the final cycle
	)},
	{"overflow_tier", script(
		op(1, 1000), // +17000: beyond the calendar window
		op(1, 3000), // +51000
		op(0, 100),  // near event dispatches first
		op(1, 1000), // duplicate far cycle: overflow tie
	)},
	{"overflow_migrates_into_window", script(
		op(1, 600), // +10200: just past the 8192-cycle window
		op(0, 2900),
		op(0, 2900), // near events pull the window forward past the far one
	)},
	{"never_sentinel", script(op(7), op(0, 10), op(5))},
	{"maxevents_abort", script(
		op(6, 3),     // allow 4 more events
		op(2, 10, 3), // 4 events at +10
		op(2, 20, 3), // 4 more at +20: the run aborts mid-way
		op(5),
		op(0, 5), // rejected: error is sticky
	)},
	{"past_schedule_violation", script(
		op(0, 10),
		op(4, 50), // violates at cycle 50
		op(0, 90), // never runs: violation aborts and rejects
		op(5),
	)},
	{"resume_after_overflow_drain", script(
		op(1, 1000), op(5), // drain through the overflow tier to 17000
		op(0, 10),  // a near event on the slid window
		op(1, 600), // and one past its far edge
		op(5),
	)},
	{"violation_sticky_across_runs", script(
		op(4, 20), op(5), // violation recorded
		op(0, 15), op(5), // rejected; the second run reports it again
	)},
	{"drain_with_every_tier_pending", script(
		op(0, 100), op(1, 2000), op(2, 25, 2), // bucketed and overflow pending
		op(5),
		op(1, 2000), op(0, 25), op(7), // overflow, bucketed and Never pending
	)},
	{"handler_events", script(
		op(8, 1100), // +100
		op(0, 100),  // a closure event on the same cycle, after it
		op(8, 400),  // in the past: runs at now
		op(8, 2999), // +1999
	)},
	{"handlers_mixed_with_closures_on_one_cycle", script(
		op(9, 40, 3), // 4 closure + 4 handler events, alternating, at +40
		op(2, 40, 1), // 2 more closure events at +40
		op(9, 40, 0), // one more pair
	)},
	{"reentrant_handler_chains", script(
		op(10, 30, 2),
		op(3, 30, 2), // a closure chain on the same strides interleaves
		op(10, 30, 2),
		op(10, 0, 2), // zero stride: re-posts onto the batch being dispatched
		op(5),        // drain, then resume with a post from the final cycle
		op(8, 1000),
	)},
	{"handler_events_across_abort", script(
		op(10, 10, 2), op(9, 5, 1),
		op(6, 2), // allow 3 more events: aborts mid-chain
		op(5),
		op(10, 20, 1), op(8, 1000), // rejected: the error is sticky
	)},
	{"mixed_stress", script(
		op(2, 100, 3), op(3, 33, 2), op(1, 700), op(0, 0),
		op(5),
		op(2, 100, 1), op(3, 5, 2),
		op(5),
		op(6, 40),
		op(1, 200), op(2, 60, 3), op(0, 4), op(7),
		op(5),
	)},
}

// TestSchedulerEquivalenceScripted drives both schedulers through each
// hand-written scenario and requires identical observable records.
func TestSchedulerEquivalenceScripted(t *testing.T) {
	for _, tc := range scriptedCases {
		t.Run(tc.name, func(t *testing.T) {
			assertEquivalent(t, tc.script)
		})
	}
}

// TestSchedulerEquivalenceRandomized is the randomized property test: 500
// pseudo-random scripts (deterministically seeded — the suite itself obeys
// the repository's reproducibility contract) must produce identical records
// under both schedulers.
func TestSchedulerEquivalenceRandomized(t *testing.T) {
	const runs = 500
	for seed := uint64(0); seed < runs; seed++ {
		rng := NewRNG(seed)
		n := int(rng.Uint64()%120) + 1
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(rng.Uint64())
		}
		heapLog, calLog, div := diffSchedulers(buf)
		if div >= 0 {
			line := func(log []string) string {
				if div < len(log) {
					return log[div]
				}
				return "<log ended>"
			}
			t.Fatalf("seed %d: schedulers diverge at record %d:\n  heap:     %s\n  calendar: %s\nscript=%x",
				seed, div, line(heapLog), line(calLog), buf)
		}
	}
}

// TestSchedulerEquivalenceViolationNeverDispatches asserts that on every
// scripted case, neither scheduler ever executes a past-scheduled event.
func TestSchedulerEquivalenceViolationNeverDispatches(t *testing.T) {
	for _, tc := range scriptedCases {
		for _, q := range []struct {
			name  string
			queue func() scheduler
		}{{"heap", heapQueue}, {"calendar", calendarQueue}} {
			for _, line := range runScript(q.queue, tc.script) {
				if strings.Contains(line, "must never appear") {
					t.Errorf("%s/%s executed a past-scheduled event", tc.name, q.name)
				}
			}
		}
	}
}
