package sim

// Differential scheduler-equivalence suite.
//
// The calendar queue replaced the binary heap as the Engine's pending-event
// queue; the heap stays compiled in as the reference implementation,
// reached through the unexported newEngine. This file drives both through
// identical scripted workloads — same-cycle ties, re-entrant scheduling
// from inside events, RunUntil resume boundaries, MaxEvents aborts,
// past-schedule violations, far-future (overflow-tier) events, and Reset —
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
// Script encoding: a sequence of instructions, each an opcode byte (mod 13)
// followed by up to two u16 little-endian operands (missing bytes read as
// zero; interpretation stops when the script is exhausted):
//
//	0: schedule one event after (a % 3000) cycles
//	1: schedule one event at now + a*17 cycles (reaches the overflow tier)
//	2: schedule (b%4 + 1) events all after (a % 500) cycles (same-cycle ties)
//	3: schedule a re-entrant chain: the event reschedules itself b%3 times
//	   at (a % 200) cycle strides, logging each hop
//	4: schedule an event that commits a past-schedule violation when it runs
//	5: RunUntil(now + a % 5000)
//	6: Run() — drain
//	7: MaxEvents = Executed() + a%64 + 1 (tight livelock bound)
//	8: Reset()
//	9: schedule one event at Never
//	10: post one handler event at now + (a % 3000) - 1000 (a past time
//	    runs at now)
//	11: on one cycle (a % 500 ahead), alternate (b%4 + 1) closure events
//	    with as many handler events
//	12: post a re-entrant handler chain: the handler re-posts itself b%3
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
		switch op % 13 {
		case 0:
			e.Schedule(Cycles(operand()%3000), mkEvent())
		case 1:
			e.ScheduleAt(e.Now()+Cycle(operand())*17, mkEvent())
		case 2:
			d := Cycles(operand() % 500)
			n := int(operand()%4) + 1
			for i := 0; i < n; i++ {
				e.Schedule(d, mkEvent())
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
						e.Schedule(stride, chain(remaining-1))
					}
				}
			}
			e.Schedule(stride, chain(hops))
		case 4:
			d := Cycles(operand() % 300)
			id := nextID
			nextID++
			e.Schedule(d, func() {
				log = append(log, fmt.Sprintf("violate#%d@%d", id, e.Now()))
				e.ScheduleAt(e.Now()-1, func() {
					log = append(log, "PAST EVENT RAN (must never appear)")
				})
			})
		case 5:
			now, err := e.RunUntil(e.Now() + Cycle(operand()%5000))
			log = append(log, fmt.Sprintf("rununtil now=%d executed=%d pending=%d err=%v", now, e.Executed(), e.Pending(), err))
		case 6:
			now, err := e.Run()
			log = append(log, fmt.Sprintf("run now=%d executed=%d pending=%d err=%v", now, e.Executed(), e.Pending(), err))
		case 7:
			e.MaxEvents = e.Executed() + uint64(operand()%64) + 1
			log = append(log, fmt.Sprintf("maxevents=%d", e.MaxEvents))
		case 8:
			e.Reset()
			log = append(log, "reset")
		case 9:
			e.ScheduleAt(Never, mkEvent())
		case 10:
			post(e.Now() + Cycle(operand()%3000) - 1000)
		case 11:
			at := e.Now() + Cycle(operand()%500)
			n := int(operand()%4) + 1
			for i := 0; i < n; i++ {
				e.ScheduleAt(at, mkEvent())
				post(at)
			}
		case 12:
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
	{"rununtil_resume_boundaries", script(
		op(0, 10), op(0, 20), op(0, 20), op(0, 2999),
		op(5, 20),   // stop exactly on a tie cycle
		op(0, 25),   // schedule from the resume point
		op(5, 0),    // zero-width window
		op(5, 4999), // drain the tail, clock jumps to deadline
	)},
	{"rununtil_past_drained_queue", script(
		op(0, 5),
		op(5, 4000), // queue drains, clock jumps to deadline
		op(0, 100),  // continue the timeline after the jump
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
	{"never_sentinel", script(op(9), op(0, 10), op(5, 4000))},
	{"maxevents_abort", script(
		op(7, 3),     // allow 4 more events
		op(2, 10, 3), // 4 events at +10
		op(2, 20, 3), // 4 more at +20: the run aborts mid-way
		op(6),
		op(0, 5), // rejected: error is sticky
	)},
	{"past_schedule_violation", script(
		op(0, 10),
		op(4, 50), // violates at cycle 50
		op(0, 90), // never runs: violation aborts and rejects
		op(6),
	)},
	{"reset_restarts_timeline", script(
		op(0, 30), op(6), // drain at cycle 30
		op(8),            // reset: clock back to 0
		op(0, 10), op(6), // a fresh timeline
	)},
	{"reset_clears_violation", script(
		op(4, 20), op(6), // violation recorded
		op(8),
		op(0, 15), op(6),
	)},
	{"reset_with_pending_events", script(
		op(0, 100), op(1, 2000), op(9), // bucketed, overflow and Never pending
		op(5, 50),
		op(8),
		op(2, 25, 2), op(6),
	)},
	{"handler_events", script(
		op(10, 1100), // +100
		op(0, 100),   // a closure event on the same cycle, after it
		op(10, 400),  // in the past: runs at now
		op(10, 2999), // +1999
	)},
	{"handlers_mixed_with_closures_on_one_cycle", script(
		op(11, 40, 3), // 4 closure + 4 handler events, alternating, at +40
		op(2, 40, 1),  // 2 more closure events at +40
		op(11, 40, 0), // one more pair
	)},
	{"reentrant_handler_chains", script(
		op(12, 30, 2),
		op(3, 30, 2), // a closure chain on the same strides interleaves
		op(12, 30, 2),
		op(12, 0, 2), // zero stride: re-posts onto the batch being dispatched
		op(5, 45),    // stop mid-chain and resume
		op(10, 1000),
	)},
	{"handler_events_across_reset_and_abort", script(
		op(12, 10, 2), op(11, 5, 1),
		op(7, 2), // allow 3 more events: aborts mid-chain
		op(6),
		op(8), // reset clears the error and the pending handlers
		op(12, 20, 1), op(6),
	)},
	{"mixed_stress", script(
		op(2, 100, 3), op(3, 33, 2), op(1, 700), op(0, 0),
		op(5, 150),
		op(2, 100, 1), op(3, 5, 2), op(9),
		op(5, 3000),
		op(7, 40),
		op(1, 200), op(2, 60, 3), op(0, 4),
		op(6),
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
