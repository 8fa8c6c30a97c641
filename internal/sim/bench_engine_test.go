package sim

// Benchmarks for the event engine's pending-event queue: the calendar
// queue against the reference binary heap, on a synthetic churn workload
// shaped like the simulator's steady state — a large standing population
// of events, each dispatch rescheduling a short stride ahead, with an
// occasional far-future hop exercising the calendar's overflow tier.
//
// TestCalendarFasterThanHeap gates the ratio between the two in one run;
// TestCalendarSteadyStateAllocFree holds the calendar to zero allocations
// per event. End-to-end simulation speed is measured by perfbench's replay
// workload, not here.

import "testing"

// benchEngineActors is the standing pending-event population of the churn
// workload. 4096 in-flight events matches the order of magnitude a BEACON
// machine keeps queued (PEs x in-flight tasks), and is deep enough that
// the heap pays ~12 comparisons per operation.
const benchEngineActors = 4096

// runEngineChurn dispatches `events` events on a fresh engine over the
// queue newQueue builds: benchEngineActors self-rescheduling actors with
// strides drawn from a fixed-seed RNG, mostly short (1..512 cycles, in the
// calendar window) with every 64th hop far-future (into the overflow
// tier). The stride sequence is deterministic, so every call — and both
// queues — replays the identical workload.
func runEngineChurn(tb testing.TB, newQueue func() scheduler, events int) {
	e := newEngine(newQueue())
	rng := NewRNG(0xBEAC0)
	remaining := events
	var step func()
	step = func() {
		if remaining == 0 {
			return
		}
		remaining--
		stride := Cycles(1 + rng.Intn(512))
		if remaining%64 == 0 {
			stride = Cycles(100_000 + rng.Intn(1<<20))
		}
		e.ScheduleAt(e.Now()+stride, step)
	}
	for i := 0; i < benchEngineActors && i < events; i++ {
		e.ScheduleAt(e.Now()+Cycles(rng.Intn(512)), step)
	}
	if _, err := e.Run(); err != nil {
		tb.Fatal(err)
	}
}

func benchEngineChurn(b *testing.B, newQueue func() scheduler) {
	b.ReportAllocs()
	runEngineChurn(b, newQueue, b.N)
}

func BenchmarkEngineChurnCalendar(b *testing.B) { benchEngineChurn(b, calendarQueue) }
func BenchmarkEngineChurnHeap(b *testing.B)     { benchEngineChurn(b, heapQueue) }

// TestCalendarFasterThanHeap holds the calendar queue to at least 2x the
// reference heap's throughput on the churn benchmark. Both queues are timed
// in the same run, so the runner's speed cancels out. Timing them takes
// about 3 s, so -short skips it.
func TestCalendarFasterThanHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("times both queues for about 3 s")
	}
	nsPerEvent := func(newQueue func() scheduler) int64 {
		return testing.Benchmark(func(b *testing.B) { benchEngineChurn(b, newQueue) }).NsPerOp()
	}
	heap, cal := nsPerEvent(heapQueue), nsPerEvent(calendarQueue)
	speedup := float64(heap) / float64(cal)
	if speedup < 2 {
		t.Errorf("calendar queue %d ns/event, heap %d ns/event: only %.2fx faster, want >= 2x", cal, heap, speedup)
	}
	t.Logf("heap %d ns/event, calendar %d ns/event (%.2fx)", heap, cal, speedup)
}
