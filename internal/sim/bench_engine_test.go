package sim

// Benchmarks for the event engine's pending-event queue: the calendar
// queue against the reference binary heap, on a synthetic churn workload
// shaped like the simulator's steady state — a large standing population
// of events, each dispatch rescheduling a short stride ahead, with an
// occasional far-future hop exercising the calendar's overflow tier.
//
// TestBenchEngineArtifact is the CI harness: when BEACON_BENCH_ENGINE
// names a file, it measures both queues via testing.Benchmark, enforces
// the calendar queue's >= 2x throughput target and zero steady-state
// allocations, and writes the comparison as JSON (committed as
// BENCH_engine.json at the repository root). End-to-end simulation speed
// is measured by perfbench's replay workload, not here.

import (
	"encoding/json"
	"os"
	"testing"
)

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

// benchEngineArtifact is the BENCH_engine.json schema: the churn benchmark,
// per dispatched event.
type benchEngineArtifact struct {
	Actors                 int     `json:"actors"`
	HeapNsPerEvent         int64   `json:"heap_ns_per_event"`
	CalendarNsPerEvent     int64   `json:"calendar_ns_per_event"`
	HeapEventsPerSec       float64 `json:"heap_events_per_sec"`
	CalendarEventsPerSec   float64 `json:"calendar_events_per_sec"`
	HeapAllocsPerEvent     int64   `json:"heap_allocs_per_event"`
	CalendarAllocsPerEvent int64   `json:"calendar_allocs_per_event"`
	MicroSpeedup           float64 `json:"micro_speedup"`
}

// TestBenchEngineArtifact measures calendar vs heap scheduling and writes
// BENCH_engine.json. Guarded by an env var so ordinary `go test` stays
// fast; run via `make bench` or the CI engine-bench job.
func TestBenchEngineArtifact(t *testing.T) {
	path := os.Getenv("BEACON_BENCH_ENGINE")
	if path == "" {
		t.Skip("set BEACON_BENCH_ENGINE=<file> to emit the engine benchmark artifact")
	}
	micro := func(newQueue func() scheduler) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) { benchEngineChurn(b, newQueue) })
	}
	heap := micro(heapQueue)
	cal := micro(calendarQueue)

	art := benchEngineArtifact{
		Actors:                 benchEngineActors,
		HeapNsPerEvent:         heap.NsPerOp(),
		CalendarNsPerEvent:     cal.NsPerOp(),
		HeapAllocsPerEvent:     heap.AllocsPerOp(),
		CalendarAllocsPerEvent: cal.AllocsPerOp(),
	}
	if art.HeapNsPerEvent > 0 {
		art.HeapEventsPerSec = 1e9 / float64(art.HeapNsPerEvent)
	}
	if art.CalendarNsPerEvent > 0 {
		art.CalendarEventsPerSec = 1e9 / float64(art.CalendarNsPerEvent)
		art.MicroSpeedup = float64(art.HeapNsPerEvent) / float64(art.CalendarNsPerEvent)
	}
	if art.MicroSpeedup < 2 {
		t.Errorf("calendar queue only %.2fx faster than the heap on the churn benchmark, want >= 2x", art.MicroSpeedup)
	}
	if art.CalendarAllocsPerEvent > 0 {
		t.Errorf("calendar queue allocates %d times per event at steady state, want 0", art.CalendarAllocsPerEvent)
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("heap %d ns/event, calendar %d ns/event (%.2fx) -> %s",
		art.HeapNsPerEvent, art.CalendarNsPerEvent, art.MicroSpeedup, path)
}
