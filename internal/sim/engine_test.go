package sim

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Cycle
	for _, d := range []Cycles{30, 10, 20, 10, 0} {
		d := d
		e.ScheduleAt(e.Now()+d, func() { got = append(got, e.Now()) })
	}
	end, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 30 {
		t.Errorf("final time = %d, want 30", end)
	}
	want := []Cycle{0, 10, 10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %d, want %d", i, got[i], want[i])
		}
	}
}

func TestEngineTieBreakIsInsertionOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.ScheduleAt(e.Now()+5, func() { order = append(order, i) })
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want insertion order", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var chain []Cycle
	var step func(remaining int)
	step = func(remaining int) {
		chain = append(chain, e.Now())
		if remaining > 0 {
			e.ScheduleAt(e.Now()+7, func() { step(remaining - 1) })
		}
	}
	e.ScheduleAt(e.Now(), func() { step(4) })
	end, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 28 {
		t.Errorf("end = %d, want 28", end)
	}
	if len(chain) != 5 {
		t.Errorf("chain length = %d, want 5", len(chain))
	}
}

// TestEnginePostRunsPastTimesNow checks the typed-event contract: a post
// for a past time runs at Now without recording an error, the handler
// receives its argument, and posted and scheduled events dispatch in one
// (at, seq) order.
func TestEnginePostRunsPastTimesNow(t *testing.T) {
	e := NewEngine()
	var got []string
	h := Handler(func(arg int32) { got = append(got, fmt.Sprintf("h%d@%d", arg, e.Now())) })
	e.ScheduleAt(e.Now()+10, func() {
		got = append(got, fmt.Sprintf("c@%d", e.Now()))
		e.Post(3, h, 1) // past: runs at 10, after this event
		e.ScheduleAt(10, func() { got = append(got, fmt.Sprintf("c2@%d", e.Now())) })
		e.Post(12, h, 2)
	})
	e.Post(12, h, 0) // posted before #2, so it runs first at 12
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"c@10", "h1@10", "c2@10", "h0@12", "h2@12"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dispatch order %q, want %q", got, want)
	}
}

// Regression: an event scheduled in the past must be rejected — dropped and
// surfaced as an error from Run — never reordered onto the timeline.
func TestEngineSchedulePastReturnsError(t *testing.T) {
	e := NewEngine()
	ran := false
	e.ScheduleAt(e.Now()+10, func() {
		e.ScheduleAt(5, func() { ran = true })
	})
	if _, err := e.Run(); err == nil {
		t.Fatal("Run accepted an event scheduled in the past")
	}
	if ran {
		t.Error("past-time event was executed")
	}
	// The error is sticky: later Run calls keep reporting it.
	if _, err := e.Run(); err == nil {
		t.Error("violation not sticky across Run calls")
	}
}

func TestEngineMaxEventsDetectsLivelock(t *testing.T) {
	e := NewEngine()
	e.MaxEvents = 100
	var loop func()
	loop = func() { e.ScheduleAt(e.Now()+1, loop) }
	e.ScheduleAt(e.Now(), loop)
	if _, err := e.Run(); err == nil {
		t.Fatal("expected livelock error")
	}
}

// Property: regardless of the delays scheduled, events observe a
// monotonically non-decreasing clock.
func TestEngineClockMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		last := Cycle(-1)
		ok := true
		for _, d := range delays {
			d := Cycles(d)
			e.ScheduleAt(e.Now()+d, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		if _, err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Batched dispatch: OnAdvance and the clock update fire once per distinct
// cycle, no matter how many events share that cycle.
func TestEngineOnAdvanceOncePerCycle(t *testing.T) {
	e := NewEngine()
	var advances []Cycle
	e.OnAdvance = func(now Cycle) { advances = append(advances, now) }
	for i := 0; i < 4; i++ {
		e.ScheduleAt(e.Now()+5, func() {})
		e.ScheduleAt(e.Now()+9, func() {})
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Cycle{5, 9}
	if len(advances) != len(want) {
		t.Fatalf("OnAdvance fired at %v, want exactly %v", advances, want)
	}
	for i := range want {
		if advances[i] != want[i] {
			t.Fatalf("OnAdvance fired at %v, want %v", advances, want)
		}
	}
}

// An engine is single-use: events scheduled after Run drains it continue
// the same timeline, and a second Run dispatches them with the clock,
// counters and OnAdvance hook carried over.
func TestEngineRunContinuesTimeline(t *testing.T) {
	e := NewEngine()
	var advances []Cycle
	e.OnAdvance = func(now Cycle) { advances = append(advances, now) }
	e.ScheduleAt(50, func() {})
	if end, err := e.Run(); err != nil || end != 50 {
		t.Fatalf("first Run = %d, %v; want 50, nil", end, err)
	}
	e.ScheduleAt(e.Now(), func() {}) // the final cycle is still open
	e.ScheduleAt(e.Now()+7, func() {})
	end, err := e.Run()
	if err != nil || end != 57 {
		t.Fatalf("second Run = %d, %v; want 57, nil", end, err)
	}
	if e.Executed() != 3 || e.Pending() != 0 {
		t.Errorf("executed=%d pending=%d, want 3, 0", e.Executed(), e.Pending())
	}
	if want := []Cycle{50, 57}; !reflect.DeepEqual(advances, want) {
		t.Errorf("OnAdvance fired at %v, want %v", advances, want)
	}
}

// Once a violation is recorded, every new event is rejected for the
// engine's lifetime: the timeline is corrupt and must not keep growing.
func TestEngineScheduleRejectedAfterError(t *testing.T) {
	e := NewEngine()
	e.ScheduleAt(e.Now()+10, func() { e.ScheduleAt(3, func() {}) })
	if _, err := e.Run(); err == nil {
		t.Fatal("Run accepted an event scheduled in the past")
	}
	ran := false
	e.ScheduleAt(e.Now()+5, func() { ran = true })
	if e.Pending() != 0 {
		t.Errorf("pending = %d, want 0 (ScheduleAt must be rejected after an error)", e.Pending())
	}
	if _, err := e.Run(); err == nil {
		t.Error("violation not sticky across Run calls")
	}
	if ran {
		t.Error("event accepted on a corrupted timeline was executed")
	}
}

// A MaxEvents abort is sticky exactly like a past-time violation.
func TestEngineMaxEventsErrorIsSticky(t *testing.T) {
	e := NewEngine()
	e.MaxEvents = 10
	var loop func()
	loop = func() { e.ScheduleAt(e.Now()+1, loop) }
	e.ScheduleAt(e.Now(), loop)
	if _, err := e.Run(); err == nil {
		t.Fatal("expected livelock error")
	}
	e.ScheduleAt(e.Now()+1, func() {})
	if e.Pending() != 0 {
		t.Errorf("pending = %d, want 0 (ScheduleAt must be rejected after a livelock abort)", e.Pending())
	}
	if _, err := e.Run(); err == nil {
		t.Error("livelock abort not sticky across Run calls")
	}
}

// The zero value is unusable by contract; using it panics with a diagnostic
// instead of corrupting silently.
func TestEngineZeroValuePanics(t *testing.T) {
	methods := []struct {
		name string
		call func(e *Engine)
	}{
		{"ScheduleAt", func(e *Engine) { e.ScheduleAt(1, func() {}) }},
		//beaconlint:allow cycleclock this call panics before returning an error to check
		{"Run", func(e *Engine) { _, _ = e.Run() }},
	}
	for _, m := range methods {
		name, call := m.name, m.call
		t.Run(name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s on a zero-value Engine did not panic", name)
				}
				if msg, ok := r.(string); !ok || msg != "sim: zero-value Engine is unusable; call NewEngine" {
					t.Fatalf("panic message = %v, want the zero-value diagnostic", r)
				}
			}()
			var e Engine
			call(&e)
		})
	}
	// Read-only accessors stay safe on the zero value: they are used in
	// logging paths that must not themselves panic.
	var e Engine
	if e.Pending() != 0 || e.Now() != 0 || e.Executed() != 0 {
		t.Error("zero-value accessors returned non-zero state")
	}
}

// Property: the engine is deterministic — same schedule, same execution trace.
func TestEngineDeterminismProperty(t *testing.T) {
	run := func(delays []uint16) []Cycle {
		e := NewEngine()
		var tr []Cycle
		for _, d := range delays {
			e.ScheduleAt(e.Now()+Cycles(d), func() { tr = append(tr, e.Now()) })
		}
		if _, err := e.Run(); err != nil {
			return nil
		}
		return tr
	}
	f := func(delays []uint16) bool {
		a, b := run(delays), run(delays)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// A rejected closure keeps nothing: neither a past-time schedule nor one
// after the error is stored in the closure side slab, and the slot a
// dispatched closure frees is reused by the next schedule.
func TestEngineRejectedScheduleKeepsNoClosure(t *testing.T) {
	e := NewEngine()
	e.ScheduleAt(e.Now()+10, func() {})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.fns) != 1 || len(e.fnFree) != 1 {
		t.Fatalf("after one closure: %d slots, %d free; want 1, 1", len(e.fns), len(e.fnFree))
	}
	e.ScheduleAt(e.Now()+1, func() {})
	if len(e.fns) != 1 || len(e.fnFree) != 0 {
		t.Fatalf("freed slot not reused: %d slots, %d free; want 1, 0", len(e.fns), len(e.fnFree))
	}
	e.ScheduleAt(e.Now()-1, func() {})
	e.ScheduleAt(e.Now()+5, func() {})
	if len(e.fns) != 1 || len(e.fnFree) != 0 || e.Pending() != 1 {
		t.Errorf("rejected closures kept: %d slots, %d free, %d pending; want 1, 0, 1",
			len(e.fns), len(e.fnFree), e.Pending())
	}
	if _, err := e.Run(); err == nil {
		t.Error("past-time schedule not reported")
	}
}
