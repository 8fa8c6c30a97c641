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
		e.Schedule(d, func() { got = append(got, e.Now()) })
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
		e.Schedule(5, func() { order = append(order, i) })
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
			e.Schedule(7, func() { step(remaining - 1) })
		}
	}
	e.Schedule(0, func() { step(4) })
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

func TestEngineNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	NewEngine().Schedule(-1, func() {}) //beaconlint:allow cycleclock this test asserts the negative-delay panic path
}

// TestEnginePostRunsPastTimesNow checks the typed-event contract: a post
// for a past time runs at Now without recording an error, the handler
// receives its argument, and posted and scheduled events dispatch in one
// (at, seq) order.
func TestEnginePostRunsPastTimesNow(t *testing.T) {
	e := NewEngine()
	var got []string
	h := Handler(func(arg int32) { got = append(got, fmt.Sprintf("h%d@%d", arg, e.Now())) })
	e.Schedule(10, func() {
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
	e.Schedule(10, func() {
		e.ScheduleAt(5, func() { ran = true })
	})
	if _, err := e.Run(); err == nil {
		t.Fatal("Run accepted an event scheduled in the past")
	}
	if ran {
		t.Error("past-time event was executed")
	}
	if e.Err() == nil {
		t.Error("Err() lost the violation")
	}
	// The error is sticky: later Run calls keep reporting it.
	if _, err := e.Run(); err == nil {
		t.Error("violation not sticky across Run calls")
	}
}

// Regression: RunUntil surfaces the same violation.
func TestEngineRunUntilSurfacesPastScheduleError(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() { e.ScheduleAt(3, func() {}) })
	e.Schedule(20, func() {})
	if _, err := e.RunUntil(30); err == nil {
		t.Fatal("RunUntil accepted an event scheduled in the past")
	}
}

func TestEngineMaxEventsDetectsLivelock(t *testing.T) {
	e := NewEngine()
	e.MaxEvents = 100
	var loop func()
	loop = func() { e.Schedule(1, loop) }
	e.Schedule(0, loop)
	if _, err := e.Run(); err == nil {
		t.Fatal("expected livelock error")
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(10, func() { ran++ })
	e.Schedule(20, func() { ran++ })
	e.Schedule(30, func() { ran++ })
	now, err := e.RunUntil(20)
	if err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if now != 20 || ran != 2 {
		t.Errorf("now=%d ran=%d, want 20, 2", now, ran)
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran != 3 {
		t.Errorf("ran = %d after drain, want 3", ran)
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
			e.Schedule(d, func() {
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

// Regression: when RunUntil drains the queue before the deadline, the final
// clock jump to the deadline must be observable — samplers that integrate
// per-window metrics need to see the tail window, not silently lose it.
func TestEngineRunUntilFiresOnAdvanceAtDeadline(t *testing.T) {
	e := NewEngine()
	var advances []Cycle
	e.OnAdvance = func(now Cycle) { advances = append(advances, now) }
	e.Schedule(10, func() {})
	now, err := e.RunUntil(100)
	if err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if now != 100 {
		t.Errorf("now = %d, want 100", now)
	}
	want := []Cycle{10, 100}
	if len(advances) != len(want) {
		t.Fatalf("OnAdvance fired at %v, want %v", advances, want)
	}
	for i := range want {
		if advances[i] != want[i] {
			t.Fatalf("OnAdvance fired at %v, want %v", advances, want)
		}
	}
	// A second RunUntil at the same deadline is a no-op: the clock already
	// sits at the deadline, so no further advance is observed.
	if _, err := e.RunUntil(100); err != nil {
		t.Fatalf("RunUntil (repeat): %v", err)
	}
	if len(advances) != len(want) {
		t.Errorf("repeated RunUntil re-fired OnAdvance: %v", advances)
	}
}

// Regression: the deadline jump must not fire after a violation — the
// timeline is corrupt and the clock stays where the run aborted.
func TestEngineRunUntilNoDeadlineJumpAfterError(t *testing.T) {
	e := NewEngine()
	var advances []Cycle
	e.OnAdvance = func(now Cycle) { advances = append(advances, now) }
	e.Schedule(10, func() { e.ScheduleAt(3, func() {}) })
	now, err := e.RunUntil(100)
	if err == nil {
		t.Fatal("RunUntil accepted an event scheduled in the past")
	}
	if now != 10 {
		t.Errorf("now = %d, want 10 (clock must not jump past the violation)", now)
	}
	for _, a := range advances {
		if a == 100 {
			t.Error("OnAdvance observed the deadline jump on a corrupted timeline")
		}
	}
}

// Batched dispatch: OnAdvance and the clock update fire once per distinct
// cycle, no matter how many events share that cycle.
func TestEngineOnAdvanceOncePerCycle(t *testing.T) {
	e := NewEngine()
	var advances []Cycle
	e.OnAdvance = func(now Cycle) { advances = append(advances, now) }
	for i := 0; i < 4; i++ {
		e.Schedule(5, func() {})
		e.Schedule(9, func() {})
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

// Reset returns a drained engine to its initial state while preserving
// configuration (MaxEvents, OnAdvance).
func TestEngineResetRestartsTimeline(t *testing.T) {
	e := NewEngine()
	e.MaxEvents = 1 << 20
	hookFired := false
	e.OnAdvance = func(Cycle) { hookFired = true }
	e.Schedule(50, func() {})
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	e.Reset()
	if e.Now() != 0 || e.Executed() != 0 || e.Pending() != 0 || e.Err() != nil {
		t.Fatalf("Reset left state behind: now=%d executed=%d pending=%d err=%v",
			e.Now(), e.Executed(), e.Pending(), e.Err())
	}
	if e.MaxEvents != 1<<20 {
		t.Errorf("Reset clobbered MaxEvents: %d", e.MaxEvents)
	}
	hookFired = false
	ran := false
	e.Schedule(7, func() { ran = true })
	end, err := e.Run()
	if err != nil {
		t.Fatalf("Run after Reset: %v", err)
	}
	if end != 7 || !ran {
		t.Errorf("post-Reset run: end=%d ran=%v, want 7, true", end, ran)
	}
	if !hookFired {
		t.Error("Reset clobbered OnAdvance")
	}
}

// Reset also discards pending events: the new timeline starts empty.
func TestEngineResetDropsPendingEvents(t *testing.T) {
	e := NewEngine()
	stale := false
	e.Schedule(10, func() { stale = true })
	e.ScheduleAt(Never, func() { stale = true })
	e.Reset()
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after Reset, want 0", e.Pending())
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stale {
		t.Error("Reset leaked an event from the abandoned timeline")
	}
}

// Once a violation is recorded, Schedule/ScheduleAt reject every new event
// until Reset: the timeline is corrupt and must not keep growing.
func TestEngineScheduleRejectedAfterError(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() { e.ScheduleAt(3, func() {}) })
	if _, err := e.Run(); err == nil {
		t.Fatal("Run accepted an event scheduled in the past")
	}
	ran := false
	e.Schedule(5, func() { ran = true })
	if e.Pending() != 0 {
		t.Errorf("pending = %d, want 0 (Schedule must be rejected after an error)", e.Pending())
	}
	if _, err := e.Run(); err == nil {
		t.Error("violation not sticky across Run calls")
	}
	if ran {
		t.Error("event accepted on a corrupted timeline was executed")
	}
	// Reset clears the violation and the engine accepts events again.
	e.Reset()
	e.Schedule(5, func() { ran = true })
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run after Reset: %v", err)
	}
	if !ran {
		t.Error("event scheduled after Reset did not run")
	}
}

// A MaxEvents abort is sticky exactly like a past-time violation.
func TestEngineMaxEventsErrorIsSticky(t *testing.T) {
	e := NewEngine()
	e.MaxEvents = 10
	var loop func()
	loop = func() { e.Schedule(1, loop) }
	e.Schedule(0, loop)
	if _, err := e.Run(); err == nil {
		t.Fatal("expected livelock error")
	}
	if e.Err() == nil {
		t.Fatal("Err() lost the livelock abort")
	}
	e.Schedule(1, func() {})
	if e.Pending() != 0 {
		t.Errorf("pending = %d, want 0 (Schedule must be rejected after a livelock abort)", e.Pending())
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
		//beaconlint:allow cycleclock these calls panic before returning an error to check
		{"Run", func(e *Engine) { _, _ = e.Run() }},
		//beaconlint:allow cycleclock these calls panic before returning an error to check
		{"RunUntil", func(e *Engine) { _, _ = e.RunUntil(1) }},
		{"Reset", func(e *Engine) { e.Reset() }},
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
	if e.Pending() != 0 || e.Now() != 0 || e.Executed() != 0 || e.Err() != nil {
		t.Error("zero-value accessors returned non-zero state")
	}
}

// Property: the engine is deterministic — same schedule, same execution trace.
func TestEngineDeterminismProperty(t *testing.T) {
	run := func(delays []uint16) []Cycle {
		e := NewEngine()
		var tr []Cycle
		for _, d := range delays {
			e.Schedule(Cycles(d), func() { tr = append(tr, e.Now()) })
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
