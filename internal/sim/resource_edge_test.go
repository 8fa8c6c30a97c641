package sim

// Edge-behavior tests for the resource calendars and pipes: degenerate
// widths, grant/release collisions on a single cycle, and calendars driven
// out to the Never sentinel. These pin the corners the simulator's models
// lean on implicitly (a release and a grant meeting at the same cycle must
// hand over with zero idle gap, and a calendar parked at Never must not
// overflow Cycle arithmetic).

import (
	"testing"

	"beacon/internal/obs"
)

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// A zero- or negative-width resource has no servers to grant; constructing
// one is a model bug and panics rather than deadlocking the first Acquire.
func TestResourceZeroWidthPanics(t *testing.T) {
	mustPanic(t, "NewResource(width=0)", func() { NewResource("bank", 0) })
	mustPanic(t, "NewResource(width=-3)", func() { NewResource("bank", -3) })
}

func TestResourceNegativeDurationPanics(t *testing.T) {
	r := NewResource("bank", 1)
	mustPanic(t, "Acquire(d=-1)", func() { r.Acquire(0, -1) })
}

// A grant arriving exactly when the previous one releases starts with zero
// idle gap — the handover cycle belongs to the new grant, not to queueing
// delay. This is the boundary every back-to-back DRAM command sequence
// exercises.
func TestResourceGrantReleaseSameCycle(t *testing.T) {
	r := NewResource("bank", 1)
	if start, end := r.Acquire(10, 5); start != 10 || end != 15 {
		t.Fatalf("first grant [%d,%d), want [10,15)", start, end)
	}
	// Requested at the exact release cycle: granted immediately.
	if start, end := r.Acquire(15, 5); start != 15 || end != 20 {
		t.Errorf("same-cycle handover granted [%d,%d), want [15,20)", start, end)
	}
	// A zero-duration grant at the release cycle is an empty interval that
	// neither waits nor blocks the next request.
	if start, end := r.Acquire(20, 0); start != 20 || end != 20 {
		t.Errorf("zero-duration grant [%d,%d), want [20,20)", start, end)
	}
	if start, end := r.Acquire(20, 3); start != 20 || end != 23 {
		t.Errorf("grant after empty interval [%d,%d), want [20,23)", start, end)
	}
	if got := r.Grants(); got != 4 {
		t.Errorf("grants = %d, want 4", got)
	}
}

// Driving a calendar to the Never sentinel must keep every accessor finite
// and well-defined: Never is "unreachable", not "undefined".
func TestResourceCalendarAtNever(t *testing.T) {
	r := NewResource("bank", 2)
	if start, end := r.Acquire(Never, 0); start != Never || end != Never {
		t.Fatalf("grant at Never = [%d,%d), want [Never,Never)", start, end)
	}
	// The second server is still idle at 0, so the resource as a whole is
	// available immediately.
	if at := r.AvailableAt(); at != 0 {
		t.Errorf("AvailableAt = %d, want 0 (second server idle)", at)
	}
	r2 := NewResource("bank1", 1)
	r2.Acquire(Never, 0)
	if at := r2.AvailableAt(); at != Never {
		t.Errorf("AvailableAt = %d, want Never", at)
	}
	// A request before the parked server's horizon queues until Never.
	if start, _ := r2.Acquire(5, 1); start != Never {
		t.Errorf("grant behind a Never-parked calendar starts at %d, want Never", start)
	}
}

func TestResourceAccessors(t *testing.T) {
	r := NewResource("pe-pool", 4)
	if r.Name() != "pe-pool" {
		t.Errorf("Name = %q", r.Name())
	}
	if r.Width() != 4 {
		t.Errorf("Width = %d, want 4", r.Width())
	}
	r.Acquire(0, 10)
	if r.BusyCycles() != 10 {
		t.Errorf("BusyCycles = %d, want 10", r.BusyCycles())
	}
	if u := r.Utilization(0); u != 0 {
		t.Errorf("Utilization(0) = %g, want 0 (zero horizon)", u)
	}
	if u := r.Utilization(10); u != 0.25 {
		t.Errorf("Utilization(10) = %g, want 0.25", u)
	}
}

// Instrument is observation-only: spans record the same grants the bare
// resource makes, and a nil tracer leaves it uninstrumented.
func TestResourceInstrument(t *testing.T) {
	r := NewResource("link", 1)
	r.Instrument(nil, "xfer") // no-op
	tr := obs.NewTracer()
	r.Instrument(tr, "xfer")
	r.Acquire(3, 4)
	bare := NewResource("link", 1)
	if s, e := bare.Acquire(3, 4); s != 3 || e != 7 {
		t.Fatalf("bare grant [%d,%d)", s, e)
	}
	if n := tr.Events(); n != 1 {
		t.Errorf("tracer recorded %d spans, want 1", n)
	}
}

func TestPipeConstructorValidation(t *testing.T) {
	mustPanic(t, "NewPipe(bandwidth=0)", func() { NewPipe("link", 0, 1) })
	mustPanic(t, "NewPipe(bandwidth<0)", func() { NewPipe("link", -4, 1) })
	mustPanic(t, "NewPipe(latency<0)", func() { NewPipe("link", 4, -1) })
	mustPanic(t, "Transfer(n<0)", func() { NewPipe("link", 4, 1).Transfer(0, -8) })
}

func TestPipeAccessorsAndReset(t *testing.T) {
	p := NewPipeN("vcs", 8, 12, 2)
	if p.Name() != "vcs" {
		t.Errorf("Name = %q", p.Name())
	}
	if p.Latency() != 12 {
		t.Errorf("Latency = %d, want 12", p.Latency())
	}
	if p.BytesPerCycle() != 8 {
		t.Errorf("BytesPerCycle = %g, want 8", p.BytesPerCycle())
	}
	tr := obs.NewTracer()
	p.Instrument(tr, "xfer")
	p.Transfer(0, 64)
	if p.BytesMoved() != 64 {
		t.Errorf("BytesMoved = %d, want 64", p.BytesMoved())
	}
	if p.BusyCycles() != 8 {
		t.Errorf("BusyCycles = %d, want 8 (64 B at 8 B/cycle)", p.BusyCycles())
	}
	if u := p.Utilization(8); u != 0.5 {
		t.Errorf("Utilization(8) = %g, want 0.5 (one of two lanes busy)", u)
	}
	p.Reset()
	if p.BytesMoved() != 0 || p.BusyCycles() != 0 {
		t.Errorf("Reset left bytes=%d busy=%d", p.BytesMoved(), p.BusyCycles())
	}
	// The fractional-occupancy carry must reset too: a sub-cycle transfer
	// after Reset starts accumulating from zero, not from stale fractions.
	p.Transfer(0, 4)
	if p.BusyCycles() != 0 {
		t.Errorf("sub-cycle transfer after Reset granted %d busy cycles, want 0", p.BusyCycles())
	}
}

func TestRNGInt63n(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 1000; i++ {
		v := r.Int63n(37)
		if v < 0 || v >= 37 {
			t.Fatalf("Int63n(37) = %d out of range", v)
		}
	}
	mustPanic(t, "Intn(0)", func() { NewRNG(1).Intn(0) })
}
