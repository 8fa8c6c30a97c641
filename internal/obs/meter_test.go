package obs

import (
	"testing"
)

// trackedValues tracks m on a fresh Obs and returns one snapshot's values.
func trackedValues(m Meter) map[string]float64 {
	o := New("job")
	o.Track(m)
	o.Sample(1)
	return o.Metrics.Snapshots()[0].Values
}

func TestTrackNilSafety(t *testing.T) {
	var o *Obs
	o.Track(Meter{Class: ClassDIMM, Name: "d", Width: 4, Busy: func() int64 { return 1 }})
	// A literal Obs without a registry tracks nothing either.
	(&Obs{}).Track(Meter{Class: ClassPE, Name: "p", Width: 2})
}

func TestTrackLiteralObs(t *testing.T) {
	// An Obs built as a literal (no New) tracks into its registry.
	o := &Obs{Metrics: NewRegistry()}
	o.Track(Meter{Class: ClassBus, Name: "ch0.bus", Width: 1, Busy: func() int64 { return 40 }})
	o.Sample(1)
	if got := o.Metrics.Snapshots()[0].Values["util.bus.ch0.bus.busy_cycles"]; got != 40 {
		t.Fatalf("busy = %g, want 40", got)
	}
}

func TestTrackPolledGauges(t *testing.T) {
	o := New("job")
	var busy, stall, wait int64
	o.Track(Meter{
		Class: ClassDIMM, Name: "s0.d0", Width: 64,
		Busy:  func() int64 { return busy },
		Stall: func() int64 { return stall },
		Wait:  func() int64 { return wait },
	})
	busy, stall, wait = 100, 20, 7
	o.Sample(50)
	got := o.Metrics.Snapshots()[0].Values
	for _, c := range []struct {
		name string
		want float64
	}{
		{"util.dimm.s0.d0.width", 64},
		{"util.dimm.s0.d0.busy_cycles", 100},
		{"util.dimm.s0.d0.stall_cycles", 20},
		{"util.dimm.s0.d0.wait_cycles", 7},
	} {
		if got[c.name] != c.want {
			t.Errorf("%s = %g, want %g", c.name, got[c.name], c.want)
		}
	}
}

func TestTrackOmitsUnsourcedGauges(t *testing.T) {
	// Busy only: no stall/wait source, so those gauges must not exist.
	vals := trackedValues(Meter{Class: ClassLink, Name: "host-s0.up", Width: 1,
		Busy: func() int64 { return 5 }})
	if _, ok := vals["util.link.host-s0.up.stall_cycles"]; ok {
		t.Error("stall gauge registered without a stall source")
	}
	if _, ok := vals["util.link.host-s0.up.wait_cycles"]; ok {
		t.Error("wait gauge registered without a wait source")
	}
	if vals["util.link.host-s0.up.busy_cycles"] != 5 {
		t.Error("busy gauge missing")
	}

	// No busy source still registers a zero busy gauge.
	vals = trackedValues(Meter{Class: ClassPE, Name: "p", Width: 2})
	if v, ok := vals["util.pe.p.busy_cycles"]; !ok || v != 0 {
		t.Errorf("busy gauge without a source = %g (present %v), want 0", v, ok)
	}
	if len(vals) != 2 {
		t.Errorf("gauges = %v, want only width and busy_cycles", vals)
	}
}

func TestTrackWidthClampAndClassNormalization(t *testing.T) {
	vals := trackedValues(Meter{Class: "weird.class", Name: "x", Width: 0,
		Busy: func() int64 { return 3 }})
	if got, ok := vals["util.weird_class.x.width"]; !ok || got != 1 {
		t.Errorf("width = %g (present %v), want clamp to 1 under weird_class", got, ok)
	}
	if vals["util.weird_class.x.busy_cycles"] != 3 {
		t.Errorf("busy gauge not under normalized class: %v", vals)
	}
	// The normalized name must parse back to its class and resource.
	class, name, kind, ok := parseUtilName("util.weird_class.x.width")
	if !ok || class != "weird_class" || name != "x" || kind != "width" {
		t.Errorf("parseUtilName = %q,%q,%q,%v", class, name, kind, ok)
	}
}
