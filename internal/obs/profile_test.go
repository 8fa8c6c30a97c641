package obs

import (
	"testing"
)

// snap builds a cumulative snapshot for a single dimm+link pair.
func snap(cycle int64, dimmBusy, dimmStall, linkBusy float64) Snapshot {
	return Snapshot{Cycle: cycle, Values: map[string]float64{
		"util.dimm.s0.d0.width":        4,
		"util.dimm.s0.d0.busy_cycles":  dimmBusy,
		"util.dimm.s0.d0.stall_cycles": dimmStall,
		"util.link.up.width":           1,
		"util.link.up.busy_cycles":     linkBusy,
		"unrelated.metric":             999, // must be ignored
	}}
}

func TestNewProfileRunAttribution(t *testing.T) {
	p := NewProfile([]Snapshot{
		snap(100, 120, 40, 90),
		snap(200, 300, 80, 120),
	})
	if p.Run.From != 0 || p.Run.To != 200 {
		t.Fatalf("run window = [%d,%d), want [0,200)", p.Run.From, p.Run.To)
	}
	u, ok := p.Run.Critical()
	if !ok {
		t.Fatal("no critical resource")
	}
	// link: 120/(1*200) = 0.60; dimm: (300+80)/(4*200) = 0.475.
	if u.Class != ClassLink || u.Name != "up" {
		t.Fatalf("critical = %s %s, want link up", u.Class, u.Name)
	}
	if got := u.Occupancy(p.Run.Span()); got != 0.6 {
		t.Fatalf("link occupancy = %g, want 0.6", got)
	}
	var dimm Usage
	for _, r := range p.Run.Ranked {
		if r.Class == ClassDIMM {
			dimm = r
		}
	}
	if got := dimm.Occupancy(p.Run.Span()); got != 0.475 {
		t.Fatalf("dimm occupancy = %g, want 0.475", got)
	}
	if got := dimm.BusyFraction(p.Run.Span()); got != 300.0/800 {
		t.Fatalf("dimm busy fraction = %g, want 0.375", got)
	}
}

func TestNewProfileWindows(t *testing.T) {
	p := NewProfile([]Snapshot{
		snap(100, 120, 40, 90),
		snap(200, 300, 80, 120),
		snap(200, 300, 80, 120), // forced end sample duplicating the boundary
	})
	if len(p.Windows) != 2 {
		t.Fatalf("windows = %d, want 2 (zero-length duplicate skipped)", len(p.Windows))
	}
	w := p.Windows[1]
	if w.From != 100 || w.To != 200 {
		t.Fatalf("window 1 = [%d,%d), want [100,200)", w.From, w.To)
	}
	// Deltas over [100,200): dimm busy 180, stall 40 → occupancy 220/400.
	u, _ := w.Critical()
	if u.Class != ClassDIMM {
		t.Fatalf("window 1 critical = %s, want dimm", u.Class)
	}
	if got := u.Occupancy(w.Span()); got != 0.55 {
		t.Fatalf("window 1 dimm occupancy = %g, want 0.55", got)
	}
}

func TestProfileClassTotals(t *testing.T) {
	p := NewProfile([]Snapshot{{Cycle: 100, Values: map[string]float64{
		"util.dimm.a.width":       2,
		"util.dimm.a.busy_cycles": 50,
		"util.dimm.b.width":       2,
		"util.dimm.b.busy_cycles": 150,
		"util.pe.x.width":         10,
		"util.pe.x.busy_cycles":   100,
	}}})
	totals := p.ClassTotals()
	if len(totals) != 2 {
		t.Fatalf("classes = %d, want 2", len(totals))
	}
	// dimm: 200/(4*100) = 0.5; pe: 100/(10*100) = 0.1 → dimm ranks first.
	if totals[0].Class != ClassDIMM || totals[0].Name != "*" {
		t.Fatalf("top class = %s %s, want dimm *", totals[0].Class, totals[0].Name)
	}
	if got := totals[0].Occupancy(p.Run.Span()); got != 0.5 {
		t.Fatalf("dimm class occupancy = %g, want 0.5", got)
	}
}

func TestProfileEmpty(t *testing.T) {
	p := NewProfile(nil)
	if len(p.Windows) != 0 {
		t.Fatal("empty profile must have no windows")
	}
	if _, ok := p.Run.Critical(); ok {
		t.Fatal("empty profile must have no critical resource")
	}
}

func TestParseUtilName(t *testing.T) {
	cases := []struct {
		in                string
		class, name, kind string
		ok                bool
	}{
		{"util.dimm.s0.d0.busy_cycles", "dimm", "s0.d0", "busy_cycles", true},
		{"util.link.host-s0.up.width", "link", "host-s0.up", "width", true},
		{"util.pe.node0.wait_cycles", "pe", "node0", "wait_cycles", true},
		{"util.pe.node0.other", "", "", "", false},
		{"dram.s0.d0.reads", "", "", "", false},
		{"util.x", "", "", "", false},
		{"util..x.busy_cycles", "", "", "", false},
	}
	for _, c := range cases {
		class, name, kind, ok := parseUtilName(c.in)
		if ok != c.ok || class != c.class || name != c.name || kind != c.kind {
			t.Errorf("parseUtilName(%q) = %q,%q,%q,%v want %q,%q,%q,%v",
				c.in, class, name, kind, ok, c.class, c.name, c.kind, c.ok)
		}
	}
}

func TestUsageOccupancyGuards(t *testing.T) {
	u := Usage{Width: 0, Busy: 10}
	if u.Occupancy(100) != 0 {
		t.Error("zero width must yield 0 occupancy")
	}
	u.Width = 2
	if u.Occupancy(0) != 0 || u.BusyFraction(-5) != 0 {
		t.Error("non-positive window must yield 0")
	}
}
