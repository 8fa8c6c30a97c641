package trace

import (
	"strings"
	"testing"
)

func validWorkload() *Workload {
	wl := &Workload{Name: "w", Passes: 1}
	wl.SpaceBytes[SpaceOcc] = 1024
	wl.SpaceBytes[SpaceReads] = 64
	wl.Tasks = []Task{
		{Engine: EngineFMIndex, Steps: []Step{
			{Op: OpRead, Space: SpaceReads, Addr: 0, Size: 16, Spatial: true},
			{Op: OpRead, Space: SpaceOcc, Addr: 992, Size: 32},
		}},
		{Engine: EngineKMC, Steps: []Step{
			{Op: OpAtomicRMW, Space: SpaceOcc, Addr: 0, Size: 1},
		}},
	}
	return wl
}

func TestValidateAccepts(t *testing.T) {
	if err := validWorkload().Validate(); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Workload)
	}{
		{"zero passes", func(w *Workload) { w.Passes = 0 }},
		{"no tasks", func(w *Workload) { w.Tasks = nil }},
		{"bad engine", func(w *Workload) { w.Tasks[0].Engine = NumEngines }},
		{"bad space", func(w *Workload) { w.Tasks[0].Steps[0].Space = NumSpaces }},
		{"zero size", func(w *Workload) { w.Tasks[0].Steps[0].Size = 0 }},
		{"out of bounds", func(w *Workload) { w.Tasks[0].Steps[1].Addr = 1000 }},
		{"unused space", func(w *Workload) { w.Tasks[0].Steps[0].Space = SpaceBloom }},
	}
	for _, c := range cases {
		wl := validWorkload()
		c.mut(wl)
		if wl.Validate() == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestAggregates(t *testing.T) {
	wl := validWorkload()
	if got := wl.TotalSteps(); got != 3 {
		t.Errorf("TotalSteps = %d, want 3", got)
	}
	if got := wl.TotalBytes(); got != 49 {
		t.Errorf("TotalBytes = %d, want 49", got)
	}
	if got := wl.FootprintBytes(); got != 1088 {
		t.Errorf("FootprintBytes = %d, want 1088", got)
	}
}

func TestEngineLatencies(t *testing.T) {
	// The paper's §VI-A synthesized latencies.
	want := []struct {
		e Engine
		w int
	}{
		{EngineFMIndex, 16},
		{EngineHashIndex, 10},
		{EngineKMC, 59},
		{EnginePreAlign, 82},
	}
	for _, tc := range want {
		if got := tc.e.ComputeCycles(); got != tc.w {
			t.Errorf("%v latency = %d, want %d", tc.e, got, tc.w)
		}
	}
	if Engine(99).ComputeCycles() <= 0 {
		t.Error("unknown engine latency must be positive")
	}
}

func TestStringers(t *testing.T) {
	if SpaceOcc.String() != "occ" || SpaceReads.String() != "reads" {
		t.Error("space names broken")
	}
	if !strings.Contains(Space(99).String(), "99") {
		t.Error("unknown space should render numerically")
	}
	if OpRead.String() != "read" || OpWrite.String() != "write" || OpAtomicRMW.String() != "rmw" {
		t.Error("op names broken")
	}
	if !strings.Contains(Op(9).String(), "9") {
		t.Error("unknown op should render numerically")
	}
	if EngineKMC.String() != "kmc" {
		t.Error("engine names broken")
	}
	if !strings.Contains(Engine(9).String(), "9") {
		t.Error("unknown engine should render numerically")
	}
}

// TestPieceBound pins the walk-slab bound: the n largest per-task peaks,
// each the most blocks one step touches at its kind's granule, counted at
// the largest power of two dividing the granule.
func TestPieceBound(t *testing.T) {
	step := func(addr uint64, size uint32, spatial bool) Step {
		return Step{Space: SpaceOcc, Addr: addr, Size: size, Spatial: spatial}
	}
	wl := &Workload{Tasks: []Task{
		{Steps: []Step{step(0, 32, false), step(16, 32, false)}},  // 2 at 32, 1 at 64
		{Steps: []Step{step(64, 64, false)}},                      // 2 at 32, 1 at 64
		{Steps: []Step{step(8, 100, false)}},                      // 4 at 32, 2 at 64
		{Steps: []Step{step(0, 1, false), step(4000, 200, true)}}, // 2 spatial at 4096
		{}, // no steps: peak 0
	}}
	for _, c := range []struct {
		hot, spatial uint64
		n, want      int
	}{
		{32, 4096, 1, 4}, {32, 4096, 2, 6}, {32, 4096, 3, 8}, {32, 4096, 5, 10}, {32, 4096, 9, 10},
		{96, 4096, 5, 10}, // 96 counts at 32
		{64, 4096, 5, 6},
		{64, 64, 5, 8}, // the spatial step touches 4 blocks of 64
	} {
		if got := wl.PieceBound(c.hot, c.spatial, c.n); got != c.want {
			t.Errorf("PieceBound(%d, %d, %d) = %d, want %d", c.hot, c.spatial, c.n, got, c.want)
		}
	}
}
