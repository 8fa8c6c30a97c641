package extend

import (
	"testing"
	"testing/quick"

	"beacon/internal/core"
	"beacon/internal/sim"
	"beacon/internal/trace"
)

func testGraph(t *testing.T) *Graph {
	t.Helper()
	cfg := DefaultGraphConfig()
	cfg.Vertices = 3000
	g, err := NewGraph(cfg)
	if err != nil {
		t.Fatalf("NewGraph: %v", err)
	}
	return g
}

func TestNewGraphValidation(t *testing.T) {
	if _, err := NewGraph(GraphConfig{Vertices: 1, AvgDegree: 2}); err == nil {
		t.Error("single vertex accepted")
	}
	if _, err := NewGraph(GraphConfig{Vertices: 10, AvgDegree: 0}); err == nil {
		t.Error("zero degree accepted")
	}
}

func TestGraphShape(t *testing.T) {
	g := testGraph(t)
	if g.NumVertices() != 3000 {
		t.Errorf("vertices = %d", g.NumVertices())
	}
	if g.NumEdges() == 0 {
		t.Fatal("no edges")
	}
	if int(g.Offsets[g.NumVertices()]) != g.NumEdges() {
		t.Error("offsets do not cover the edge array")
	}
	for _, w := range g.Edges {
		if int(w) >= g.NumVertices() {
			t.Fatal("edge target out of range")
		}
	}
}

func TestBFSReferenceProperties(t *testing.T) {
	g := testGraph(t)
	levels := g.BFS(0)
	if err := VerifyBFS(g, 0, levels); err != nil {
		t.Fatalf("VerifyBFS: %v", err)
	}
	reached := 0
	for _, l := range levels {
		if l >= 0 {
			reached++
		}
	}
	// A random graph with avg degree 8 is almost surely mostly connected.
	if reached < g.NumVertices()/2 {
		t.Errorf("only %d/%d vertices reached", reached, g.NumVertices())
	}
}

func TestVerifyBFSCatchesCorruption(t *testing.T) {
	g := testGraph(t)
	levels := g.BFS(0)
	levels[1500] = 0 // a second "root"
	if err := VerifyBFS(g, 0, levels); err == nil {
		t.Error("corrupted levels accepted")
	}
}

func TestBFSWorkloadTrace(t *testing.T) {
	g := testGraph(t)
	levels, wl, err := BFSWorkload(g, 0, "bfs")
	if err != nil {
		t.Fatalf("BFSWorkload: %v", err)
	}
	if err := VerifyBFS(g, 0, levels); err != nil {
		t.Fatalf("VerifyBFS: %v", err)
	}
	if err := wl.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	reached := 0
	for _, l := range levels {
		if l >= 0 {
			reached++
		}
	}
	if len(wl.Tasks) != reached {
		t.Errorf("tasks = %d, want one per reached vertex (%d)", len(wl.Tasks), reached)
	}
	// Visited-bitmap updates must be atomic and 1 B.
	for _, s := range wl.Tasks[0].Steps {
		if s.Space == trace.SpaceBloom && (s.Op != trace.OpAtomicRMW || s.Size != 1) {
			t.Fatalf("visited update op=%v size=%d", s.Op, s.Size)
		}
	}
	if _, _, err := BFSWorkload(g, -1, "bad"); err == nil {
		t.Error("bad root accepted")
	}
}

func TestBFSWorkloadRunsOnBeacon(t *testing.T) {
	g := testGraph(t)
	_, wl, err := BFSWorkload(g, 0, "bfs")
	if err != nil {
		t.Fatalf("BFSWorkload: %v", err)
	}
	for _, design := range []core.Design{core.DesignD, core.DesignS} {
		res, err := core.Run(core.DefaultConfig(design, core.Options{
			DataPacking: true, MemAccessOpt: true, Placement: true}), wl)
		if err != nil {
			t.Fatalf("%v: %v", design, err)
		}
		if res.Tasks != len(wl.Tasks) {
			t.Errorf("%v: %d/%d tasks", design, res.Tasks, len(wl.Tasks))
		}
	}
}

func TestBTreeLookupMatchesReference(t *testing.T) {
	cfg := DefaultBTreeConfig()
	cfg.Keys = 10000
	tr, err := NewBTree(cfg)
	if err != nil {
		t.Fatalf("NewBTree: %v", err)
	}
	rng := sim.NewRNG(5)
	for i := 0; i < 3000; i++ {
		var key uint64
		if i%2 == 0 {
			key = tr.keys[rng.Intn(len(tr.keys))]
		} else {
			key = rng.Uint64()
		}
		got, slots := tr.Lookup(key)
		if want := tr.Contains(key); got != want {
			t.Fatalf("Lookup(%d) = %v, want %v", key, got, want)
		}
		if len(slots) != tr.Depth() {
			t.Fatalf("walk visited %d levels, want %d", len(slots), tr.Depth())
		}
	}
}

func TestBTreeValidation(t *testing.T) {
	if _, err := NewBTree(BTreeConfig{Keys: 0, Fanout: 4}); err == nil {
		t.Error("zero keys accepted")
	}
	if _, err := NewBTree(BTreeConfig{Keys: 10, Fanout: 1}); err == nil {
		t.Error("fanout 1 accepted")
	}
}

func TestBTreeProbeWorkload(t *testing.T) {
	tr, err := NewBTree(DefaultBTreeConfig())
	if err != nil {
		t.Fatalf("NewBTree: %v", err)
	}
	found, wl, err := tr.ProbeWorkload(2000, 7, "db")
	if err != nil {
		t.Fatalf("ProbeWorkload: %v", err)
	}
	// Half the queries are known-present keys.
	if found < 1000 {
		t.Errorf("found = %d, want >= 1000", found)
	}
	if err := wl.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(wl.Tasks) != 2000 {
		t.Errorf("tasks = %d", len(wl.Tasks))
	}
	// Each probe reads depth-1 nodes of 64 B.
	want := tr.Depth() - 1
	for _, task := range wl.Tasks[:10] {
		if len(task.Steps) != want {
			t.Fatalf("probe has %d steps, want %d", len(task.Steps), want)
		}
		for _, s := range task.Steps {
			if s.Size != 64 {
				t.Fatalf("node read size %d, want 64", s.Size)
			}
		}
	}
	if _, _, err := tr.ProbeWorkload(0, 7, "x"); err == nil {
		t.Error("zero queries accepted")
	}
}

func TestBTreeProbeRunsOnBeacon(t *testing.T) {
	tr, _ := NewBTree(DefaultBTreeConfig())
	_, wl, err := tr.ProbeWorkload(1500, 9, "db")
	if err != nil {
		t.Fatalf("ProbeWorkload: %v", err)
	}
	all := core.Options{DataPacking: true, MemAccessOpt: true, Placement: true, Coalescing: true}
	res, err := core.Run(core.DefaultConfig(core.DesignD, all), wl)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Tasks != 1500 {
		t.Errorf("tasks = %d", res.Tasks)
	}
}

// Property: BFS levels are invariant under the trace-emitting path.
func TestBFSDeterministicProperty(t *testing.T) {
	f := func(seed uint16) bool {
		cfg := GraphConfig{Vertices: 300, AvgDegree: 4, Seed: uint64(seed)}
		g, err := NewGraph(cfg)
		if err != nil {
			return false
		}
		l1, _, err := BFSWorkload(g, 0, "a")
		if err != nil {
			return false
		}
		l2 := g.BFS(0)
		for i := range l1 {
			if l1[i] != l2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
