package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestScheduleIsFixedBySeed(t *testing.T) {
	for k := 0; k < 2*daemonCycle; k++ {
		a, b := daemonSpec(7, k), daemonSpec(7, k)
		if a.CanonicalHash() != b.CanonicalHash() {
			t.Fatalf("daemon spec %d differs between calls with one seed", k)
		}
		if a.CanonicalHash() == daemonSpec(8, k).CanonicalHash() {
			t.Fatalf("daemon spec %d ignores the seed", k)
		}
	}
	for i := 0; i < 2*len(buildApps); i++ {
		a1, s1 := buildOp(7, i)
		a2, s2 := buildOp(7, i)
		if a1 != a2 || s1 != s2 {
			t.Fatalf("build op %d differs between calls with one seed", i)
		}
		if _, s3 := buildOp(8, i); s3 == s1 {
			t.Fatalf("build op %d ignores the seed", i)
		}
	}
	if !reflect.DeepEqual(pairs(4), pairs(4)) || len(pairs(4)) != 12 {
		t.Fatal("replay cycle is not a fixed order of all 12 pairs")
	}
}

func TestDaemonCycleMix(t *testing.T) {
	// Each round of tenantOffset ops per tenant covers one whole cycle.
	seen := make(map[string]int)
	for i := 0; i < tenantOffset; i++ {
		for tn := range tenants {
			s := daemonSpec(1, i+tn*tenantOffset)
			seen[s.Kind.String()+"/"+s.Workload.App.String()+"/"+s.Faults]++
		}
	}
	for key, n := range seen {
		if want := map[bool]int{true: 4, false: 2}[key[:3] == "ddr"]; n != want {
			t.Errorf("%s appears %d times per round, want %d", key, n, want)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if p, err := percentile(xs, 0.9); err != nil || p != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", p, err)
	}
	if p, err := percentile(xs, 0.5); err != nil || p != 50 {
		t.Fatalf("p50 of 1..100 = %v, %v; want 50", p, err)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(xs[:10], 0.5); err == nil {
		t.Fatal("p50 of 10 samples must be refused")
	}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: ms(0), End: ms(100)},
		{ID: 1, Parent: 0, Name: "a.x", Start: ms(10), End: ms(40)},
		{ID: 2, Parent: 0, Name: "b.y", Start: ms(30), End: ms(60)}, // overlaps a.x
		{ID: 3, Parent: 1, Name: "c.z", Start: ms(15), End: ms(20)},
		{ID: 4, Parent: -1, Name: "op", Start: ms(200), End: ms(210)},
		{ID: 5, Parent: 4, Name: "a.x", Start: ms(195), End: ms(205)}, // clipped to parent
	}
	got := totals(spans)
	want := map[string][2]time.Duration{ // name -> {total, self}
		"op":  {ms(110), ms(50 + 5)},
		"a.x": {ms(40), ms(25 + 10)},
		"b.y": {ms(30), ms(30)},
		"c.z": {ms(5), ms(5)},
	}
	for name, w := range want {
		g := got[name]
		if g == nil || g.total != w[0] || g.self != w[1] {
			t.Errorf("%s: got %+v, want total %v self %v", name, g, w[0], w[1])
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	units := layerUnits()
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			res, err := benchmark(name, options{seed: 1, seconds: 0.01, trace: traced, workdir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minOps {
				t.Fatalf("%s trace=%v: %+v", name, traced, res)
			}
			want := 5
			if traced {
				want = len(units)
			}
			if len(res.Metrics) != want {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), want)
			}
		}
	}
}

func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	units := layerUnits()
	if len(spec.PerLayer) != len(units) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(spec.PerLayer), len(units))
	}
	for _, m := range spec.PerLayer {
		if units[m.Name] != m.Unit {
			t.Errorf("per-layer %s: BENCHMARK.json unit %q, benchmark unit %q", m.Name, m.Unit, units[m.Name])
		}
	}
	if len(spec.EndToEnd) != 5 {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports 5", len(spec.EndToEnd))
	}
}
