package beacon

import (
	"strings"
	"testing"

	"beacon/internal/obs"
	"beacon/internal/report"
)

// profileFor simulates one platform instrumented and returns the
// utilization profile of its snapshot series.
func profileFor(t *testing.T, kind PlatformKind) obs.Profile {
	t.Helper()
	wl, err := NewFMSeedingWorkload(quickCfg(PinusTaeda))
	if err != nil {
		t.Fatal(err)
	}
	ob := obs.New(kind.String())
	ob.SampleEvery = 100_000
	if _, err := Run(Platform{Kind: kind, Opts: AllOptimizations()}, wl, WithObserver(ob)); err != nil {
		t.Fatal(err)
	}
	return obs.NewProfile(ob.Metrics.Snapshots())
}

// TestBottleneckAttributionGolden pins each timed platform's critical
// resource on the quick workload. These are the headline claims of the
// attribution layer: the host-DDR NDP baseline saturates its shared
// channel bus (the communication bottleneck the BEACON design removes),
// while the BEACON platforms push occupancy down into the DRAM devices
// themselves. A change here means the simulated machine's balance moved —
// that must be a deliberate decision, not drift.
func TestBottleneckAttributionGolden(t *testing.T) {
	t.Parallel()
	want := []struct {
		kind  PlatformKind
		class string
	}{
		{DDRBaseline, obs.ClassBus}, // shared channel bus saturates first
		{BeaconD, obs.ClassDIMM},    // near-bank PEs move the limit to DRAM
		{BeaconS, obs.ClassDIMM},
	}
	for _, w := range want {
		kind, class := w.kind, w.class
		p := profileFor(t, kind)
		u, ok := p.Run.Critical()
		if !ok {
			t.Errorf("%v: no critical resource", kind)
			continue
		}
		if u.Class != class {
			t.Errorf("%v: critical resource is %s %s (%.1f%% occupied), want class %s",
				kind, u.Class, u.Name, 100*u.Occupancy(p.Run.Span()), class)
		}
		// The report layer must render the same attribution.
		summary := report.CriticalSummary(p)
		if !strings.Contains(summary, "critical resource: "+class) {
			t.Errorf("%v: summary %q does not name class %s", kind, summary, class)
		}
	}
}

// TestProfileDiffSelfIsEmpty is the unit-level version of the beaconprof
// -diff acceptance check: two identical-seed instrumented runs must
// produce artifacts that diff empty at zero tolerance.
func TestProfileDiffSelfIsEmpty(t *testing.T) {
	t.Parallel()
	wl, err := NewFMSeedingWorkload(quickCfg(PinusTaeda))
	if err != nil {
		t.Fatal(err)
	}
	run := func() *obs.MetricsDump {
		col := obs.NewCollection()
		col.SampleEvery = 100_000
		ob := col.New("fm-seeding/Pt/beacon-d")
		if _, err := Run(Platform{Kind: BeaconD, Opts: AllOptimizations()}, wl, WithObserver(ob)); err != nil {
			t.Fatal(err)
		}
		d := col.Dump()
		return &d
	}
	a, b := run(), run()
	if diffs := obs.DiffMetrics(a, b, obs.DiffOptions{}); len(diffs) != 0 {
		t.Fatalf("identical runs differ: %v", diffs)
	}
}

// TestOpenMetricsExportOfRealRun asserts a real simulation's OpenMetrics
// exposition passes the package's validating parser — the same check CI's
// prof-smoke job and beaconprof -check apply to artifacts on disk.
func TestOpenMetricsExportOfRealRun(t *testing.T) {
	t.Parallel()
	wl, err := NewFMSeedingWorkload(quickCfg(PinusTaeda))
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollection()
	ob := col.New("fm-seeding/Pt/beacon-d")
	if _, err := Run(Platform{Kind: BeaconD, Opts: AllOptimizations()}, wl, WithObserver(ob)); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := col.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseOpenMetrics(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("exposition rejected by parser: %v", err)
	}
	hasUtil := false
	for _, f := range fams {
		if strings.HasPrefix(f.Name, "util_") {
			hasUtil = true
			break
		}
	}
	if !hasUtil {
		t.Fatal("exposition carries no util_* families")
	}
}
