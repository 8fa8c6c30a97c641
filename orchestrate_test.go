package beacon

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// tinyRC is the smallest scale the equivalence tests run at: big enough for
// every kernel's functional verification, small enough that running figures
// twice (serial + parallel) stays cheap under -race.
func tinyRC() RunConfig { return RunConfig{GenomeScale: 6_000, Reads: 80, Seed: 0xBEAC07} }

// TestDeterminismGolden runs every platform kind twice with the same seed
// and asserts the complete timing/energy/traffic result is identical — the
// per-job half of the orchestrator's determinism contract.
func TestDeterminismGolden(t *testing.T) {
	t.Parallel()
	wl, err := NewFMSeedingWorkload(quickCfg(PinusTaeda))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []PlatformKind{CPU, DDRBaseline, BeaconD, BeaconS} {
		p := Platform{Kind: kind, Opts: AllOptimizations()}
		ra, err := Run(p, wl)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		rb, err := Run(p, wl)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		a, b := ra.Report, rb.Report
		if a.Cycles != b.Cycles || a.EnergyPJ != b.EnergyPJ {
			t.Errorf("%v: cycles/energy differ across identical runs: %d/%g vs %d/%g",
				kind, a.Cycles, a.EnergyPJ, b.Cycles, b.EnergyPJ)
		}
		if a.WireBytes != b.WireBytes || a.HostCrossings != b.HostCrossings {
			t.Errorf("%v: traffic differs across identical runs", kind)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: reports not deeply equal", kind)
		}
	}
}

// TestSerialParallelLadderEquivalence is the headline equivalence test for
// the orchestrator: the same ladder run serially (jobs=1) and on a wide
// pool must produce deeply-equal figures, bit for bit.
func TestSerialParallelLadderEquivalence(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		app  Application
		kind PlatformKind
	}{
		{KmerCounting, BeaconD},
		{KmerCounting, BeaconS},
		{FMSeeding, BeaconD},
	} {
		serial, err := NewEvaluator(tinyRC(), EvalOptions{Jobs: 1}).runLadder(context.Background(), tc.app, tc.kind)
		if err != nil {
			t.Fatalf("serial %v/%v: %v", tc.app, tc.kind, err)
		}
		parallel, err := NewEvaluator(tinyRC(), EvalOptions{Jobs: 8}).runLadder(context.Background(), tc.app, tc.kind)
		if err != nil {
			t.Fatalf("parallel %v/%v: %v", tc.app, tc.kind, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%v/%v: serial and parallel ladders differ:\nserial:   %+v\nparallel: %+v",
				tc.app, tc.kind, serial, parallel)
		}
	}
}

// TestSerialParallelEvaluationEquivalence runs the full evaluation twice —
// jobs=1 and jobs=8 — and asserts every figure is deeply equal. This is
// the whole-harness version of the ladder test above.
func TestSerialParallelEvaluationEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t.Parallel()
	serial, err := RunEvaluation(context.Background(), tinyRC(), EvalOptions{Jobs: 1})
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	parallel, err := RunEvaluation(context.Background(), tinyRC(), EvalOptions{Jobs: 8})
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("serial and parallel evaluations are not deeply equal")
	}
	// Spot-check the evaluation is populated.
	if serial.Fig3 == nil || len(serial.Fig3.Rows) != 11 {
		t.Error("Fig3 missing or wrong shape")
	}
	for _, fig := range []*LadderFigure{serial.Fig12D, serial.Fig12S, serial.Fig14D, serial.Fig14S, serial.Fig15D, serial.Fig15S} {
		if fig == nil || len(fig.Entries) == 0 {
			t.Fatal("ladder figure missing or empty")
		}
	}
	if serial.Fig13 == nil || serial.Fig16 == nil || serial.Fig17D == nil || serial.Fig17S == nil {
		t.Error("figure 13/16/17 missing")
	}
	if serial.SummaryD == nil || serial.SummaryS == nil {
		t.Error("optimization summaries missing")
	}
	if serial.Ablations != "" {
		t.Error("ablations present without being requested")
	}
}

// TestWorkloadCache asserts the functional phase is shared: a ladder's many
// simulations must not rebuild the same workload, and the cached workload
// must be indistinguishable from a fresh build.
func TestWorkloadCache(t *testing.T) {
	t.Parallel()
	e := NewEvaluator(tinyRC(), EvalOptions{Jobs: 4})
	if _, err := e.runLadder(context.Background(), KmerCounting, BeaconS); err != nil {
		t.Fatal(err)
	}
	// The k-mer ladder needs exactly two functional builds: the multi-pass
	// and single-pass flows. CPU/DDR/steps/ideal all replay those two.
	if got := e.cache.Builds(); got != 2 {
		t.Errorf("cache built %d workloads, want 2", got)
	}

	cached, err := e.workload(KmerCounting, Human, MultiPass)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewWorkload(KmerCounting, e.rc.workloadConfig(KmerCounting, Human, MultiPass))
	if err != nil {
		t.Fatal(err)
	}
	if cached.Name != fresh.Name || cached.Tasks != fresh.Tasks ||
		cached.Steps != fresh.Steps || cached.FootprintBytes != fresh.FootprintBytes {
		t.Errorf("cached workload differs from fresh build: %+v vs %+v", cached, fresh)
	}
	a, err := Run(Platform{Kind: BeaconS}, cached)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Platform{Kind: BeaconS}, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("cached and fresh workloads simulate differently")
	}
}

// TestEvaluatorTimeout asserts the -timeout knob aborts a run cleanly: an
// evaluation through EvalOptions.Timeout, a figure method through its ctx.
func TestEvaluatorTimeout(t *testing.T) {
	t.Parallel()
	if _, err := RunEvaluation(context.Background(), tinyRC(), EvalOptions{Jobs: 2, Timeout: time.Nanosecond}); err == nil {
		t.Error("nanosecond timeout did not abort the evaluation")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	if _, err := NewEvaluator(tinyRC(), EvalOptions{Jobs: 2}).Figure3(ctx); err == nil {
		t.Error("nanosecond timeout did not abort the figure")
	}
}

// TestEvaluatorJobs pins the pool-width plumbing.
func TestEvaluatorJobs(t *testing.T) {
	t.Parallel()
	if got := NewEvaluator(tinyRC(), EvalOptions{Jobs: 3}).Jobs(); got != 3 {
		t.Errorf("Jobs() = %d, want 3", got)
	}
}
