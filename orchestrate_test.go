package beacon

import (
	"context"
	"errors"
	"reflect"
	"strings"
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
// the whole-harness version of the ladder test above. The second input
// adds the ablation sweeps under the heavy fault profile, so the memoized
// runs, the fault summary and the sweeps are held to the same contract.
func TestSerialParallelEvaluationEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t.Parallel()
	for _, opts := range []EvalOptions{
		{},
		{Ablations: true, Faults: HeavyFaultProfile(), FaultSeed: 42},
	} {
		serialOpts, parallelOpts := opts, opts
		serialOpts.Jobs, parallelOpts.Jobs = 1, 8
		serial, err := RunEvaluation(context.Background(), tinyRC(), serialOpts)
		if err != nil {
			t.Fatalf("serial: %v", err)
		}
		parallel, err := RunEvaluation(context.Background(), tinyRC(), parallelOpts)
		if err != nil {
			t.Fatalf("parallel: %v", err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("ablations=%v faults=%v: serial and parallel evaluations are not deeply equal",
				opts.Ablations, opts.Faults.Enabled())
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
		if (serial.Ablations != "") != opts.Ablations {
			t.Errorf("ablations present = %v, requested = %v", serial.Ablations != "", opts.Ablations)
		}
		if (serial.Faults != nil) != opts.Faults.Enabled() {
			t.Errorf("fault summary present = %v, injection = %v", serial.Faults != nil, opts.Faults.Enabled())
		}
	}
}

// TestRunMemo asserts the timing phase is shared like the functional phase:
// a full evaluation with ablations asks for 281 simulations (255 figure
// cells, 26 sweep points) but runs each distinct (workload, platform,
// resolved machine) key once: 170 distinct figure runs, since the ladders'
// CPU/DDR references, Fig. 3's DDR runs, Fig. 17 and the summaries reuse
// ladder runs, plus 20 sweep points. Six points resolve to a figure's
// machine: the open-page FM-seeding row-policy point, group=8, cxlg=2 and
// switches=2 are Fig. 13's full-stack BEACON-D run, and the x8 link and
// inflight=4096 (16 tasks per PE, the default depth) are Fig. 12's
// BEACON-S final step. A second evaluation on the same evaluator runs
// nothing new.
func TestRunMemo(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t.Parallel()
	var log strings.Builder
	e := NewEvaluator(tinyRC(), EvalOptions{Jobs: 4, Ablations: true, Progress: &syncBuilder{b: &log}})
	first, err := e.evaluate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(log.String(), " done "); got != 281 {
		t.Errorf("evaluation ran %d simulation jobs, want 281", got)
	}
	const distinct = 170 + 20
	if got := e.runs.Builds(); got != distinct {
		t.Errorf("memo simulated %d runs, want %d distinct", got, distinct)
	}
	second, err := e.evaluate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := e.runs.Builds(); got != distinct {
		t.Errorf("second evaluation simulated %d new runs, want 0", got-distinct)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("memoized evaluation differs from the first")
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

	cfg := e.rc.workloadConfig(KmerCounting, Human, MultiPass)
	cached, err := e.workload(WorkloadSpec{App: KmerCounting, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewWorkload(KmerCounting, cfg)
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

// TestOnceMapPanic asserts a build that panics leaves its key failed, so
// later callers get an error instead of a zero value.
func TestOnceMapPanic(t *testing.T) {
	t.Parallel()
	var m onceMap[int, *Report]
	func() {
		defer func() { _ = recover() }()
		_, _ = m.get(1, func() (*Report, error) { panic("boom") })
	}()
	rep, err := m.get(1, func() (*Report, error) { return &Report{}, nil })
	if rep != nil || !errors.Is(err, errBuildPanicked) {
		t.Errorf("after a panicked build: get = %v, %v; want nil, errBuildPanicked", rep, err)
	}
	if got := m.Builds(); got != 1 {
		t.Errorf("Builds() = %d, want 1", got)
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
