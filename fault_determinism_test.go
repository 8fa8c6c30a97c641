package beacon

import (
	"context"
	"reflect"
	"testing"
)

// TestFaultDeterminism is the acceptance test for the fault-injection PR:
// with a fault profile enabled at a fixed seed, optimization ladders must be
// deeply equal between a serial evaluator (jobs=1) and a wide pool (jobs=8)
// — including every injected-fault counter. Fault draws are keyed by
// (seed, component, cycle), never by scheduling order, so this holds at any
// pool width; CI runs this test under the race detector.
func TestFaultDeterminism(t *testing.T) {
	t.Parallel()
	mk := func(jobs int) *Evaluator {
		return NewEvaluator(tinyRC(), EvalOptions{Jobs: jobs, Faults: HeavyFaultProfile(), FaultSeed: 42})
	}
	serial, parallel := mk(1), mk(8)
	for _, tc := range []struct {
		app  Application
		kind PlatformKind
	}{
		{FMSeeding, BeaconD},
		{KmerCounting, BeaconS},
		{PreAlignment, BeaconD},
	} {
		s, err := serial.runLadder(context.Background(), tc.app, tc.kind)
		if err != nil {
			t.Fatalf("serial %v/%v: %v", tc.app, tc.kind, err)
		}
		p, err := parallel.runLadder(context.Background(), tc.app, tc.kind)
		if err != nil {
			t.Fatalf("parallel %v/%v: %v", tc.app, tc.kind, err)
		}
		if !reflect.DeepEqual(s, p) {
			t.Errorf("%v/%v: fault-injected ladders diverge between jobs=1 and jobs=8:\nserial:   %+v\nparallel: %+v",
				tc.app, tc.kind, s, p)
		}
	}
	// The aggregated per-platform counters — summed in job-completion order
	// on the parallel pool — must also match, must have actually injected
	// something on every exercised BEACON platform, and must render
	// identically.
	ss, ps := serial.FaultSummary(), parallel.FaultSummary()
	if ss == nil || len(ss.Rows) != 2 {
		t.Fatalf("fault summary missing or wrong shape: %+v", ss)
	}
	if !reflect.DeepEqual(ss, ps) {
		t.Fatalf("fault summaries diverge:\nserial:   %+v\nparallel: %+v", ss, ps)
	}
	for _, row := range ss.Rows {
		if row.Stats.Total() == 0 {
			t.Errorf("%v: heavy profile injected no faults", row.Kind)
		}
	}
	if ss.String() != ps.String() {
		t.Error("rendered fault summaries differ")
	}
}

// TestFaultSummaryAbsentWhenDisabled pins the off-by-default contract: an
// evaluator without a fault profile reports no fault summary, and its
// ladders are deeply equal to a fault-configured evaluator running the
// all-zero profile (injection fully compiled out of the hot path).
func TestFaultSummaryAbsentWhenDisabled(t *testing.T) {
	t.Parallel()
	plain := NewEvaluator(tinyRC(), EvalOptions{Jobs: 2})
	zeroed := NewEvaluator(tinyRC(), EvalOptions{Jobs: 2, FaultSeed: 99})
	a, err := plain.runLadder(context.Background(), FMSeeding, BeaconD)
	if err != nil {
		t.Fatal(err)
	}
	b, err := zeroed.runLadder(context.Background(), FMSeeding, BeaconD)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("zero fault profile perturbs the simulation")
	}
	if s := plain.FaultSummary(); s != nil {
		t.Fatalf("fault summary present without injection: %+v", s)
	}
	if s := zeroed.FaultSummary(); s != nil {
		t.Fatalf("fault summary present for the zero profile: %+v", s)
	}
}
