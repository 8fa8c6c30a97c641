package beacon

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"beacon/internal/obs"
	"beacon/internal/runner"
)

// TestObservabilityDeterminism is the acceptance test for the observability
// layer's hard rule: attaching metrics and tracing must not move a single
// cycle. Every platform kind simulates once bare and once fully
// instrumented (tight sampling cadence included); the reports must be
// deeply equal, and the instrumented run must dump valid JSON.
func TestObservabilityDeterminism(t *testing.T) {
	t.Parallel()
	wl, err := NewFMSeedingWorkload(quickCfg(PinusTaeda))
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollection()
	col.SampleEvery = 500 // aggressive cadence: many OnAdvance snapshots
	for _, kind := range []PlatformKind{CPU, DDRBaseline, BeaconD, BeaconS} {
		p := Platform{Kind: kind, Opts: AllOptimizations()}
		bare, err := Run(p, wl)
		if err != nil {
			t.Fatalf("%v bare: %v", kind, err)
		}
		ob := col.New(kind.String())
		observed, err := Run(p, wl, WithObserver(ob))
		if err != nil {
			t.Fatalf("%v observed: %v", kind, err)
		}
		if bare.Report.Cycles != observed.Report.Cycles {
			t.Errorf("%v: observability moved the clock: %d vs %d cycles",
				kind, bare.Report.Cycles, observed.Report.Cycles)
		}
		if !reflect.DeepEqual(bare, observed) {
			t.Errorf("%v: bare and observed reports differ:\n%+v\nvs\n%+v",
				kind, bare, observed)
		}
		if kind != CPU {
			// Timed platforms must actually have recorded something.
			snaps := ob.Metrics.Snapshots()
			if len(snaps) == 0 {
				t.Errorf("%v: no metric snapshots recorded", kind)
			}
			if ob.Trace.Events() == 0 {
				t.Errorf("%v: no trace events recorded", kind)
			}
			// The utilization accountant must cover every timed platform:
			// without util.* series there is nothing to attribute.
			hasUtil := false
			for name := range snaps[len(snaps)-1].Values {
				if strings.HasPrefix(name, "util.") {
					hasUtil = true
					break
				}
			}
			if !hasUtil {
				t.Errorf("%v: no util.* metrics in snapshots", kind)
			}
		}
	}

	// A co-located run observes the same way: the observed report equals
	// the bare one, and the observer records the run.
	second, err := NewHashSeedingWorkload(quickCfg(PinusTaeda))
	if err != nil {
		t.Fatal(err)
	}
	p := Platform{Kind: BeaconD, Opts: AllOptimizations()}
	bare, err := Run(p, wl, WithCoRun(second))
	if err != nil {
		t.Fatalf("co-run bare: %v", err)
	}
	ob := col.New("co-run")
	observed, err := Run(p, wl, WithCoRun(second), WithObserver(ob))
	if err != nil {
		t.Fatalf("co-run observed: %v", err)
	}
	if !reflect.DeepEqual(bare, observed) {
		t.Errorf("co-run: bare and observed results differ:\n%+v\nvs\n%+v", bare.Report, observed.Report)
	}
	if len(ob.Metrics.Snapshots()) == 0 || ob.Trace.Events() == 0 {
		t.Error("co-run: observer recorded nothing")
	}

	var metrics, trace strings.Builder
	if err := col.WriteMetricsJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(metrics.String())) {
		t.Error("metrics dump is not valid JSON")
	}
	if err := col.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(trace.String())) {
		t.Error("chrome trace dump is not valid JSON")
	}
}

// TestObservedRunsAreRepeatable asserts two instrumented runs of the same
// simulation produce byte-identical metric and trace dumps — the property
// that makes obs output goldenable.
func TestObservedRunsAreRepeatable(t *testing.T) {
	t.Parallel()
	wl, err := NewFMSeedingWorkload(quickCfg(PinusTaeda))
	if err != nil {
		t.Fatal(err)
	}
	dump := func() (string, string) {
		ob := obs.New("run")
		ob.SampleEvery = 1000
		if _, err := Run(Platform{Kind: BeaconD, Opts: AllOptimizations()}, wl, WithObserver(ob)); err != nil {
			t.Fatal(err)
		}
		var m, tr strings.Builder
		if err := ob.Metrics.WriteJSON(&m); err != nil {
			t.Fatal(err)
		}
		if err := ob.Trace.WriteChromeTrace(&tr); err != nil {
			t.Fatal(err)
		}
		return m.String(), tr.String()
	}
	m1, t1 := dump()
	m2, t2 := dump()
	if m1 != m2 {
		t.Error("metric dumps differ across identical runs")
	}
	if t1 != t2 {
		t.Error("trace dumps differ across identical runs")
	}
}

// TestEvaluatorObservability runs a figure with a collection attached and
// asserts (a) the figure equals an unobserved run and (b) every job
// registered under its full app/species/platform/step label.
func TestEvaluatorObservability(t *testing.T) {
	t.Parallel()
	plain, err := NewEvaluator(tinyRC(), EvalOptions{Jobs: 4}).Figure13(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollection()
	observed, err := NewEvaluator(tinyRC(), EvalOptions{Jobs: 4, Obs: col}).Figure13(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Error("observability changed Figure 13")
	}
	if col.Len() != 2 {
		t.Fatalf("collection has %d jobs, want 2", col.Len())
	}
	var b strings.Builder
	if err := col.WriteMetricsJSON(&b); err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{
		"fm-seeding/Pt/beacon-d/placed",
		"fm-seeding/Pt/beacon-d/coalesced",
	} {
		if !strings.Contains(b.String(), label) {
			t.Errorf("metrics dump missing job label %q", label)
		}
	}
}

// TestEvaluatorProgress asserts -progress plumbing reports one line per
// leaf simulation with its wall time.
func TestEvaluatorProgress(t *testing.T) {
	t.Parallel()
	var b strings.Builder
	mu := &syncBuilder{b: &b}
	if _, err := NewEvaluator(tinyRC(), EvalOptions{Jobs: 2, Progress: mu}).Figure13(context.Background()); err != nil {
		t.Fatal(err)
	}
	out := mu.String()
	if got := strings.Count(out, "done"); got != 2 {
		t.Fatalf("progress lines = %d, want 2:\n%s", got, out)
	}
	if !strings.Contains(out, "fm-seeding/Pt/beacon-d/placed") {
		t.Errorf("progress output missing job label:\n%s", out)
	}
}

// TestJobErrorIdentity asserts a failed simulation's error carries the full
// figure/species/platform/step identity so the operator can locate it.
func TestJobErrorIdentity(t *testing.T) {
	t.Parallel()
	e := NewEvaluator(tinyRC(), EvalOptions{Jobs: 1})
	bad := e.simJob(FMSeeding, PinusTaeda, MultiPass, Platform{Kind: PlatformKind(99)}, "cpu-ref")
	_, err := runner.Run(context.Background(), e.pool, []runner.Job[*Report]{bad})
	if err == nil {
		t.Fatal("invalid platform must fail")
	}
	want := "fm-seeding/Pt/platform(99)/cpu-ref"
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q missing job identity %q", err, want)
	}
}

// TestEvaluationProvenance asserts the evaluation carries deterministic run
// identity (and only deterministic identity).
func TestEvaluationProvenance(t *testing.T) {
	t.Parallel()
	rc := tinyRC()
	a := obs.NewProvenance(rc, rc.Seed)
	b := obs.NewProvenance(rc, rc.Seed)
	if !reflect.DeepEqual(a, b) {
		t.Error("provenance for identical configs differs")
	}
	rc2 := rc
	rc2.Reads++
	if obs.NewProvenance(rc2, rc2.Seed).ConfigHash == a.ConfigHash {
		t.Error("different configs share a config hash")
	}
}

// syncBuilder is a concurrency-safe strings.Builder for observer callbacks.
type syncBuilder struct {
	mu sync.Mutex
	b  *strings.Builder
}

func (s *syncBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
