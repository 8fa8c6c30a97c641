package beacon

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"beacon/internal/obs"
)

func TestAblationCoalesceGroup(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := NewEvaluator(QuickRunConfig(), EvalOptions{}).AblationCoalesceGroup(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Lock-step (group 16) must overfetch ~2x for 32 B objects; group 8 must
	// fetch with no waste.
	byLabel := map[string]AblationPoint{}
	for _, p := range res.Points {
		byLabel[p.Label] = p
	}
	if byLabel["group=16"].Extra < 1.5 {
		t.Errorf("lock-step overfetch = %.2f, want >= 1.5", byLabel["group=16"].Extra)
	}
	if byLabel["group=8"].Extra > 1.1 {
		t.Errorf("group-8 overfetch = %.2f, want ~1.0", byLabel["group=8"].Extra)
	}
}

func TestAblationLinkBandwidth(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := NewEvaluator(QuickRunConfig(), EvalOptions{}).AblationLinkBandwidth(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Wider links never hurt BEACON-S.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Cycles > res.Points[i-1].Cycles*21/20 {
			t.Errorf("bandwidth step %s regressed: %d -> %d",
				res.Points[i].Label, res.Points[i-1].Cycles, res.Points[i].Cycles)
		}
	}
}

func TestAblationInFlight(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := NewEvaluator(QuickRunConfig(), EvalOptions{}).AblationInFlight(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Deeper queues must not hurt, and the shallowest queue must be worst.
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.Cycles > first.Cycles {
		t.Errorf("deep queue (%d cycles) slower than shallow (%d)", last.Cycles, first.Cycles)
	}
}

func TestAblationPoolScale(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := NewEvaluator(QuickRunConfig(), EvalOptions{}).AblationPoolScale(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Scaling out must speed up the fixed workload.
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if float64(first.Cycles)/float64(last.Cycles) < 1.5 {
		t.Errorf("8-switch pool only %.2fx over 1 switch",
			float64(first.Cycles)/float64(last.Cycles))
	}
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewEvaluator(QuickRunConfig(), EvalOptions{}).AllAblations(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAblationRowPolicy(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := NewEvaluator(QuickRunConfig(), EvalOptions{}).AblationRowPolicy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if strings.Contains(p.Label, "closed") && p.Extra != 0 {
			t.Errorf("%s: closed page recorded row hits (%.3f)", p.Label, p.Extra)
		}
	}
}

// TestAblationFaults pins that the sweeps honor the evaluator's fault
// profile: the same sweep under the heavy profile differs from the
// fault-free one and folds its faults into the summary.
func TestAblationFaults(t *testing.T) {
	t.Parallel()
	sweep := func(opts EvalOptions) (*AblationResult, *FaultSummary) {
		e := NewEvaluator(tinyRC(), opts)
		res, err := e.AblationInFlight(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res, e.FaultSummary()
	}
	clean, _ := sweep(EvalOptions{Jobs: 2})
	heavy, summary := sweep(EvalOptions{Jobs: 2, Faults: HeavyFaultProfile(), FaultSeed: 42})
	if reflect.DeepEqual(clean, heavy) {
		t.Error("heavy fault profile left the ablation sweep unchanged")
	}
	if summary == nil || len(summary.Rows) != 1 || summary.Rows[0].Kind != BeaconS || summary.Rows[0].Stats.Total() == 0 {
		t.Errorf("fault summary does not count the BEACON-S sweep: %+v", summary)
	}
}

// TestAblationObserved pins that an observer sees every sweep point under
// its own label, and that observing leaves the sweep unchanged.
func TestAblationObserved(t *testing.T) {
	t.Parallel()
	plain, err := NewEvaluator(tinyRC(), EvalOptions{Jobs: 2}).AblationRowPolicy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollection()
	observed, err := NewEvaluator(tinyRC(), EvalOptions{Jobs: 2, Obs: col}).AblationRowPolicy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Error("observability changed the row-policy sweep")
	}
	var b strings.Builder
	if err := col.WriteMetricsJSON(&b); err != nil {
		t.Fatal(err)
	}
	if col.Len() != len(plain.Points) {
		t.Errorf("collection has %d jobs, want %d", col.Len(), len(plain.Points))
	}
	for _, p := range plain.Points {
		if !strings.Contains(b.String(), "["+p.Label+"]") {
			t.Errorf("metrics dump missing sweep point %q", p.Label)
		}
	}
}
