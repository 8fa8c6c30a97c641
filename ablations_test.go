package beacon

import (
	"context"
	"strings"
	"testing"
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
