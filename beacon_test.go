package beacon

import (
	"context"
	"strings"
	"testing"
)

func quickCfg(sp Species) WorkloadConfig {
	cfg := DefaultWorkloadConfig(sp)
	cfg.GenomeScale = 8_000
	cfg.Reads = 100
	return cfg
}

func TestWorkloadBuilders(t *testing.T) {
	t.Parallel()
	for _, app := range []Application{FMSeeding, HashSeeding, KmerCounting, PreAlignment} {
		wl, err := NewWorkload(app, quickCfg(PinusTaeda))
		if err != nil {
			t.Fatalf("%v: %v", app, err)
		}
		if !wl.Verified {
			t.Errorf("%v: workload not verified", app)
		}
		if wl.Tasks == 0 || wl.Steps == 0 || wl.FootprintBytes == 0 {
			t.Errorf("%v: empty workload %+v", app, wl)
		}
		if wl.App != app {
			t.Errorf("%v: app mismatch", app)
		}
	}
}

func TestWorkloadConfigValidation(t *testing.T) {
	t.Parallel()
	bad := quickCfg(PinusTaeda)
	bad.Reads = 0
	if _, err := NewFMSeedingWorkload(bad); err == nil {
		t.Error("zero reads accepted")
	}
	bad = quickCfg(PinusTaeda)
	bad.GenomeScale = 0
	if _, err := NewFMSeedingWorkload(bad); err == nil {
		t.Error("zero scale accepted")
	}
	bad = quickCfg(Species("Xx"))
	if _, err := NewFMSeedingWorkload(bad); err == nil {
		t.Error("unknown species accepted")
	}
	bad = quickCfg(PinusTaeda)
	bad.Flow = KmerFlow(9)
	if _, err := NewKmerCountingWorkload(bad); err == nil {
		t.Error("unknown flow accepted")
	}
}

func TestSimulateAllPlatforms(t *testing.T) {
	t.Parallel()
	wl, err := NewFMSeedingWorkload(quickCfg(PiceaGlauca))
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	var reports []*Report
	for _, kind := range []PlatformKind{CPU, DDRBaseline, BeaconD, BeaconS} {
		res, err := Run(Platform{Kind: kind, Opts: AllOptimizations()}, wl)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		rep := res.Report
		if rep.Cycles <= 0 || rep.Seconds <= 0 || rep.EnergyPJ <= 0 {
			t.Errorf("%v: non-positive report %+v", kind, rep)
		}
		reports = append(reports, rep)
	}
	cpu, ddr, d, s := reports[0], reports[1], reports[2], reports[3]
	// The paper's headline ordering: NDP >> CPU; BEACON > DDR baseline.
	if d.Seconds >= cpu.Seconds || s.Seconds >= cpu.Seconds {
		t.Error("accelerators not faster than the CPU baseline")
	}
	if d.Seconds >= ddr.Seconds {
		t.Errorf("BEACON-D (%.2e s) not faster than the DDR baseline (%.2e s)", d.Seconds, ddr.Seconds)
	}
	if s.Seconds >= ddr.Seconds {
		t.Errorf("BEACON-S (%.2e s) not faster than the DDR baseline (%.2e s)", s.Seconds, ddr.Seconds)
	}
	if got := d.SpeedupOver(cpu); got <= 1 {
		t.Errorf("SpeedupOver = %f, want > 1", got)
	}
	if got := cpu.EnergyReductionOver(d); got >= 1 {
		t.Errorf("CPU energy reduction over D = %f, want < 1", got)
	}
}

func TestSimulateNilWorkload(t *testing.T) {
	t.Parallel()
	if _, err := Run(Platform{Kind: CPU}, nil); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := Run(Platform{Kind: PlatformKind(42)}, &Workload{}); err == nil {
		t.Error("unknown platform accepted")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	t.Parallel()
	wl, err := NewHashSeedingWorkload(quickCfg(PinusTaeda))
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	a, err := Run(Platform{Kind: BeaconD, Opts: AllOptimizations()}, wl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Platform{Kind: BeaconD, Opts: AllOptimizations()}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.Cycles != b.Report.Cycles || a.Report.EnergyPJ != b.Report.EnergyPJ {
		t.Error("simulation is not deterministic")
	}
}

func TestLadderForShapes(t *testing.T) {
	t.Parallel()
	d := ladderFor(FMSeeding, BeaconD)
	if len(d) != 5 || !strings.Contains(d[4].Name, "coalescing") {
		t.Errorf("FM BEACON-D ladder = %v", names(d))
	}
	s := ladderFor(KmerCounting, BeaconS)
	if len(s) != 5 || s[4].Flow != SinglePass {
		t.Errorf("KMC BEACON-S ladder = %v", names(s))
	}
	h := ladderFor(HashSeeding, BeaconS)
	if len(h) != 4 {
		t.Errorf("hash BEACON-S ladder = %v", names(h))
	}
}

func names(steps []ladderStep) []string {
	out := make([]string, len(steps))
	for i, s := range steps {
		out[i] = s.Name
	}
	return out
}

func TestTableII(t *testing.T) {
	t.Parallel()
	rows := TableII()
	if len(rows) != 3 {
		t.Fatalf("Table II has %d rows", len(rows))
	}
	if rows[2].Architecture != "BEACON" || rows[2].AreaUM2 != 14090.23 {
		t.Errorf("BEACON row = %+v", rows[2])
	}
	// The paper's claim: BEACON's PE has smaller or comparable overhead.
	if rows[2].AreaUM2 >= rows[1].AreaUM2 {
		t.Error("BEACON PE area should be below NEST's")
	}
	if rows[2].LeakageUW >= rows[0].LeakageUW {
		t.Error("BEACON PE leakage should be below MEDAL's")
	}
}

func TestFigure3Quick(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("short mode")
	}
	fig, err := NewEvaluator(QuickRunConfig(), EvalOptions{}).Figure3(context.Background())
	if err != nil {
		t.Fatalf("Figure3: %v", err)
	}
	if len(fig.Rows) != 11 { // 5 FM + 5 hash + 1 kmer
		t.Errorf("rows = %d, want 11", len(fig.Rows))
	}
	// The baselines must be communication-bound: idealized communication
	// yields a clear speedup (paper: 4.36x average).
	if fig.AvgPerf < 1.5 {
		t.Errorf("avg idealized-comm speedup = %.2f, want >= 1.5", fig.AvgPerf)
	}
	if !strings.Contains(fig.String(), "average") {
		t.Error("rendering broken")
	}
}

func TestFigure13Quick(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("short mode")
	}
	fig, err := NewEvaluator(QuickRunConfig(), EvalOptions{}).Figure13(context.Background())
	if err != nil {
		t.Fatalf("Figure13: %v", err)
	}
	if len(fig.WithCoalescing) != 16 || len(fig.WithoutCoalescing) != 16 {
		t.Fatalf("chip vectors %d/%d, want 16", len(fig.WithoutCoalescing), len(fig.WithCoalescing))
	}
	// Coalescing balances chip load (paper Fig. 13).
	if fig.CVWith >= fig.CVWithout {
		t.Errorf("coalescing CV %.3f not below per-chip CV %.3f", fig.CVWith, fig.CVWithout)
	}
}

func TestMEMSeedingWorkload(t *testing.T) {
	t.Parallel()
	cfg := quickCfg(PiceaGlauca)
	cfg.MEMSeeding = true
	wl, err := NewFMSeedingWorkload(cfg)
	if err != nil {
		t.Fatalf("NewFMSeedingWorkload(MEM): %v", err)
	}
	if !wl.Verified || wl.Tasks == 0 {
		t.Errorf("MEM workload = %+v", wl)
	}
	// MEM mode must produce a different trace shape than fixed-stride.
	cfg.MEMSeeding = false
	fixed, err := NewFMSeedingWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wl.Steps == fixed.Steps {
		t.Error("MEM and fixed-stride traces identical; mode likely ignored")
	}
	if _, err := Run(Platform{Kind: BeaconD, Opts: AllOptimizations()}, wl); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
