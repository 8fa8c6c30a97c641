package beacon

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"beacon/internal/report"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files instead of comparing")

// goldenReport renders the canonical small-config evaluation report: every
// platform simulated on the same FM-seeding workload, first clean, then the
// two BEACON platforms again under the heavy fault profile at a fixed seed.
// Everything the simulator computes deterministically funnels into this one
// string, so any timing, energy, or fault-model drift shows up as a byte
// diff. The golden was written by the reference heap queue; CI reruns this
// test on the heap (see internal/sim) so both queues keep matching it.
func goldenReport(t *testing.T) string {
	t.Helper()
	wl, err := NewFMSeedingWorkload(quickCfg(PinusTaeda))
	if err != nil {
		t.Fatalf("workload: %v", err)
	}

	clean := report.NewTable("FM-index seeding, scale 8000, 100 reads",
		"platform", "cycles", "energy pJ", "comm pJ", "local frac", "wire bytes", "host crossings")
	for _, kind := range []PlatformKind{CPU, DDRBaseline, BeaconD, BeaconS} {
		res, err := Run(Platform{Kind: kind, Opts: AllOptimizations()}, wl)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		rep := res.Report
		clean.AddRow(kind.String(),
			fmt.Sprint(rep.Cycles),
			fmt.Sprintf("%.6g", rep.EnergyPJ),
			fmt.Sprintf("%.6g", rep.CommEnergyPJ),
			fmt.Sprintf("%.4f", rep.LocalFraction),
			fmt.Sprint(rep.WireBytes),
			fmt.Sprint(rep.HostCrossings))
	}

	faulty := &FaultSummary{Profile: HeavyFaultProfile(), Seed: 7}
	degraded := report.NewTable("Same workload under heavy faults (seed 7)",
		"platform", "cycles", "faults total")
	for _, kind := range []PlatformKind{BeaconD, BeaconS} {
		res, err := Run(Platform{
			Kind: kind, Opts: AllOptimizations(),
			Faults: HeavyFaultProfile(), FaultSeed: 7,
		}, wl)
		if err != nil {
			t.Fatalf("%v with faults: %v", kind, err)
		}
		rep := res.Report
		degraded.AddRow(kind.String(), fmt.Sprint(rep.Cycles), fmt.Sprint(rep.Faults.Total()))
		faulty.Rows = append(faulty.Rows, FaultSummaryRow{Kind: kind, Stats: rep.Faults})
	}

	return clean.String() + "\n" + degraded.String() + "\n" + faulty.String()
}

// TestReportGolden locks the rendered evaluation report to a committed
// golden file, byte for byte. Regenerate deliberately after an intended
// model change with:
//
//	go test -run TestReportGolden -update .
func TestReportGolden(t *testing.T) {
	got := goldenReport(t)
	path := filepath.Join("testdata", "report_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("report drifted from %s — run with -update if the change is intended.\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}
