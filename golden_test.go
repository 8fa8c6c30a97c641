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

	return clean.String() + "\n" + degraded.String() + "\n" + faulty.String() + "\n" + replayGolden(t)
}

// replayGolden covers the task-replay paths the FM-only tables above never
// reach, at a tiny scale: every application on the DDR baseline and both
// BEACON designs across the optimization ladder (remote atomics, the host
// coherence detour, pre-alignment and hash paths), the BEACON designs under
// heavy faults and with every NDP unit failing (task migration and the
// host-CPU fallback), and one co-located tenant pair.
func replayGolden(t *testing.T) string {
	t.Helper()
	cfg := DefaultWorkloadConfig(PinusTaeda)
	cfg.GenomeScale = 2_000
	cfg.Reads = 40
	apps := []Application{FMSeeding, HashSeeding, KmerCounting, PreAlignment}
	wls := make([]*Workload, len(apps))
	for i, app := range apps {
		wl, err := NewWorkload(app, cfg)
		if err != nil {
			t.Fatalf("%v workload: %v", app, err)
		}
		wls[i] = wl
	}

	ladder := report.NewTable("Replay ladder, scale 2000, 40 reads",
		"app", "platform", "opts", "cycles", "energy pJ", "comm pJ", "local frac", "wire bytes", "host crossings")
	opts := []struct {
		name string
		o    Options
	}{{"vanilla", Vanilla()}, {"all", AllOptimizations()}, {"ideal", IdealComm()}}
	for i, wl := range wls {
		for _, kind := range []PlatformKind{DDRBaseline, BeaconD, BeaconS} {
			for _, o := range opts {
				res, err := Run(Platform{Kind: kind, Opts: o.o}, wl)
				if err != nil {
					t.Fatalf("%v %v %s: %v", apps[i], kind, o.name, err)
				}
				rep := res.Report
				ladder.AddRow(apps[i].String(), kind.String(), o.name,
					fmt.Sprint(rep.Cycles),
					fmt.Sprintf("%.6g", rep.EnergyPJ),
					fmt.Sprintf("%.6g", rep.CommEnergyPJ),
					fmt.Sprintf("%.4f", rep.LocalFraction),
					fmt.Sprint(rep.WireBytes),
					fmt.Sprint(rep.HostCrossings))
			}
		}
	}

	unitFail := DefaultFaultProfile()
	unitFail.NDP.UnitFailProb = 1
	profiles := []struct {
		name string
		p    FaultProfile
	}{{"heavy", HeavyFaultProfile()}, {"unit-fail", unitFail}}
	faulty := report.NewTable("Replay under faults (seed 7, all optimizations)",
		"app", "platform", "profile", "cycles", "energy pJ", "faults total",
		"unit fails", "DRAM retries", "migrated", "host fallback")
	for i, wl := range wls {
		for _, kind := range []PlatformKind{BeaconD, BeaconS} {
			for _, pr := range profiles {
				p := Platform{Kind: kind, Opts: AllOptimizations(), Faults: pr.p, FaultSeed: 7}
				res, err := Run(p, wl)
				if err != nil {
					t.Fatalf("%v %v %s: %v", apps[i], kind, pr.name, err)
				}
				rep := res.Report
				f := rep.Faults
				faulty.AddRow(apps[i].String(), kind.String(), pr.name,
					fmt.Sprint(rep.Cycles),
					fmt.Sprintf("%.6g", rep.EnergyPJ),
					fmt.Sprint(f.Total()),
					fmt.Sprint(f.NDPUnitFailures),
					fmt.Sprint(f.DRAMRetries),
					fmt.Sprint(f.MigratedTasks),
					fmt.Sprint(f.HostFallbackTasks))
			}
		}
	}

	shared := report.NewTable("Co-located FM + hash seeding on beacon-d (all optimizations)",
		"workload", "cycles", "seconds", "tasks", "energy pJ", "wire bytes")
	res, err := Run(Platform{Kind: BeaconD, Opts: AllOptimizations()}, wls[0], WithCoRun(wls[1]))
	if err != nil {
		t.Fatalf("co-run: %v", err)
	}
	rep := res.Report
	shared.AddRow(rep.Workload, fmt.Sprint(rep.Cycles), fmt.Sprintf("%.6e", rep.Seconds), "",
		fmt.Sprintf("%.6g", rep.EnergyPJ), fmt.Sprint(rep.WireBytes))
	for _, tn := range res.Tenants {
		shared.AddRow(tn.Workload, "", fmt.Sprintf("%.6e", tn.Seconds), fmt.Sprint(tn.Tasks), "", "")
	}

	return ladder.String() + "\n" + faulty.String() + "\n" + shared.String()
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
