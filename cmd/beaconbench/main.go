// Command beaconbench regenerates every table and figure of the paper's
// evaluation section (Fig. 3, Tables I/II, Figs. 12-17, and the §VI-G
// optimization summary) as text tables.
//
// The figures' simulations run as independent jobs on a bounded worker
// pool (-jobs, default GOMAXPROCS); results merge in a fixed order, so the
// output is byte-identical at any -jobs setting.
//
//	beaconbench            # full scale (minutes)
//	beaconbench -quick     # reduced scale (tens of seconds)
//	beaconbench -jobs 1    # exact serial execution
//
// Observability (all observation-only — figures are byte-identical):
//
//	beaconbench -quick -progress                  # live per-job log on stderr
//	beaconbench -quick -metrics m.json -trace t.json
//	beaconbench -quick -metrics m.om -metrics-format openmetrics
//	beaconbench -version                          # build identity
//
// Metrics artifacts feed cmd/beaconprof (utilization/bottleneck reports
// and run diffs).
//
// Fault injection (deterministic; same profile + seed → identical output):
//
//	beaconbench -quick -faults default -fault-seed 1
//
// Timing-model calibration (see DESIGN.md §4g):
//
//	beaconbench -calibrate                 # quick suite vs committed goldens (exit 1 on drift)
//	beaconbench -calibrate -calib-full     # wide offline sweep (no golden diff)
//	beaconbench -calibrate -calib-update   # regenerate the golden artifact
//	beaconbench -calibrate -calib-tol 0.01 -calib-metric-tol 'gb_per_sec=0.05'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	beacon "beacon"
	"beacon/internal/cliutil"
	"beacon/internal/obs"
	"beacon/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("beaconbench: ")
	quick := flag.Bool("quick", false, "run at reduced scale")
	ablations := flag.Bool("ablations", false, "also run the design-choice ablation sweeps")
	jobs := flag.Int("jobs", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "abort the whole evaluation after this long (0 = no limit)")
	calibrate := flag.Bool("calibrate", false, "replay the timing-calibration suite and diff against goldens instead of the evaluation")
	calibFull := flag.Bool("calib-full", false, "with -calibrate: run the wide offline sweep (skips the golden diff)")
	calibGolden := flag.String("calib-golden", defaultCalibGolden, "with -calibrate: golden artifact `path`")
	calibOut := flag.String("calib-out", "", "with -calibrate: also write the curves to `file`")
	calibUpdate := flag.Bool("calib-update", false, "with -calibrate: rewrite the golden artifact instead of diffing")
	calibTol := flag.Float64("calib-tol", 0, "with -calibrate: default relative tolerance for the golden diff")
	var calibPerMetric cliutil.TolFlag
	flag.Var(&calibPerMetric, "calib-metric-tol", "with -calibrate: per-metric tolerance `pattern=tol` (repeatable; first match wins)")
	// A full evaluation fans out hundreds of jobs; keep per-job traces
	// small so the merged timeline stays loadable (-tracecap raises it).
	of := cliutil.Register(2048)
	flag.Parse()
	of.HandleVersion()

	// Resolve -faults/-fault-seed through the RunSpec path — the same
	// construction every other entry point uses.
	base, err := of.PlatformSpec(beacon.BeaconD, beacon.AllOptimizations())
	check(err)
	faults := base.Faults

	if *calibrate {
		os.Exit(runCalibrate(os.Stdout, calibFlags{
			full:   *calibFull,
			golden: *calibGolden,
			out:    *calibOut,
			update: *calibUpdate,
			tol:    *calibTol,
			per:    calibPerMetric.Tolerances(),
		}))
	}

	rc := beacon.DefaultRunConfig()
	if *quick {
		rc = beacon.QuickRunConfig()
	}
	fmt.Println(obs.NewProvenance(rc, rc.Seed).Header(0))
	fmt.Printf("BEACON evaluation harness (scale=%d, reads=%d)\n\n", rc.GenomeScale, rc.Reads)
	start := time.Now()

	stopProfiles, err := of.StartProfiles()
	check(err)
	defer stopProfiles()

	if faults.Enabled() {
		fmt.Printf("fault injection: profile %q, seed %d (BEACON platforms only)\n\n", of.Faults, of.FaultSeed)
	}

	col := of.Collection()
	ev, err := beacon.RunEvaluation(context.Background(), rc, beacon.EvalOptions{
		Jobs:          *jobs,
		Timeout:       *timeout,
		Ablations:     *ablations,
		Progress:      of.ProgressWriter(),
		Obs:           col,
		Faults:        faults,
		FaultSeed:     of.FaultSeed,
		WorkloadCache: cliutil.OpenWorkloadCache(of.WorkloadCache),
	})
	if err != nil {
		// Dump whatever observability accumulated before the failure, then
		// exit non-zero with the failing job's identity in the error.
		of.WriteOutputs(col)
		stopProfiles()
		log.Fatal(err)
	}
	if err := of.WriteOutputs(col); err != nil {
		stopProfiles()
		log.Fatal(err)
	}

	section("Table II — PE synthesis results (constants from the paper)")
	for _, row := range ev.TableII {
		fmt.Printf("  %-8s area %9.2f um2   dynamic %5.2f mW   leakage %5.2f uW\n",
			row.Architecture, row.AreaUM2, row.DynamicMW, row.LeakageUW)
	}
	fmt.Println()

	section("Figure 3 — motivation: idealized communication on DDR NDP baselines")
	fmt.Println(ev.Fig3)

	section("Figure 12 — FM-index based DNA seeding")
	fmt.Println(ev.Fig12D)
	fmt.Println(ev.Fig12S)

	section("Figure 13 — per-chip access balance (multi-chip coalescing)")
	fmt.Println(ev.Fig13)

	section("Figure 14 — Hash-index based DNA seeding")
	fmt.Println(ev.Fig14D)
	fmt.Println(ev.Fig14S)

	section("Figure 15 — k-mer counting")
	fmt.Println(ev.Fig15D)
	fmt.Println(ev.Fig15S)

	section("Figure 16 — DNA pre-alignment")
	fmt.Println(ev.Fig16)

	section("Figure 17 — energy breakdown")
	fmt.Println(ev.Fig17D)
	fmt.Println(ev.Fig17S)

	section("§VI-G — optimization summary")
	fmt.Printf("%s\n", ev.SummaryD)
	fmt.Printf("%s\n", ev.SummaryS)

	if *ablations {
		fmt.Println()
		section("Ablations — design-choice sweeps (beyond the paper)")
		fmt.Println(ev.Ablations)
	}

	if ev.Faults != nil {
		fmt.Println()
		section("Fault injection — per-platform totals")
		fmt.Println(ev.Faults)
	}

	fmt.Println()
	section("Run provenance")
	fmt.Print(report.KV("",
		[2]string{"build", ev.Provenance.Build.String()},
		[2]string{"config", ev.Provenance.ConfigHash},
		[2]string{"seed", fmt.Sprintf("0x%X", ev.Provenance.Seed)},
		[2]string{"wall", time.Since(start).Round(time.Millisecond).String()},
	))
}

func section(title string) {
	fmt.Printf("==== %s ====\n", title)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
