// Command beaconsim runs a single workload on one or more platforms and
// prints the resulting performance/energy reports. Multiple platforms
// (comma-separated) share one workload build and simulate concurrently on a
// bounded pool (-jobs); reports always print in the order given.
//
// Examples:
//
//	beaconsim -app fm-seeding -species Pt -platform beacon-d
//	beaconsim -app kmer-counting -species Hs -platform beacon-s -singlepass
//	beaconsim -app hash-seeding -species Am -platform ddr-ndp -reads 1000
//	beaconsim -platform cpu,ddr-ndp,beacon-d,beacon-s -jobs 4
//
// Observability (all observation-only — reports are byte-identical):
//
//	beaconsim -platform beacon-d -metrics m.json -trace t.json -sample 10000
//	beaconsim -platform beacon-d -metrics m.om -metrics-format openmetrics
//	beaconsim -version
//
// Metrics artifacts feed cmd/beaconprof (utilization/bottleneck reports
// and run diffs); the openmetrics format is the Prometheus text
// exposition.
//
// Fault injection (deterministic; same profile + seed → identical output):
//
//	beaconsim -platform beacon-d -faults default -fault-seed 1
//	beaconsim -platform beacon-d,beacon-s -faults heavy
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
	"beacon/internal/runner"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("beaconsim: ")

	var (
		jobs    = flag.Int("jobs", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		timeout = flag.Duration("timeout", 0, "abort after this long (0 = no limit)")
	)
	sf := cliutil.RegisterSpec()
	// One (or a handful of) simulations: default to full timelines.
	of := cliutil.Register(obs.DefaultTraceCap)
	flag.Parse()
	of.HandleVersion()

	// The flag surface compiles down to one RunSpec per platform — the
	// same construction path the beaconsimd daemon serves.
	specs, err := sf.Specs(of)
	if err != nil {
		log.Fatal(err)
	}
	cfg := specs[0].Workload.Config

	fmt.Println(obs.NewProvenance(cfg, cfg.Seed).Header(0))

	wc := cliutil.OpenWorkloadCache(of.WorkloadCache)
	wl, err := specs[0].Workload.Build(wc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload %s: %d tasks, %d steps, %.1f MiB footprint (functionally verified: %v)\n",
		wl.Name, wl.Tasks, wl.Steps, float64(wl.FootprintBytes)/(1<<20), wl.Verified)
	if wc != nil {
		if st := wc.Stats(); st.Hits > 0 {
			fmt.Printf("workload cache: hit (%s)\n", wc.Dir())
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	stopProfiles, err := of.StartProfiles()
	if err != nil {
		log.Fatal(err)
	}
	col := of.Collection()
	pool := runner.NewPool(*jobs)
	pool.LogProgress(of.ProgressWriter())

	simJobs := make([]runner.Job[*beacon.Report], len(specs))
	for i, spec := range specs {
		p, err := spec.Platform()
		if err != nil {
			log.Fatal(err)
		}
		// The workload is built once and shared: Run replays the spec's
		// platform over the prebuilt trace.
		label := fmt.Sprintf("%s/%s/%s", wl.Name, p.Kind, sf.OptsName())
		simJobs[i] = runner.Job[*beacon.Report]{
			Label: label,
			Fn: func(context.Context) (*beacon.Report, error) {
				res, err := beacon.Run(p, wl, beacon.WithObserver(col.New(label)))
				if err != nil {
					return nil, err
				}
				return res.Report, nil
			},
		}
	}
	start := time.Now()
	reports, err := runner.Run(ctx, pool, simJobs)
	if err != nil {
		of.WriteOutputs(col)
		stopProfiles()
		log.Fatal(err)
	}
	for i, rep := range reports {
		printReport(specs[i].Kind, rep)
	}
	if len(specs) > 1 {
		fmt.Printf("simulated %d platforms in %v\n", len(specs), time.Since(start).Round(time.Millisecond))
	}
	if err := of.WriteOutputs(col); err != nil {
		stopProfiles()
		log.Fatal(err)
	}
	stopProfiles()
	os.Exit(0)
}

func printReport(kind beacon.PlatformKind, rep *beacon.Report) {
	fmt.Printf("platform %s:\n", kind)
	fmt.Printf("  cycles          %d (%.3f ms)\n", rep.Cycles, rep.Seconds*1e3)
	fmt.Printf("  energy          %.3f mJ (comm %.1f%%, DRAM %.1f%%, compute %.1f%%)\n",
		rep.EnergyPJ/1e9,
		100*rep.CommEnergyPJ/rep.EnergyPJ, 100*rep.DRAMEnergyPJ/rep.EnergyPJ,
		100*rep.ComputeEnergyPJ/rep.EnergyPJ)
	if kind != beacon.CPU {
		fmt.Printf("  local accesses  %.1f%%\n", 100*rep.LocalFraction)
		fmt.Printf("  wire traffic    %.2f MiB, %d host crossings\n",
			float64(rep.WireBytes)/(1<<20), rep.HostCrossings)
	}
	if f := rep.Faults; f.Total() > 0 || f.DRAMRetries+f.MigratedTasks+f.HostFallbackTasks > 0 {
		fmt.Printf("  faults injected %d (link CRC %d, switch degr %d, ECC corr %d, ECC uncorr %d, NDP stalls %d, unit fails %d)\n",
			f.Total(), f.LinkCRCErrors, f.SwitchDegraded, f.DRAMCorrectable,
			f.DRAMUncorrectable, f.NDPStalls, f.NDPUnitFailures)
		fmt.Printf("  fault recovery  %d DRAM retries, %d migrated tasks, %d host fallbacks\n",
			f.DRAMRetries, f.MigratedTasks, f.HostFallbackTasks)
	}
}
