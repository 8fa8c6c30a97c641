// Pooling study: the memory-disaggregation pitch of §II — one CXL pool
// serving several genome-analysis stages at once.
//
//	go run ./examples/pooling
//
// Per-server DIMMs strand capacity when workloads' needs mismatch; a pool
// serves them all and consolidates throughput. This example co-locates an
// FM-index seeding tenant with a k-mer counting tenant on one BEACON-D pool
// and compares against running them back to back.
package main

import (
	"fmt"
	"log"

	beacon "beacon"
)

func main() {
	log.SetFlags(0)

	fmCfg := beacon.DefaultWorkloadConfig(beacon.PinusTaeda)
	fmCfg.GenomeScale = 15_000
	fmCfg.Reads = 300
	seeding, err := beacon.NewFMSeedingWorkload(fmCfg)
	if err != nil {
		log.Fatal(err)
	}

	// Pre-alignment is compute-bound (82-cycle windows) while FM seeding is
	// DRAM-bound — complementary bottlenecks, the case where consolidation
	// pays.
	paCfg := beacon.DefaultWorkloadConfig(beacon.AmbystomaMexicanum)
	paCfg.GenomeScale = 15_000
	paCfg.Reads = 1200
	prealign, err := beacon.NewPreAlignmentWorkload(paCfg)
	if err != nil {
		log.Fatal(err)
	}

	p := beacon.Platform{Kind: beacon.BeaconD, Opts: beacon.AllOptimizations()}

	// Serial: one tenant at a time.
	var serial float64
	for _, wl := range []*beacon.Workload{seeding, prealign} {
		res, err := beacon.Run(p, wl)
		if err != nil {
			log.Fatal(err)
		}
		rep := res.Report
		fmt.Printf("serial  %-22s %10.1f us\n", wl.Name, rep.Seconds*1e6)
		serial += rep.Seconds
	}
	fmt.Printf("serial  %-22s %10.1f us\n\n", "total", serial*1e6)

	// Co-located: both tenants share the pool.
	shared, err := beacon.Run(p, seeding, beacon.WithCoRun(prealign))
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range shared.Tenants {
		fmt.Printf("shared  %-22s %10.1f us  (%d tasks)\n", t.Workload, t.Seconds*1e6, t.Tasks)
	}
	fmt.Printf("shared  %-22s %10.1f us\n\n", "makespan", shared.Report.Seconds*1e6)

	fmt.Printf("consolidation gain: %.2fx (both tenants done in %.1f us instead of %.1f us)\n",
		serial/shared.Report.Seconds, shared.Report.Seconds*1e6, serial*1e6)
	fmt.Println("\nThe pool's NDP modules, links and DRAM banks absorb both tenants'")
	fmt.Println("traffic concurrently — the resource-consolidation argument that")
	fmt.Println("motivates memory disaggregation in the paper's §II.")
}
