// Quickstart: build one workload, run it on every platform, and compare.
//
//	go run ./examples/quickstart
//
// This is the five-minute tour of the public API: a Workload captures a real
// genomics kernel's memory trace (here FM-index seeding on the Pinus taeda
// stand-in genome), and Run replays it on the CPU software baseline,
// the MEDAL-style DDR NDP accelerator, and both BEACON designs.
package main

import (
	"fmt"
	"log"

	beacon "beacon"
)

func main() {
	log.SetFlags(0)

	cfg := beacon.DefaultWorkloadConfig(beacon.PinusTaeda)
	cfg.GenomeScale = 15_000 // ~330 kbp stand-in genome
	cfg.Reads = 300

	wl, err := beacon.NewFMSeedingWorkload(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %s\n", wl.Name)
	fmt.Printf("  %d tasks, %d memory steps, %.1f KiB simulated footprint\n",
		wl.Tasks, wl.Steps, float64(wl.FootprintBytes)/1024)
	fmt.Printf("  functional output verified against the reference: %v\n\n", wl.Verified)

	platforms := []beacon.Platform{
		{Kind: beacon.CPU},
		{Kind: beacon.DDRBaseline},
		{Kind: beacon.BeaconD, Opts: beacon.Vanilla()},
		{Kind: beacon.BeaconD, Opts: beacon.AllOptimizations()},
		{Kind: beacon.BeaconS, Opts: beacon.AllOptimizations()},
	}
	names := []string{
		"48-thread CPU (BWA-MEM model)",
		"MEDAL (DDR-DIMM NDP)",
		"BEACON-D (CXL-vanilla)",
		"BEACON-D (all optimizations)",
		"BEACON-S (all optimizations)",
	}

	var cpu *beacon.Report
	fmt.Printf("%-30s %14s %12s %10s\n", "platform", "time", "energy", "vs CPU")
	for i, p := range platforms {
		res, err := beacon.Run(p, wl)
		if err != nil {
			log.Fatal(err)
		}
		rep := res.Report
		if i == 0 {
			cpu = rep
		}
		fmt.Printf("%-30s %11.3f us %9.3f mJ %9.1fx\n",
			names[i], rep.Seconds*1e6, rep.EnergyPJ/1e9, cpu.Seconds/rep.Seconds)
	}

	fmt.Println("\nThe ordering reproduces the paper's headline: both BEACON designs")
	fmt.Println("outperform the previous DDR-DIMM accelerator, which in turn dwarfs")
	fmt.Println("the software baseline.")
}
