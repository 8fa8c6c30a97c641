// Seeding study: walk BEACON-D's optimization ladder on FM-index and
// hash-index DNA seeding, reproducing the structure of the paper's Figs. 12
// and 14, and inspect where each optimization's win comes from.
//
//	go run ./examples/seeding
package main

import (
	"fmt"
	"log"

	beacon "beacon"
)

func main() {
	log.SetFlags(0)

	cfg := beacon.DefaultWorkloadConfig(beacon.AmbystomaMexicanum)
	cfg.GenomeScale = 20_000
	cfg.Reads = 400

	for _, app := range []beacon.Application{beacon.FMSeeding, beacon.HashSeeding} {
		wl, err := beacon.NewWorkload(app, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s on %s (%d tasks, %d steps) ==\n", app, cfg.Species, wl.Tasks, wl.Steps)

		ladder := []struct {
			name string
			opts beacon.Options
		}{
			{"CXL-vanilla", beacon.Vanilla()},
			{"+ data packing", beacon.Options{DataPacking: true}},
			{"+ memory access opt", beacon.Options{DataPacking: true, MemAccessOpt: true}},
			{"+ placement & mapping", beacon.Options{DataPacking: true, MemAccessOpt: true, Placement: true}},
			{"+ multi-chip coalescing", beacon.AllOptimizations()},
			{"idealized communication", beacon.IdealComm()},
		}

		var prev *beacon.Report
		for _, step := range ladder {
			res, err := beacon.Run(beacon.Platform{Kind: beacon.BeaconD, Opts: step.opts}, wl)
			if err != nil {
				log.Fatal(err)
			}
			rep := res.Report
			gain := "      "
			if prev != nil {
				gain = fmt.Sprintf("%5.2fx", prev.Seconds/rep.Seconds)
			}
			fmt.Printf("  %-26s %10.1f us   step gain %s   local %5.1f%%   comm energy %5.1f%%\n",
				step.name, rep.Seconds*1e6, gain,
				100*rep.LocalFraction, 100*rep.CommEnergyRatio())
			prev = rep
		}
		fmt.Println()
	}

	fmt.Println("Observations (matching the paper's §VI-B/C):")
	fmt.Println("  - FM-index seeding is dominated by fine-grained 32 B Occ-block reads, so")
	fmt.Println("    placement/mapping and multi-chip coalescing move it the most;")
	fmt.Println("  - hash-index seeding has far fewer accesses per read, so data packing and")
	fmt.Println("    coalescing barely matter while the host-detour removal still pays off.")
}
