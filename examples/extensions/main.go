// Extensions study: BEACON as a general NDP accelerator (§V).
//
//	go run ./examples/extensions
//
// The paper argues BEACON extends beyond genomics by swapping the PEs:
// "image processing, graph processing, and database searching". This
// example runs the two implemented extension workloads — BFS over a CSR
// graph and B+-tree index probes — on every platform, showing that the
// architecture's advantages (fine-grained access, placement, high fabric
// bandwidth) carry over to other memory-bound applications.
package main

import (
	"fmt"
	"log"

	beacon "beacon"
)

func main() {
	log.SetFlags(0)

	graph, err := beacon.NewGraphWorkload(beacon.DefaultGraphWorkloadConfig())
	if err != nil {
		log.Fatal(err)
	}
	db, err := beacon.NewDBSearchWorkload(beacon.DefaultDBSearchWorkloadConfig())
	if err != nil {
		log.Fatal(err)
	}
	imgCfg := beacon.DefaultImageWorkloadConfig()
	imgCfg.Width, imgCfg.Height = 512, 512
	img, err := beacon.NewImageWorkload(imgCfg)
	if err != nil {
		log.Fatal(err)
	}

	for _, wl := range []*beacon.Workload{graph, db, img} {
		fmt.Printf("== %s: %d tasks, %d steps, verified %v ==\n",
			wl.Name, wl.Tasks, wl.Steps, wl.Verified)
		var cpu *beacon.Report
		for _, kind := range []beacon.PlatformKind{beacon.CPU, beacon.BeaconD, beacon.BeaconS} {
			res, err := beacon.Run(beacon.Platform{Kind: kind, Opts: beacon.AllOptimizations()}, wl)
			if err != nil {
				log.Fatal(err)
			}
			rep := res.Report
			if kind == beacon.CPU {
				cpu = rep
				fmt.Printf("  %-10s %12.1f us\n", kind, rep.Seconds*1e6)
				continue
			}
			fmt.Printf("  %-10s %12.1f us  (%.0fx CPU, %4.1f%% comm energy, local %.0f%%)\n",
				kind, rep.Seconds*1e6, cpu.Seconds/rep.Seconds,
				100*rep.CommEnergyRatio(), 100*rep.LocalFraction)
		}
		fmt.Println()
	}

	fmt.Println("Both extension workloads are dominated by fine-grained random reads")
	fmt.Println("and atomic updates — the same patterns as the genomics pipeline — so")
	fmt.Println("the BEACON substrate accelerates them without architectural changes,")
	fmt.Println("exactly as §V claims.")
}
