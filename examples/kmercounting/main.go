// K-mer counting study: the multi-pass vs single-pass trade of §IV-D.
//
//	go run ./examples/kmercounting
//
// NEST pays a second pass over the input to make its counting Bloom filter
// local to each accelerator DIMM — a clear win on a DDR platform whose
// inter-DIMM bus is the bottleneck. BEACON-S computes in the switch, where
// every DIMM is one CXL hop away: the localization buys nothing, so reading
// the input once against a shared filter wins. This example runs both flows
// on both platforms to expose the crossover.
package main

import (
	"fmt"
	"log"

	beacon "beacon"
)

func main() {
	log.SetFlags(0)

	base := beacon.DefaultWorkloadConfig(beacon.Human)
	base.GenomeScale = 15_000
	base.Reads = 500

	flows := []struct {
		name string
		flow beacon.KmerFlow
	}{
		{"multi-pass (NEST-style)", beacon.MultiPass},
		{"single-pass (BEACON-S-style)", beacon.SinglePass},
	}
	platforms := []struct {
		name string
		p    beacon.Platform
	}{
		{"DDR NDP (NEST platform)", beacon.Platform{Kind: beacon.DDRBaseline}},
		{"BEACON-S", beacon.Platform{Kind: beacon.BeaconS,
			Opts: beacon.Options{DataPacking: true, MemAccessOpt: true, Placement: true}}},
	}

	results := map[string]map[string]*beacon.Report{}
	for _, f := range flows {
		cfg := base
		cfg.Flow = f.flow
		wl, err := beacon.NewKmerCountingWorkload(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("built %-30s %6d tasks %8d steps (counts verified: %v)\n",
			f.name, wl.Tasks, wl.Steps, wl.Verified)
		results[f.name] = map[string]*beacon.Report{}
		for _, pl := range platforms {
			res, err := beacon.Run(pl.p, wl)
			if err != nil {
				log.Fatal(err)
			}
			rep := res.Report
			results[f.name][pl.name] = rep
		}
	}

	fmt.Printf("\n%-30s", "")
	for _, pl := range platforms {
		fmt.Printf(" %26s", pl.name)
	}
	fmt.Println()
	for _, f := range flows {
		fmt.Printf("%-30s", f.name)
		for _, pl := range platforms {
			rep := results[f.name][pl.name]
			fmt.Printf(" %23.1f us", rep.Seconds*1e6)
		}
		fmt.Println()
	}

	ddrMP := results[flows[0].name][platforms[0].name]
	ddrSP := results[flows[1].name][platforms[0].name]
	sMP := results[flows[0].name][platforms[1].name]
	sSP := results[flows[1].name][platforms[1].name]
	fmt.Printf("\nOn the DDR platform multi-pass wins %.2fx — the localization pays for the second pass.\n",
		ddrSP.Seconds/ddrMP.Seconds)
	fmt.Printf("On BEACON-S single-pass wins %.2fx — the paper's single-pass KMC optimization.\n",
		sMP.Seconds/sSP.Seconds)
}
