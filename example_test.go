package beacon_test

import (
	"fmt"
	"os"

	beacon "beacon"
	"beacon/internal/obs"
)

// ExampleRun replays one workload on two platforms through the unified
// entry point and checks the headline relation.
func ExampleRun() {
	cfg := beacon.DefaultWorkloadConfig(beacon.PinusTaeda)
	cfg.GenomeScale = 8000
	cfg.Reads = 100

	wl, err := beacon.NewWorkload(beacon.FMSeeding, cfg)
	if err != nil {
		panic(err)
	}
	cpu, err := beacon.Run(beacon.Platform{Kind: beacon.CPU}, wl)
	if err != nil {
		panic(err)
	}
	d, err := beacon.Run(beacon.Platform{
		Kind: beacon.BeaconD,
		Opts: beacon.AllOptimizations(),
	}, wl)
	if err != nil {
		panic(err)
	}
	fmt.Println("beacon-d faster than cpu:", d.Report.Seconds < cpu.Report.Seconds)
	// Output:
	// beacon-d faster than cpu: true
}

// ExampleRun_observer attaches an observability sink. Instrumentation is
// observation-only: the report is identical with or without it.
func ExampleRun_observer() {
	cfg := beacon.DefaultWorkloadConfig(beacon.PinusTaeda)
	cfg.GenomeScale = 8000
	cfg.Reads = 100

	wl, err := beacon.NewWorkload(beacon.PreAlignment, cfg)
	if err != nil {
		panic(err)
	}
	p := beacon.Platform{Kind: beacon.BeaconS, Opts: beacon.AllOptimizations()}
	bare, err := beacon.Run(p, wl)
	if err != nil {
		panic(err)
	}
	ob := obs.New("demo")
	observed, err := beacon.Run(p, wl, beacon.WithObserver(ob))
	if err != nil {
		panic(err)
	}
	fmt.Println("observation-only:", bare.Report.Cycles == observed.Report.Cycles)
	fmt.Println("snapshots recorded:", len(ob.Metrics.Snapshots()) > 0)
	// Output:
	// observation-only: true
	// snapshots recorded: true
}

// ExampleRun_faultInjection enables deterministic fault injection: the
// same profile and seed always injects the same faults.
func ExampleRun_faultInjection() {
	cfg := beacon.DefaultWorkloadConfig(beacon.PinusTaeda)
	cfg.GenomeScale = 8000
	cfg.Reads = 100

	wl, err := beacon.NewWorkload(beacon.FMSeeding, cfg)
	if err != nil {
		panic(err)
	}
	p := beacon.Platform{
		Kind:      beacon.BeaconD,
		Opts:      beacon.AllOptimizations(),
		Faults:    beacon.HeavyFaultProfile(),
		FaultSeed: 1,
	}
	a, err := beacon.Run(p, wl)
	if err != nil {
		panic(err)
	}
	b, err := beacon.Run(p, wl)
	if err != nil {
		panic(err)
	}
	fmt.Println("faults injected:", a.Report.Faults.Total() > 0)
	fmt.Println("deterministic:", a.Report.Cycles == b.Report.Cycles && a.Report.Faults == b.Report.Faults)
	// Output:
	// faults injected: true
	// deterministic: true
}

// ExampleRun_coRun co-locates two workloads on one memory pool — the
// multi-tenant scenario. The result carries the combined report plus each
// tenant's own completion.
func ExampleRun_coRun() {
	cfg := beacon.DefaultWorkloadConfig(beacon.PinusTaeda)
	cfg.GenomeScale = 8000
	cfg.Reads = 100

	seeding, err := beacon.NewWorkload(beacon.FMSeeding, cfg)
	if err != nil {
		panic(err)
	}
	prealign, err := beacon.NewWorkload(beacon.PreAlignment, cfg)
	if err != nil {
		panic(err)
	}
	p := beacon.Platform{Kind: beacon.BeaconS, Opts: beacon.AllOptimizations()}
	res, err := beacon.Run(p, seeding, beacon.WithCoRun(prealign))
	if err != nil {
		panic(err)
	}
	fmt.Println("tenants:", len(res.Tenants))
	fmt.Println("combined run outlasts each tenant:",
		res.Report.Seconds >= res.Tenants[0].Seconds && res.Report.Seconds >= res.Tenants[1].Seconds)
	// Output:
	// tenants: 2
	// combined run outlasts each tenant: true
}

// ExampleNewWorkloadCached backs workload construction with the
// content-addressed on-disk cache: the second construction of the same
// configuration decodes the stored trace instead of re-running the
// functional kernels.
func ExampleNewWorkloadCached() {
	dir, err := os.MkdirTemp("", "beacon-wcache-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	wc, err := beacon.OpenWorkloadCache(dir)
	if err != nil {
		panic(err)
	}
	cfg := beacon.DefaultWorkloadConfig(beacon.PinusTaeda)
	cfg.GenomeScale = 8000
	cfg.Reads = 100

	cold, err := beacon.NewWorkloadCached(beacon.FMSeeding, cfg, wc)
	if err != nil {
		panic(err)
	}
	warm, err := beacon.NewWorkloadCached(beacon.FMSeeding, cfg, wc)
	if err != nil {
		panic(err)
	}
	st := wc.Stats()
	fmt.Println("hits:", st.Hits, "misses:", st.Misses)
	fmt.Println("identical trace:", cold.Steps == warm.Steps && cold.FootprintBytes == warm.FootprintBytes)
	// Output:
	// hits: 1 misses: 1
	// identical trace: true
}

// ExampleRun_fmSeeding runs FM-index seeding on BEACON-D with the full
// optimization stack and checks the headline relations.
func ExampleRun_fmSeeding() {
	cfg := beacon.DefaultWorkloadConfig(beacon.PinusTaeda)
	cfg.GenomeScale = 8000
	cfg.Reads = 100

	wl, err := beacon.NewFMSeedingWorkload(cfg)
	if err != nil {
		panic(err)
	}
	cpu, err := beacon.Run(beacon.Platform{Kind: beacon.CPU}, wl)
	if err != nil {
		panic(err)
	}
	d, err := beacon.Run(beacon.Platform{
		Kind: beacon.BeaconD,
		Opts: beacon.AllOptimizations(),
	}, wl)
	if err != nil {
		panic(err)
	}
	fmt.Println("verified:", wl.Verified)
	fmt.Println("beacon-d faster than cpu:", d.Report.Seconds < cpu.Report.Seconds)
	// Output:
	// verified: true
	// beacon-d faster than cpu: true
}

// ExampleNewKmerCountingWorkload contrasts the two counting flows.
func ExampleNewKmerCountingWorkload() {
	cfg := beacon.DefaultWorkloadConfig(beacon.Human)
	cfg.GenomeScale = 8000
	cfg.Reads = 100

	mp, err := beacon.NewKmerCountingWorkload(cfg)
	if err != nil {
		panic(err)
	}
	cfg.Flow = beacon.SinglePass
	sp, err := beacon.NewKmerCountingWorkload(cfg)
	if err != nil {
		panic(err)
	}
	// Multi-pass reads the input twice, so its trace has about twice the
	// tasks of single-pass.
	fmt.Println("multi-pass tasks ==", mp.Tasks/sp.Tasks, "x single-pass tasks")
	// Output:
	// multi-pass tasks == 2 x single-pass tasks
}

// ExampleOptions shows positioning a platform on the optimization ladder.
func ExampleOptions() {
	vanilla := beacon.Vanilla()
	full := beacon.AllOptimizations()
	fmt.Println("vanilla packing:", vanilla.DataPacking)
	fmt.Println("full coalescing:", full.Coalescing)
	// Output:
	// vanilla packing: false
	// full coalescing: true
}
