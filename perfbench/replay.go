package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"beacon"
	"beacon/internal/obs"
)

// appInput is one application's dataset for a workload: the species and
// the read count. Read counts are rescaled per app and per workload so
// that no op kind costs more than about 4x another.
type appInput struct {
	app     beacon.Application
	species beacon.Species
	scale   int
	reads   int
}

// config returns the workload configuration for seed.
func (a appInput) config(seed uint64) beacon.WorkloadConfig {
	cfg := beacon.DefaultWorkloadConfig(a.species)
	cfg.GenomeScale = a.scale
	cfg.Reads = a.reads
	cfg.Seed = seed
	return cfg
}

// replayApps sizes the replay workloads at QuickRunConfig's genome scale.
var replayApps = []appInput{
	{beacon.FMSeeding, beacon.PinusTaeda, 8_000, 40},
	{beacon.HashSeeding, beacon.PinusTaeda, 8_000, 185},
	{beacon.KmerCounting, beacon.Human, 8_000, 11},
	{beacon.PreAlignment, beacon.PinusTaeda, 8_000, 600},
}

// platforms are the three systems every workload compares.
var platforms = []beacon.Platform{
	{Kind: beacon.BeaconD, Opts: beacon.AllOptimizations()},
	{Kind: beacon.BeaconS, Opts: beacon.AllOptimizations()},
	{Kind: beacon.DDRBaseline},
}

// pairs is one pass over every (app, platform) pair, consecutive pairs on
// different apps.
func pairs(nApps int) [][2]int {
	out := make([][2]int, 0, nApps*len(platforms))
	for p := range platforms {
		for a := 0; a < nApps; a++ {
			out = append(out, [2]int{a, p})
		}
	}
	return out
}

// replayVariants is how many workloads replay prebuilds per app, each
// from its own seed. Read sampling moves a single workload's size by up
// to ±15% (FM seeding hits repeats unevenly), so each op kind's times
// are a mix over several samples to keep percentiles steady across seeds.
const replayVariants = 4

// replayCycle is replay's op cycle: every (app, platform) pair on every
// variant. Each entry indexes {workload, platform}.
func replayCycle() [][2]int {
	var out [][2]int
	for v := 0; v < replayVariants; v++ {
		for _, pr := range pairs(len(replayApps)) {
			out = append(out, [2]int{v*len(replayApps) + pr[0], pr[1]})
		}
	}
	return out
}

// reportDigest fingerprints a report's full content.
func reportDigest(r *beacon.Report) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(b)), nil
}

// layerOf names the timing-model layer that replays on a platform.
func layerOf(k beacon.PlatformKind) string {
	if k == beacon.DDRBaseline {
		return "baseline"
	}
	return "core"
}

// replayWorkload: a closed loop with one client, each op one beacon.Run of
// a prebuilt workload on one platform. The timing model does nearly all
// of the work; genome, kernels, codec, wcache and server do none.
type replayWorkload struct {
	wls     []*beacon.Workload
	digests map[[2]int]string
}

func (w *replayWorkload) setUp(o options) error {
	w.wls = w.wls[:0]
	for v := 0; v < replayVariants; v++ {
		for i, a := range replayApps {
			wl, err := beacon.NewWorkload(a.app, a.config(mix64(o.seed, 1, uint64(i), uint64(v))))
			if err != nil {
				return err
			}
			w.wls = append(w.wls, wl)
		}
	}
	w.digests = make(map[[2]int]string)
	for _, pr := range replayCycle() {
		res, err := beacon.Run(platforms[pr[1]], w.wls[pr[0]])
		if err != nil {
			return err
		}
		if w.digests[pr], err = reportDigest(res.Report); err != nil {
			return err
		}
	}
	return nil
}

func (w *replayWorkload) tearDown() { w.wls, w.digests = nil, nil }

func (w *replayWorkload) run(o options, tr *tracer) (*runStats, error) {
	cycle := replayCycle()
	var layer map[string]metric
	if tr != nil {
		var err error
		if layer, err = w.simCounts(cycle); err != nil {
			return nil, err
		}
	}
	st, err := measure(o.seconds, len(cycle), nil, func(i int) (int64, error) {
		pr := cycle[i%len(cycle)]
		p, wl := platforms[pr[1]], w.wls[pr[0]]
		root := tr.begin(i, -1, "op")
		defer tr.end(root)
		var res *beacon.RunResult
		err := tr.do(i, root, layerOf(p.Kind)+".run", func() (err error) {
			res, err = beacon.Run(p, wl)
			return err
		})
		if err != nil {
			return 0, err
		}
		d, err := reportDigest(res.Report)
		if err != nil {
			return 0, err
		}
		if d != w.digests[pr] {
			return 0, fmt.Errorf("replay %s on %v: report digest changed", wl.Name, p.Kind)
		}
		return int64(wl.Steps), nil
	})
	if err != nil {
		return nil, err
	}
	for k, v := range layer {
		st.layer[k] = v
	}
	return st, nil
}

// simCounts replays each pair once with an observer attached and returns
// the simulated counts per pair plus events per op over the cycle.
func (w *replayWorkload) simCounts(cycle [][2]int) (map[string]metric, error) {
	acc := simAcc{}
	var events float64
	for _, pr := range cycle {
		ob := obs.New("perfbench")
		if _, err := beacon.Run(platforms[pr[1]], w.wls[pr[0]], beacon.WithObserver(ob)); err != nil {
			return nil, err
		}
		final := ob.Metrics.Dump().Final().Values
		events += final["engine.executed_events"]
		acc.add(replayApps[pr[0]%len(replayApps)].app, platforms[pr[1]].Kind, final)
	}
	out := make(map[string]metric)
	acc.metrics(out)
	out["sim.events_per_op"] = metric{events / float64(len(cycle)), "count"}
	return out, nil
}
