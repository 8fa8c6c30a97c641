package beacon

import (
	"context"
	"fmt"
	"strings"

	"beacon/internal/core"
	"beacon/internal/report"
	"beacon/internal/runner"
)

// This file contains ablation studies beyond the paper's figures: sweeps
// over the design choices DESIGN.md calls out (multi-chip coalescing group
// size, CXLG-DIMM population, CXL link bandwidth, task-scheduler queue
// depth, pool scale, row-buffer policy). They answer "why these parameters"
// questions a reader of the paper is left with, using the same workloads and
// machines as the main figures.
//
// Each sweep is a description — a platform, labeled machine overrides and
// an Extra metric — whose points run as jobs on the evaluator's pool through
// the same memoized path as the figure cells, so they honor the fault
// profile and the observer, and the rendered tables are identical at any
// -jobs setting.

// AblationPoint is one configuration of a sweep.
type AblationPoint struct {
	// Label names the swept value.
	Label string
	// Cycles is the makespan.
	Cycles int64
	// Speedup is relative to the sweep's first point.
	Speedup float64
	// Extra carries a sweep-specific secondary metric (documented per
	// ablation function).
	Extra float64
}

// AblationResult is a completed sweep.
type AblationResult struct {
	Title     string
	ExtraName string
	Points    []AblationPoint
}

// String renders the sweep.
func (a *AblationResult) String() string {
	t := report.NewTable(a.Title, "config", "cycles", "speedup", a.ExtraName)
	for _, p := range a.Points {
		t.AddRow(p.Label, fmt.Sprintf("%d", p.Cycles),
			report.FormatRatio(p.Speedup), fmt.Sprintf("%.3f", p.Extra))
	}
	return t.String()
}

// sweep describes one ablation: every point replays a Pinus taeda
// workload (multi-pass) on platform with its own machine overrides.
type sweep struct {
	title, extraName string
	platform         Platform
	points           []point
	// extra derives a point's Extra metric from its resolved machine and
	// its run.
	extra func(cfg core.Config, out outcome) float64
}

// point is one labeled configuration of a sweep.
type point struct {
	label string
	app   Application
	ov    machineOverrides
}

// ablation runs every point of s on the evaluator's pool and merges them
// in sweep order.
func (e *Evaluator) ablation(ctx context.Context, s sweep) (*AblationResult, error) {
	jobs := make([]runner.Job[outcome], len(s.points))
	for i, pt := range s.points {
		label := fmt.Sprintf("%s [%s]", s.title, pt.label)
		jobs[i] = runner.Job[outcome]{
			Label: label,
			Fn: func(context.Context) (outcome, error) {
				return e.run(label, pt.app, PinusTaeda, MultiPass, s.platform, pt.ov)
			},
		}
	}
	outs, err := runner.Run(ctx, e.pool, jobs)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Title: s.title, ExtraName: s.extraName}
	for i, out := range outs {
		cfg := s.platform.machine(s.points[i].ov)
		res.Points = append(res.Points, AblationPoint{
			Label:   s.points[i].label,
			Cycles:  out.rep.Cycles,
			Speedup: float64(outs[0].rep.Cycles) / float64(out.rep.Cycles),
			Extra:   s.extra(cfg, out),
		})
	}
	return res, nil
}

// AblationCoalesceGroup sweeps the multi-chip coalescing group size on
// BEACON-D FM-index seeding (the knob §IV-D says is "fine-tuned to achieve
// the best performance"). Extra is the DRAM overfetch ratio
// (transferred/useful bytes): group 16 (lock-step) wastes bandwidth on a
// 32 B access, group 1 (per-chip) unbalances chips; 8 is the sweet spot for
// 32 B objects on x4 chips.
func (e *Evaluator) AblationCoalesceGroup(ctx context.Context) (*AblationResult, error) {
	s := sweep{
		title:     "Ablation — multi-chip coalescing group size (BEACON-D, FM seeding)",
		extraName: "overfetch",
		platform:  Platform{Kind: BeaconD, Opts: AllOptimizations()},
		extra: func(_ core.Config, out outcome) float64 {
			if out.dram.UsefulBytes == 0 {
				return 1.0
			}
			return float64(out.dram.TransferredBytes) / float64(out.dram.UsefulBytes)
		},
	}
	for _, g := range []int{1, 2, 4, 8, 16} {
		s.points = append(s.points, point{fmt.Sprintf("group=%d", g), FMSeeding, machineOverrides{coalesceGroup: g}})
	}
	return e.ablation(ctx, s)
}

// AblationCXLGPerSwitch sweeps the number of enhanced CXLG-DIMMs per switch
// on BEACON-D FM seeding — the cost/performance dial between BEACON-S
// (zero customized DIMMs) and a fully customized pool. Extra is the local
// access fraction.
func (e *Evaluator) AblationCXLGPerSwitch(ctx context.Context) (*AblationResult, error) {
	s := sweep{
		title:     "Ablation — CXLG-DIMMs per switch (BEACON-D, FM seeding)",
		extraName: "local-frac",
		platform:  Platform{Kind: BeaconD, Opts: AllOptimizations()},
		extra:     func(_ core.Config, out outcome) float64 { return out.rep.LocalFraction },
	}
	for _, n := range []int{1, 2, 3, 4} {
		s.points = append(s.points, point{fmt.Sprintf("cxlg=%d", n), FMSeeding, machineOverrides{cxlgPerSwitch: n}})
	}
	return e.ablation(ctx, s)
}

// AblationLinkBandwidth sweeps the per-DIMM CXL link bandwidth on BEACON-S
// FM seeding (x2 through x32 PCIe 5.0 equivalents at 4 GB/s per lane; the
// default 40 B/cycle, 32 GB/s, is the Table I x8 link). Extra is the
// communication share of energy. BEACON-S routes every access over these
// links, so this is its most sensitive parameter.
func (e *Evaluator) AblationLinkBandwidth(ctx context.Context) (*AblationResult, error) {
	s := sweep{
		title:     "Ablation — per-DIMM CXL link bandwidth (BEACON-S, FM seeding)",
		extraName: "comm-energy",
		platform:  Platform{Kind: BeaconS, Opts: Options{DataPacking: true, MemAccessOpt: true, Placement: true}},
		extra:     func(_ core.Config, out outcome) float64 { return out.rep.CommEnergyRatio() },
	}
	for _, bpc := range []float64{10, 20, 40, 80, 160} {
		label := fmt.Sprintf("x%d (%.1f GB/s)", int(bpc/5), bpc*0.8)
		s.points = append(s.points, point{label, FMSeeding, machineOverrides{linkBytesPerCycle: bpc}})
	}
	return e.ablation(ctx, s)
}

// AblationInFlight sweeps the Task Scheduler queue depth on BEACON-S FM
// seeding. The scheduler must keep enough tasks in flight to cover the
// fabric's bandwidth-delay product; the sweep shows throughput saturating
// once the queue is deep enough. Extra is tasks-in-flight per PE.
func (e *Evaluator) AblationInFlight(ctx context.Context) (*AblationResult, error) {
	s := sweep{
		title:     "Ablation — task scheduler queue depth (BEACON-S, FM seeding)",
		extraName: "tasks/PE",
		platform:  Platform{Kind: BeaconS, Opts: Options{DataPacking: true, MemAccessOpt: true, Placement: true}},
		extra: func(cfg core.Config, _ outcome) float64 {
			return float64(cfg.InFlightPerNode) / float64(cfg.PEsPerNode)
		},
	}
	for _, n := range []int{64, 256, 1024, 4096} {
		s.points = append(s.points, point{fmt.Sprintf("inflight=%d", n), FMSeeding, machineOverrides{inFlight: n}})
	}
	return e.ablation(ctx, s)
}

// AblationPoolScale sweeps the pool size (switch count) on BEACON-D FM
// seeding with the workload held constant — the scalability claim behind
// "the memory pool ... can scale-out far beyond this". Extra is the number
// of compute nodes.
func (e *Evaluator) AblationPoolScale(ctx context.Context) (*AblationResult, error) {
	s := sweep{
		title:     "Ablation — pool scale-out (BEACON-D, FM seeding, fixed workload)",
		extraName: "nodes",
		platform:  Platform{Kind: BeaconD, Opts: AllOptimizations()},
		extra: func(cfg core.Config, _ outcome) float64 {
			return float64(cfg.Switches * cfg.CXLGPerSwitch)
		},
	}
	for _, n := range []int{1, 2, 4, 8} {
		s.points = append(s.points, point{fmt.Sprintf("switches=%d", n), FMSeeding, machineOverrides{switches: n}})
	}
	return e.ablation(ctx, s)
}

// AblationRowPolicy compares open-page and closed-page row policies on
// BEACON-D for a locality-rich workload (hash seeding, spatial candidate
// lists) and a random fine-grained one (FM seeding). Extra is the row-hit
// fraction.
func (e *Evaluator) AblationRowPolicy(ctx context.Context) (*AblationResult, error) {
	s := sweep{
		title:     "Ablation — row-buffer policy (BEACON-D)",
		extraName: "row-hit-frac",
		platform:  Platform{Kind: BeaconD, Opts: AllOptimizations()},
		extra:     func(_ core.Config, out outcome) float64 { return out.dram.RowHitRate() },
	}
	for _, app := range []Application{FMSeeding, HashSeeding} {
		s.points = append(s.points,
			point{fmt.Sprintf("%s/open-page", app), app, machineOverrides{}},
			point{fmt.Sprintf("%s/closed-page", app), app, machineOverrides{closedPage: true}})
	}
	return e.ablation(ctx, s)
}

// AllAblations runs every sweep and renders them. The sweeps run as
// concurrent coordinators over the evaluator's shared pool; the output
// concatenates them in a fixed order.
func (e *Evaluator) AllAblations(ctx context.Context) (string, error) {
	fns := []func(context.Context) (*AblationResult, error){
		e.AblationCoalesceGroup,
		e.AblationCXLGPerSwitch,
		e.AblationLinkBandwidth,
		e.AblationInFlight,
		e.AblationPoolScale,
		e.AblationRowPolicy,
	}
	jobs := make([]runner.Job[*AblationResult], len(fns))
	for i, fn := range fns {
		jobs[i] = runner.Job[*AblationResult]{
			Label: fmt.Sprintf("ablation %d", i),
			Fn:    fn,
		}
	}
	results, err := runner.Run(ctx, nil, jobs)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, res := range results {
		b.WriteString(res.String())
		b.WriteByte('\n')
	}
	return b.String(), nil
}
