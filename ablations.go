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
// depth, pool scale). They answer "why these parameters" questions a reader
// of the paper is left with, using the same workloads and machines as the
// main figures.
//
// Like the figures, each sweep enumerates its configurations as independent
// jobs on the evaluator's worker pool and merges points by sweep order, so
// the rendered tables are identical at any -jobs setting. Every point
// replays the same cached, read-only workload trace on its own machine.

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

func (a *AblationResult) finish() {
	if len(a.Points) == 0 {
		return
	}
	base := float64(a.Points[0].Cycles)
	for i := range a.Points {
		a.Points[i].Speedup = base / float64(a.Points[i].Cycles)
	}
}

// sweepPoint is one machine configuration of a sweep: a label plus the
// core.Config to run and the workload to replay on it. fixedExtra is the
// point's Extra metric when the sweep derives it from the configuration
// rather than the simulation result (extra == nil in runSweep).
type sweepPoint struct {
	label      string
	cfg        core.Config
	wl         *Workload
	fixedExtra float64
}

// runSweep executes every point on the evaluator's pool and converts the
// per-point core results into AblationPoints via extra (or each point's
// fixedExtra when extra is nil), in sweep order.
func (e *Evaluator) runSweep(ctx context.Context, title, extraName string,
	points []sweepPoint, extra func(*core.Result) float64) (*AblationResult, error) {
	jobs := make([]runner.Job[*core.Result], len(points))
	for i, p := range points {
		p := p
		jobs[i] = runner.Job[*core.Result]{
			Label: fmt.Sprintf("%s [%s]", title, p.label),
			Fn: func(context.Context) (*core.Result, error) {
				return core.Run(p.cfg, internalTrace(p.wl))
			},
		}
	}
	results, err := runner.Run(ctx, e.pool, jobs)
	if err != nil {
		return nil, err
	}
	out := &AblationResult{Title: title, ExtraName: extraName}
	for i, res := range results {
		x := points[i].fixedExtra
		if extra != nil {
			x = extra(res)
		}
		out.Points = append(out.Points, AblationPoint{
			Label:  points[i].label,
			Cycles: int64(res.Cycles),
			Extra:  x,
		})
	}
	out.finish()
	return out, nil
}

// AblationCoalesceGroup sweeps the multi-chip coalescing group size on
// BEACON-D FM-index seeding (the knob §IV-D says is "fine-tuned to achieve
// the best performance"). Extra is the DRAM overfetch ratio
// (transferred/useful bytes): group 16 (lock-step) wastes bandwidth on a
// 32 B access, group 1 (per-chip) unbalances chips; 8 is the sweet spot for
// 32 B objects on x4 chips.
func (e *Evaluator) AblationCoalesceGroup(ctx context.Context) (*AblationResult, error) {
	wl, err := e.workload(FMSeeding, PinusTaeda, MultiPass)
	if err != nil {
		return nil, err
	}
	var points []sweepPoint
	for _, g := range []int{1, 2, 4, 8, 16} {
		cfg := core.DefaultConfig(core.DesignD, core.AllOptions())
		cfg.CoalesceGroup = g
		points = append(points, sweepPoint{label: fmt.Sprintf("group=%d", g), cfg: cfg, wl: wl})
	}
	return e.runSweep(ctx,
		"Ablation — multi-chip coalescing group size (BEACON-D, FM seeding)",
		"overfetch", points, func(res *core.Result) float64 {
			if res.DRAM.UsefulBytes == 0 {
				return 1.0
			}
			return float64(res.DRAM.TransferredBytes) / float64(res.DRAM.UsefulBytes)
		})
}

// AblationCXLGPerSwitch sweeps the number of enhanced CXLG-DIMMs per switch
// on BEACON-D FM seeding — the cost/performance dial between BEACON-S
// (zero customized DIMMs) and a fully customized pool. Extra is the local
// access fraction.
func (e *Evaluator) AblationCXLGPerSwitch(ctx context.Context) (*AblationResult, error) {
	wl, err := e.workload(FMSeeding, PinusTaeda, MultiPass)
	if err != nil {
		return nil, err
	}
	var points []sweepPoint
	for _, n := range []int{1, 2, 3, 4} {
		cfg := core.DefaultConfig(core.DesignD, core.AllOptions())
		cfg.CXLGPerSwitch = n
		points = append(points, sweepPoint{label: fmt.Sprintf("cxlg=%d", n), cfg: cfg, wl: wl})
	}
	return e.runSweep(ctx,
		"Ablation — CXLG-DIMMs per switch (BEACON-D, FM seeding)",
		"local-frac", points, func(res *core.Result) float64 {
			if t := res.LocalAccesses + res.RemoteAccesses; t > 0 {
				return float64(res.LocalAccesses) / float64(t)
			}
			return 0
		})
}

// AblationLinkBandwidth sweeps the per-DIMM CXL link bandwidth on BEACON-S
// FM seeding (x4 through x32 PCIe 5.0 equivalents). Extra is the
// communication share of energy. BEACON-S routes every access over these
// links, so this is its most sensitive parameter.
func (e *Evaluator) AblationLinkBandwidth(ctx context.Context) (*AblationResult, error) {
	wl, err := e.workload(FMSeeding, PinusTaeda, MultiPass)
	if err != nil {
		return nil, err
	}
	opts := core.Options{DataPacking: true, MemAccessOpt: true, Placement: true}
	var points []sweepPoint
	for _, bpc := range []float64{10, 20, 40, 80, 160} {
		cfg := core.DefaultConfig(core.DesignS, opts)
		cfg.Fabric.DIMMLink.BytesPerCycle = bpc
		points = append(points, sweepPoint{
			label: fmt.Sprintf("x%d (%.1f GB/s)", int(bpc/10), bpc*0.8), cfg: cfg, wl: wl})
	}
	return e.runSweep(ctx,
		"Ablation — per-DIMM CXL link bandwidth (BEACON-S, FM seeding)",
		"comm-energy", points, func(res *core.Result) float64 {
			return res.Energy.CommunicationRatio()
		})
}

// AblationInFlight sweeps the Task Scheduler queue depth on BEACON-S FM
// seeding. The scheduler must keep enough tasks in flight to cover the
// fabric's bandwidth-delay product; the sweep shows throughput saturating
// once the queue is deep enough. Extra is tasks-in-flight per PE.
func (e *Evaluator) AblationInFlight(ctx context.Context) (*AblationResult, error) {
	wl, err := e.workload(FMSeeding, PinusTaeda, MultiPass)
	if err != nil {
		return nil, err
	}
	opts := core.Options{DataPacking: true, MemAccessOpt: true, Placement: true}
	var points []sweepPoint
	for _, inflight := range []int{64, 256, 1024, 4096} {
		cfg := core.DefaultConfig(core.DesignS, opts)
		cfg.InFlightPerNode = inflight
		points = append(points, sweepPoint{
			label:      fmt.Sprintf("inflight=%d", inflight),
			cfg:        cfg,
			wl:         wl,
			fixedExtra: float64(inflight) / float64(cfg.PEsPerNode),
		})
	}
	return e.runSweep(ctx,
		"Ablation — task scheduler queue depth (BEACON-S, FM seeding)",
		"tasks/PE", points, nil)
}

// AblationPoolScale sweeps the pool size (switch count) on BEACON-D FM
// seeding with the workload held constant — the scalability claim behind
// "the memory pool ... can scale-out far beyond this". Extra is the number
// of compute nodes.
func (e *Evaluator) AblationPoolScale(ctx context.Context) (*AblationResult, error) {
	wl, err := e.workload(FMSeeding, PinusTaeda, MultiPass)
	if err != nil {
		return nil, err
	}
	var points []sweepPoint
	for _, switches := range []int{1, 2, 4, 8} {
		cfg := core.DefaultConfig(core.DesignD, core.AllOptions())
		cfg.Switches = switches
		points = append(points, sweepPoint{
			label:      fmt.Sprintf("switches=%d", switches),
			cfg:        cfg,
			wl:         wl,
			fixedExtra: float64(switches * cfg.CXLGPerSwitch),
		})
	}
	return e.runSweep(ctx,
		"Ablation — pool scale-out (BEACON-D, FM seeding, fixed workload)",
		"nodes", points, nil)
}

// AblationRowPolicy compares open-page and closed-page row policies on
// BEACON-D for a locality-rich workload (hash seeding, spatial candidate
// lists) and a random fine-grained one (FM seeding). Extra is the row-hit
// fraction.
func (e *Evaluator) AblationRowPolicy(ctx context.Context) (*AblationResult, error) {
	var points []sweepPoint
	for _, app := range []Application{FMSeeding, HashSeeding} {
		wl, err := e.workload(app, PinusTaeda, MultiPass)
		if err != nil {
			return nil, err
		}
		for _, closed := range []bool{false, true} {
			cfg := core.DefaultConfig(core.DesignD, core.AllOptions())
			cfg.DIMM.ClosedPage = closed
			policy := "open"
			if closed {
				policy = "closed"
			}
			points = append(points, sweepPoint{
				label: fmt.Sprintf("%s/%s-page", app, policy), cfg: cfg, wl: wl})
		}
	}
	return e.runSweep(ctx,
		"Ablation — row-buffer policy (BEACON-D)",
		"row-hit-frac", points, func(res *core.Result) float64 {
			if total := res.DRAM.RowHits + res.DRAM.RowMisses + res.DRAM.RowConflicts; total > 0 {
				return float64(res.DRAM.RowHits) / float64(total)
			}
			return 0
		})
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
		fn := fn
		jobs[i] = runner.Job[*AblationResult]{
			Label: fmt.Sprintf("ablation %d", i),
			Fn:    func(ctx context.Context) (*AblationResult, error) { return fn(ctx) },
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
