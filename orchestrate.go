package beacon

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"beacon/internal/energy"
	"beacon/internal/obs"
	"beacon/internal/runner"
	"beacon/internal/stats"
)

// Evaluator orchestrates the paper's experiments over a bounded worker
// pool. Every figure and ablation sweep is enumerated as a flat list of
// independent simulation jobs (species × platform × ladder step, or sweep
// point); the jobs execute on the pool in whatever order the scheduler
// picks, and their results are merged by job index, so an Evaluator's
// output is byte-identical for any jobs setting — including jobs=1, which
// is exact serial execution.
//
// Each simulation stays single-threaded internally (the sim.Engine
// determinism contract is untouched); parallelism exists only across
// independent engines. Every job goes through one path (run) that shares
// both phases: a workload (genome, indexes, trace tasks) is built once per
// configuration, and a simulation runs once per distinct (workload,
// platform, ablation overrides), however many figures ask for it.
//
// One Evaluator's pool is shared across all of its figure methods, so
// concurrent coordinators (RunEvaluation fans every figure out at once)
// still respect the single -jobs bound.
type Evaluator struct {
	rc   RunConfig
	opts EvalOptions
	pool *runner.Pool
	// cache memoizes workloads (over opts.WorkloadCache), runs simulations.
	cache onceMap[workloadKey, *Workload]
	runs  onceMap[runKey, outcome]
	// faultAgg is the per-platform fault aggregate (nil when injection is
	// off). It is commutative uint64 sums under a mutex, so it is
	// byte-identical at any jobs width even though jobs finish in
	// scheduler order.
	faultMu  sync.Mutex
	faultAgg map[PlatformKind]FaultStats
}

// NewEvaluator returns an evaluator running rc's scale, configured once by
// opts: the pool width, the observability collection, the fault profile,
// the workload cache and the progress log. opts.Timeout and
// opts.Ablations apply to RunEvaluation only; a figure method is bounded
// by its ctx alone.
func NewEvaluator(rc RunConfig, opts EvalOptions) *Evaluator {
	e := &Evaluator{
		rc:   rc,
		opts: opts,
		pool: runner.NewPool(opts.Jobs),
	}
	if opts.Faults.Enabled() {
		e.faultAgg = make(map[PlatformKind]FaultStats)
	}
	e.pool.LogProgress(opts.Progress)
	return e
}

// FaultSummary returns per-platform fault and recovery totals aggregated
// over every job run so far (nil when injection is off). A job that reuses
// a memoized run still adds its faults, so the table counts every job as
// if it had simulated on its own.
func (e *Evaluator) FaultSummary() *FaultSummary {
	if e.faultAgg == nil {
		return nil
	}
	e.faultMu.Lock()
	defer e.faultMu.Unlock()
	out := &FaultSummary{Profile: e.opts.Faults, Seed: e.opts.FaultSeed}
	for _, k := range []PlatformKind{BeaconD, BeaconS} {
		if st, ok := e.faultAgg[k]; ok {
			out.Rows = append(out.Rows, FaultSummaryRow{Kind: k, Stats: st})
		}
	}
	return out
}

// recordFaults folds one job's fault stats into the per-platform aggregate.
func (e *Evaluator) recordFaults(kind PlatformKind, st FaultStats) {
	if e.faultAgg == nil {
		return
	}
	e.faultMu.Lock()
	agg := e.faultAgg[kind]
	agg.Add(st)
	e.faultAgg[kind] = agg
	e.faultMu.Unlock()
}

// Jobs returns the pool's concurrency bound.
func (e *Evaluator) Jobs() int { return e.pool.Size() }

// workload returns the cached workload for k, building it on first use.
func (e *Evaluator) workload(k workloadKey) (*Workload, error) {
	return e.cache.get(k, func() (*Workload, error) {
		return NewWorkloadCached(k.app, k.cfg, e.opts.WorkloadCache)
	})
}

// run is the one simulation path of every figure cell and ablation point:
// it replays the cached (app, sp, flow) workload on p with the ablation
// overrides ov (zero for the figures), taking the fault profile, seed and
// observer from EvalOptions. Unobserved runs are memoized per runKey; an
// observed run is its consumer's own, under its label. Every consumer
// records the run's faults.
func (e *Evaluator) run(label string, app Application, sp Species, flow KmerFlow, p Platform, ov machineOverrides) (outcome, error) {
	key := runKey{wl: workloadKey{app: app, cfg: e.rc.workloadConfig(app, sp, flow)}}
	wl, err := e.workload(key.wl)
	if err != nil {
		return outcome{}, err
	}
	p.Faults, p.FaultSeed = e.opts.Faults, e.opts.FaultSeed
	key.p = p
	if p.Kind == BeaconD || p.Kind == BeaconS {
		key.m = p.machine(ov)
	}
	replay := func() (outcome, error) {
		return simulate(p, ov, []*Workload{wl}, e.opts.Obs.New(label))
	}
	var out outcome
	if e.opts.Obs != nil {
		out, err = replay()
	} else {
		out, err = e.runs.get(key, replay)
	}
	if err != nil {
		return outcome{}, err
	}
	e.recordFaults(p.Kind, out.rep.Faults)
	return out, nil
}

// simJob is one figure cell: the run of app's (sp, flow) workload on p as a
// pool job. step names the job's role in its figure (a ladder step name,
// "cpu-ref", "ideal", ...) so failures and progress lines carry the full
// app/species/platform/step identity.
func (e *Evaluator) simJob(app Application, sp Species, flow KmerFlow, p Platform, step string) runner.Job[*Report] {
	label := fmt.Sprintf("%s/%s/%s/%s", app, sp, p.Kind, step)
	return runner.Job[*Report]{
		Label: label,
		Fn: func(context.Context) (*Report, error) {
			out, err := e.run(label, app, sp, flow, p, machineOverrides{})
			return out.rep, err
		},
	}
}

// stepFlow returns the flow a ladder step replays (k-mer single-pass steps
// switch traces; everything else counts multi-pass).
func stepFlow(app Application, st ladderStep) KmerFlow {
	if app == KmerCounting && st.Flow == SinglePass {
		return SinglePass
	}
	return MultiPass
}

// runLadder executes a full ladder figure: per species one CPU reference,
// one DDR-baseline reference, every ladder step, and the idealized-
// communication run — all as independent pool jobs.
func (e *Evaluator) runLadder(ctx context.Context, app Application, kind PlatformKind) (*LadderFigure, error) {
	speciesList := speciesFor(app)
	steps := ladderFor(app, kind)
	fig := &LadderFigure{App: app, Kind: kind, Species: speciesList}
	for _, s := range steps {
		fig.Steps = append(fig.Steps, s.Name)
	}

	// Per-species job layout: [cpu, ddr, step 0..n-1, ideal].
	stride := len(steps) + 3
	jobs := make([]runner.Job[*Report], 0, len(speciesList)*stride)
	for _, sp := range speciesList {
		// The CPU software is single-pass-equivalent (BFCounter reads
		// input once); normalize against the single-pass trace for k-mer
		// counting.
		cpuFlow := MultiPass
		if app == KmerCounting {
			cpuFlow = SinglePass
		}
		jobs = append(jobs, e.simJob(app, sp, cpuFlow, Platform{Kind: CPU}, "cpu-ref"))
		jobs = append(jobs, e.simJob(app, sp, MultiPass, Platform{Kind: DDRBaseline}, "ddr-ref"))
		for _, st := range steps {
			jobs = append(jobs, e.simJob(app, sp, stepFlow(app, st), Platform{Kind: kind, Opts: st.Opts}, st.Name))
		}
		last := steps[len(steps)-1]
		idealOpts := last.Opts
		idealOpts.IdealComm = true
		jobs = append(jobs, e.simJob(app, sp, stepFlow(app, last), Platform{Kind: kind, Opts: idealOpts}, "ideal"))
	}
	reports, err := runner.Run(ctx, e.pool, jobs)
	if err != nil {
		return nil, err
	}
	cpuOf := func(si int) *Report { return reports[si*stride] }
	ddrOf := func(si int) *Report { return reports[si*stride+1] }
	stepOf := func(si, stepIdx int) *Report { return reports[si*stride+2+stepIdx] }
	idealOf := func(si int) *Report { return reports[si*stride+stride-1] }

	// Populate entries and aggregates in the figure's fixed order.
	for stepIdx, stepName := range fig.Steps {
		var perfs, energies []float64
		for si, sp := range speciesList {
			rep := stepOf(si, stepIdx)
			perf := cpuOf(si).Seconds / rep.Seconds
			en := cpuOf(si).EnergyPJ / rep.EnergyPJ
			fig.Entries = append(fig.Entries, LadderEntry{
				Step: stepName, Species: sp,
				PerfVsCPU: perf, EnergyVsCPU: en,
				CommEnergyRatio: rep.CommEnergyRatio(),
			})
			perfs = append(perfs, perf)
			energies = append(energies, en)
		}
		fig.GeoPerfVsCPU = append(fig.GeoPerfVsCPU, stats.MustGeoMean(perfs))
		fig.GeoEnergyVsCPU = append(fig.GeoEnergyVsCPU, stats.MustGeoMean(energies))
	}
	for i := 1; i < len(fig.GeoPerfVsCPU); i++ {
		fig.StepGains = append(fig.StepGains, fig.GeoPerfVsCPU[i]/fig.GeoPerfVsCPU[i-1])
	}

	var vsBasePerf, vsBaseEnergy, vanVsBase, pctIdeal, pctIdealEnergy []float64
	last := len(fig.Steps) - 1
	for si := range speciesList {
		fin := stepOf(si, last)
		vsBasePerf = append(vsBasePerf, ddrOf(si).Seconds/fin.Seconds)
		vsBaseEnergy = append(vsBaseEnergy, ddrOf(si).EnergyPJ/fin.EnergyPJ)
		vanVsBase = append(vanVsBase, ddrOf(si).Seconds/stepOf(si, 0).Seconds)
		pctIdeal = append(pctIdeal, idealOf(si).Seconds/fin.Seconds)
		pctIdealEnergy = append(pctIdealEnergy, idealOf(si).EnergyPJ/fin.EnergyPJ)
	}
	fig.VsBaselinePerf = stats.MustGeoMean(vsBasePerf)
	fig.VsBaselineEnergy = stats.MustGeoMean(vsBaseEnergy)
	fig.VanillaVsBaselinePerf = stats.MustGeoMean(vanVsBase)
	fig.PctOfIdealPerf = stats.MustGeoMean(pctIdeal)
	fig.PctOfIdealEnergy = stats.MustGeoMean(pctIdealEnergy)
	return fig, nil
}

// ladderPair runs one application's ladder on both designs. The two
// coordinators run unbounded (they hold no pool slot while waiting); their
// leaf simulations share the evaluator's pool.
func (e *Evaluator) ladderPair(ctx context.Context, app Application) (d, s *LadderFigure, err error) {
	figs, err := runner.Run(ctx, nil, []runner.Job[*LadderFigure]{
		{Label: fmt.Sprintf("%s/%s ladder", app, BeaconD), Fn: func(ctx context.Context) (*LadderFigure, error) {
			return e.runLadder(ctx, app, BeaconD)
		}},
		{Label: fmt.Sprintf("%s/%s ladder", app, BeaconS), Fn: func(ctx context.Context) (*LadderFigure, error) {
			return e.runLadder(ctx, app, BeaconS)
		}},
	})
	if err != nil {
		return nil, nil, err
	}
	return figs[0], figs[1], nil
}

// Figure12 reproduces the FM-index seeding evaluation for both designs.
func (e *Evaluator) Figure12(ctx context.Context) (d, s *LadderFigure, err error) {
	return e.ladderPair(ctx, FMSeeding)
}

// Figure14 reproduces the hash-index seeding evaluation.
func (e *Evaluator) Figure14(ctx context.Context) (d, s *LadderFigure, err error) {
	return e.ladderPair(ctx, HashSeeding)
}

// Figure15 reproduces the k-mer counting evaluation.
func (e *Evaluator) Figure15(ctx context.Context) (d, s *LadderFigure, err error) {
	return e.ladderPair(ctx, KmerCounting)
}

// Figure3 measures how much idealized communication would speed up the
// previous DDR-DIMM accelerators — the paper's motivation experiment.
func (e *Evaluator) Figure3(ctx context.Context) (*Figure3Result, error) {
	type rowSpec struct {
		app Application
		sp  Species
	}
	var rows []rowSpec
	for _, sp := range AllSeedingSpecies() {
		rows = append(rows, rowSpec{FMSeeding, sp}, rowSpec{HashSeeding, sp})
	}
	rows = append(rows, rowSpec{KmerCounting, Human})

	// Per-row job layout: [real, ideal]. The DDR baseline (NEST) counts
	// k-mers multi-pass.
	jobs := make([]runner.Job[*Report], 0, 2*len(rows))
	for _, r := range rows {
		jobs = append(jobs,
			e.simJob(r.app, r.sp, MultiPass, Platform{Kind: DDRBaseline}, "real"),
			e.simJob(r.app, r.sp, MultiPass, Platform{Kind: DDRBaseline, Opts: Options{IdealComm: true}}, "ideal"))
	}
	reports, err := runner.Run(ctx, e.pool, jobs)
	if err != nil {
		return nil, err
	}
	out := &Figure3Result{}
	var perfs, energies []float64
	for i, r := range rows {
		real, ideal := reports[2*i], reports[2*i+1]
		row := Fig3Row{
			Workload:   fmt.Sprintf("%s/%s", r.app, r.sp),
			PerfGain:   real.Seconds / ideal.Seconds,
			EnergyGain: real.EnergyPJ / ideal.EnergyPJ,
		}
		out.Rows = append(out.Rows, row)
		perfs = append(perfs, row.PerfGain)
		energies = append(energies, row.EnergyGain)
	}
	// The paper reports plain averages for Fig. 3.
	out.AvgPerf = stats.Mean(perfs)
	out.AvgEnergy = stats.Mean(energies)
	return out, nil
}

// Figure13 measures per-chip access balance on the CXLG-DIMMs for FM-index
// seeding, without and with multi-chip coalescing (Fig. 11/13).
func (e *Evaluator) Figure13(ctx context.Context) (*Figure13Result, error) {
	placed := Options{DataPacking: true, MemAccessOpt: true, Placement: true}
	reports, err := runner.Run(ctx, e.pool, []runner.Job[*Report]{
		e.simJob(FMSeeding, PinusTaeda, MultiPass, Platform{Kind: BeaconD, Opts: placed}, "placed"),
		e.simJob(FMSeeding, PinusTaeda, MultiPass, Platform{Kind: BeaconD, Opts: AllOptimizations()}, "coalesced"),
	})
	if err != nil {
		return nil, err
	}
	norm := func(xs []uint64) ([]float64, float64) {
		fs := make([]float64, len(xs))
		for i, x := range xs {
			fs[i] = float64(x)
		}
		mean := stats.Mean(fs)
		if mean == 0 {
			return fs, 0
		}
		out := make([]float64, len(fs))
		for i := range fs {
			out[i] = fs[i] / mean
		}
		return out, stats.CoefVar(fs)
	}
	res := &Figure13Result{}
	res.WithoutCoalescing, res.CVWithout = norm(reports[0].ChipAccesses)
	res.WithCoalescing, res.CVWith = norm(reports[1].ChipAccesses)
	return res, nil
}

// Figure16 runs DNA pre-alignment on both designs with full optimizations.
func (e *Evaluator) Figure16(ctx context.Context) (*Figure16Result, error) {
	out := &Figure16Result{Species: AllSeedingSpecies()}
	// Per-species job layout: [cpu, beacon-d, beacon-s].
	jobs := make([]runner.Job[*Report], 0, 3*len(out.Species))
	for _, sp := range out.Species {
		jobs = append(jobs,
			e.simJob(PreAlignment, sp, MultiPass, Platform{Kind: CPU}, "cpu-ref"),
			e.simJob(PreAlignment, sp, MultiPass, Platform{Kind: BeaconD, Opts: finalOptions(PreAlignment, BeaconD)}, "final"),
			e.simJob(PreAlignment, sp, MultiPass, Platform{Kind: BeaconS, Opts: finalOptions(PreAlignment, BeaconS)}, "final"))
	}
	reports, err := runner.Run(ctx, e.pool, jobs)
	if err != nil {
		return nil, err
	}
	for si := range out.Species {
		cpu, d, s := reports[3*si], reports[3*si+1], reports[3*si+2]
		out.PerfD = append(out.PerfD, cpu.Seconds/d.Seconds)
		out.PerfS = append(out.PerfS, cpu.Seconds/s.Seconds)
		out.EnergyD = append(out.EnergyD, cpu.EnergyPJ/d.EnergyPJ)
		out.EnergyS = append(out.EnergyS, cpu.EnergyPJ/s.EnergyPJ)
	}
	out.GeoPerfD = stats.MustGeoMean(out.PerfD)
	out.GeoPerfS = stats.MustGeoMean(out.PerfS)
	out.GeoEnergyD = stats.MustGeoMean(out.EnergyD)
	out.GeoEnergyS = stats.MustGeoMean(out.EnergyS)
	return out, nil
}

// Figure17 measures the energy breakdown along the ladder, averaged over
// the four applications (one representative dataset each).
func (e *Evaluator) Figure17(ctx context.Context, kind PlatformKind) (*Figure17Result, error) {
	apps := []Application{FMSeeding, HashSeeding, KmerCounting, PreAlignment}
	// Use the longest ladder's step names; shorter ladders clamp to final.
	maxSteps := []string{"CXL-vanilla", "+data packing", "+mem access opt", "+placement/mapping", "+app-specific"}
	out := &Figure17Result{Kind: kind, Steps: maxSteps}

	// Per-app job layout: one job per ladder position.
	jobs := make([]runner.Job[*Report], 0, len(apps)*len(maxSteps))
	for _, app := range apps {
		sp := speciesFor(app)[0]
		steps := ladderFor(app, kind)
		for i := range maxSteps {
			st := steps[min(i, len(steps)-1)]
			jobs = append(jobs, e.simJob(app, sp, stepFlow(app, st), Platform{Kind: kind, Opts: st.Opts}, st.Name))
		}
	}
	reports, err := runner.Run(ctx, e.pool, jobs)
	if err != nil {
		return nil, err
	}
	sums := make([]energy.Breakdown, len(maxSteps))
	for appIdx := range apps {
		for i := range maxSteps {
			rep := reports[appIdx*len(maxSteps)+i]
			sums[i].Add(energy.Breakdown{
				CommunicationPJ: rep.CommEnergyPJ / rep.EnergyPJ,
				DRAMPJ:          rep.DRAMEnergyPJ / rep.EnergyPJ,
				ComputePJ:       rep.ComputeEnergyPJ / rep.EnergyPJ,
			})
		}
	}
	for i := range maxSteps {
		n := float64(len(apps))
		out.CommRatio = append(out.CommRatio, sums[i].CommunicationPJ/n)
		out.DRAMRatio = append(out.DRAMRatio, sums[i].DRAMPJ/n)
		out.ComputeRatio = append(out.ComputeRatio, sums[i].ComputePJ/n)
	}
	return out, nil
}

// OptimizationSummary aggregates the ladder gains across all four
// applications for one design (§VI-G).
func (e *Evaluator) OptimizationSummary(ctx context.Context, kind PlatformKind) (*OptSummary, error) {
	apps := []Application{FMSeeding, HashSeeding, KmerCounting, PreAlignment}
	// Per-app job layout: [vanilla, final].
	jobs := make([]runner.Job[*Report], 0, 2*len(apps))
	for _, app := range apps {
		sp := speciesFor(app)[0]
		steps := ladderFor(app, kind)
		first, last := steps[0], steps[len(steps)-1]
		jobs = append(jobs,
			e.simJob(app, sp, stepFlow(app, first), Platform{Kind: kind, Opts: first.Opts}, first.Name),
			e.simJob(app, sp, stepFlow(app, last), Platform{Kind: kind, Opts: last.Opts}, last.Name))
	}
	reports, err := runner.Run(ctx, e.pool, jobs)
	if err != nil {
		return nil, err
	}
	var perfs, energies, before, after []float64
	for appIdx := range apps {
		v, f := reports[2*appIdx], reports[2*appIdx+1]
		perfs = append(perfs, v.Seconds/f.Seconds)
		energies = append(energies, v.EnergyPJ/f.EnergyPJ)
		before = append(before, v.CommEnergyRatio())
		after = append(after, f.CommEnergyRatio())
	}
	return &OptSummary{
		Kind:       kind,
		PerfGain:   stats.MustGeoMean(perfs),
		EnergyGain: stats.MustGeoMean(energies),
		CommBefore: stats.Mean(before),
		CommAfter:  stats.Mean(after),
	}, nil
}

// EvalOptions configures an Evaluator (NewEvaluator) or a full-evaluation
// run (RunEvaluation).
type EvalOptions struct {
	// Jobs bounds concurrent simulations; <= 0 selects GOMAXPROCS.
	Jobs int
	// Timeout bounds the whole RunEvaluation; 0 means no limit.
	Timeout time.Duration
	// Ablations additionally runs the design-choice sweeps in
	// RunEvaluation.
	Ablations bool
	// Progress, when non-nil, receives one line per finished simulation
	// job (live log; completion order).
	Progress io.Writer
	// Obs, when non-nil, collects per-job metrics and timeline traces, one
	// record per figure cell and sweep point under the job's label.
	// Observation-only: the returned Evaluation is identical either way.
	// Observed jobs bypass the run memo, since a record comes only from
	// running, so every job simulates on its own.
	Obs *obs.Collection
	// Faults applies a fault-injection profile to every BEACON simulation
	// job (zero = off); FaultSeed seeds the deterministic fault streams.
	Faults    FaultProfile
	FaultSeed uint64
	// WorkloadCache, when non-nil, backs workload construction with the
	// on-disk content-addressed cache. Results are identical either way.
	WorkloadCache *WorkloadCache
}

// Evaluation holds every table and figure of the paper's evaluation
// section, as regenerated by RunEvaluation.
type Evaluation struct {
	// Provenance identifies the run: config hash, seed, binary build info.
	// Only deterministic identity lives here (wall-clock stays in logs) so
	// two runs of the same binary and config compare equal.
	Provenance         obs.Provenance
	TableII            []TableIIRow
	Fig3               *Figure3Result
	Fig12D, Fig12S     *LadderFigure
	Fig13              *Figure13Result
	Fig14D, Fig14S     *LadderFigure
	Fig15D, Fig15S     *LadderFigure
	Fig16              *Figure16Result
	Fig17D, Fig17S     *Figure17Result
	SummaryD, SummaryS *OptSummary
	// Ablations is the rendered sweep output (empty unless requested).
	Ablations string
	// Faults aggregates injected faults per platform (nil when injection
	// was off).
	Faults *FaultSummary
}

// RunEvaluation regenerates the full evaluation section. All figures run
// concurrently as coordinators; every underlying simulation job shares one
// pool of opts.Jobs workers, and each figure's merge order is fixed, so the
// result is independent of scheduling.
func RunEvaluation(ctx context.Context, rc RunConfig, opts EvalOptions) (*Evaluation, error) {
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	return NewEvaluator(rc, opts).evaluate(ctx)
}

// evaluate runs every figure, and the ablations when opts.Ablations is set,
// as concurrent coordinators over the evaluator's pool.
func (e *Evaluator) evaluate(ctx context.Context) (*Evaluation, error) {
	out := &Evaluation{
		Provenance: obs.NewProvenance(e.rc, e.rc.Seed),
		TableII:    TableII(),
	}
	jobs := []runner.Job[struct{}]{
		{Label: "figure 3", Fn: func(ctx context.Context) (z struct{}, err error) {
			out.Fig3, err = e.Figure3(ctx)
			return z, err
		}},
		{Label: "figure 12", Fn: func(ctx context.Context) (z struct{}, err error) {
			out.Fig12D, out.Fig12S, err = e.Figure12(ctx)
			return z, err
		}},
		{Label: "figure 13", Fn: func(ctx context.Context) (z struct{}, err error) {
			out.Fig13, err = e.Figure13(ctx)
			return z, err
		}},
		{Label: "figure 14", Fn: func(ctx context.Context) (z struct{}, err error) {
			out.Fig14D, out.Fig14S, err = e.Figure14(ctx)
			return z, err
		}},
		{Label: "figure 15", Fn: func(ctx context.Context) (z struct{}, err error) {
			out.Fig15D, out.Fig15S, err = e.Figure15(ctx)
			return z, err
		}},
		{Label: "figure 16", Fn: func(ctx context.Context) (z struct{}, err error) {
			out.Fig16, err = e.Figure16(ctx)
			return z, err
		}},
		{Label: "figure 17 beacon-d", Fn: func(ctx context.Context) (z struct{}, err error) {
			out.Fig17D, err = e.Figure17(ctx, BeaconD)
			return z, err
		}},
		{Label: "figure 17 beacon-s", Fn: func(ctx context.Context) (z struct{}, err error) {
			out.Fig17S, err = e.Figure17(ctx, BeaconS)
			return z, err
		}},
		{Label: "summary beacon-d", Fn: func(ctx context.Context) (z struct{}, err error) {
			out.SummaryD, err = e.OptimizationSummary(ctx, BeaconD)
			return z, err
		}},
		{Label: "summary beacon-s", Fn: func(ctx context.Context) (z struct{}, err error) {
			out.SummaryS, err = e.OptimizationSummary(ctx, BeaconS)
			return z, err
		}},
	}
	if e.opts.Ablations {
		jobs = append(jobs, runner.Job[struct{}]{
			Label: "ablations",
			Fn: func(ctx context.Context) (z struct{}, err error) {
				out.Ablations, err = e.AllAblations(ctx)
				return z, err
			},
		})
	}
	// Coordinators run unbounded; only their leaf simulations occupy pool
	// slots. Each coordinator writes a distinct field of out.
	if _, err := runner.Run(ctx, nil, jobs); err != nil {
		return nil, err
	}
	out.Faults = e.FaultSummary()
	return out, nil
}
