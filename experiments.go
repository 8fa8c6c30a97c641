package beacon

import (
	"fmt"
	"strings"

	"beacon/internal/energy"
	"beacon/internal/report"
)

// RunConfig scales the evaluation harness. Larger values sharpen the
// throughput-bound behaviour at the cost of wall-clock time.
type RunConfig struct {
	// GenomeScale is bases per relative Gbp of the real assemblies.
	GenomeScale int
	// Reads is the read count per dataset.
	Reads int
	// Seed drives sampling.
	Seed uint64
}

// DefaultRunConfig is the scale used for EXPERIMENTS.md.
func DefaultRunConfig() RunConfig {
	return RunConfig{GenomeScale: 30_000, Reads: 500, Seed: 0xBEAC07}
}

// QuickRunConfig is a reduced scale for tests.
func QuickRunConfig() RunConfig {
	return RunConfig{GenomeScale: 8_000, Reads: 120, Seed: 0xBEAC07}
}

// workloadConfig is the configuration an evaluation job replays for an
// application on a species with a flow override. Hash seeding issues ~6x
// fewer memory steps per read than FM seeding, so its read count is scaled
// up to keep the timing runs in the same throughput-bound regime as the
// other applications.
func (rc RunConfig) workloadConfig(app Application, sp Species, flow KmerFlow) WorkloadConfig {
	cfg := DefaultWorkloadConfig(sp)
	cfg.GenomeScale = rc.GenomeScale
	cfg.Reads = rc.Reads
	cfg.Seed = rc.Seed
	cfg.Flow = flow
	if app == HashSeeding {
		cfg.Reads *= 2
	}
	return cfg
}

// ladderStep is one position on a figure's optimization ladder.
type ladderStep struct {
	Name string
	Opts Options
	// Flow overrides the k-mer flow for this step (k-mer ladders only).
	Flow KmerFlow
}

// seedingLadder returns the paper's step sequence for a design.
// BEACON-D's FM ladder ends with multi-chip coalescing; BEACON-S never
// coalesces (its DIMMs are unmodified).
func ladderFor(app Application, kind PlatformKind) []ladderStep {
	packing := Options{DataPacking: true}
	memacc := Options{DataPacking: true, MemAccessOpt: true}
	placed := Options{DataPacking: true, MemAccessOpt: true, Placement: true}
	steps := []ladderStep{
		{Name: "CXL-vanilla", Opts: Vanilla()},
		{Name: "+data packing", Opts: packing},
		{Name: "+mem access opt", Opts: memacc},
		{Name: "+placement/mapping", Opts: placed},
	}
	if kind == BeaconD && app == FMSeeding {
		steps = append(steps, ladderStep{Name: "+multi-chip coalescing", Opts: AllOptimizations()})
	}
	if kind == BeaconS && app == KmerCounting {
		steps = append(steps, ladderStep{Name: "+single-pass KMC", Opts: placed, Flow: SinglePass})
	}
	return steps
}

// finalOptions returns the fully optimized configuration for a design/app.
func finalOptions(app Application, kind PlatformKind) Options {
	steps := ladderFor(app, kind)
	return steps[len(steps)-1].Opts
}

// LadderEntry is one (step, dataset) cell of a figure.
type LadderEntry struct {
	Step    string
	Species Species
	// PerfVsCPU and EnergyVsCPU normalize to the CPU baseline, as every bar
	// chart in the paper does.
	PerfVsCPU   float64
	EnergyVsCPU float64
	// CommEnergyRatio is the communication share (Fig. 17).
	CommEnergyRatio float64
}

// LadderFigure reproduces one panel pair of Figs. 12/14/15.
type LadderFigure struct {
	App     Application
	Kind    PlatformKind
	Species []Species
	Steps   []string
	Entries []LadderEntry
	// GeoPerfVsCPU / GeoEnergyVsCPU index by step (geomean across species).
	GeoPerfVsCPU   []float64
	GeoEnergyVsCPU []float64
	// StepGains is the per-step multiplicative performance gain.
	StepGains []float64
	// VsBaselinePerf and VsBaselineEnergy compare the final step to the
	// DDR NDP baseline (MEDAL/NEST).
	VsBaselinePerf, VsBaselineEnergy float64
	// VanillaVsBaselinePerf compares CXL-vanilla to the DDR baseline.
	VanillaVsBaselinePerf float64
	// PctOfIdealPerf and PctOfIdealEnergy compare the final step to the
	// idealized-communication design.
	PctOfIdealPerf, PctOfIdealEnergy float64
}

// speciesFor returns the datasets an application is evaluated on.
func speciesFor(app Application) []Species {
	if app == KmerCounting {
		return []Species{Human}
	}
	return AllSeedingSpecies()
}

// String renders the figure as text tables.
func (f *LadderFigure) String() string {
	var b strings.Builder
	title := fmt.Sprintf("%s on %s — performance vs 48-thread CPU", f.App, f.Kind)
	headers := []string{"step"}
	for _, sp := range f.Species {
		headers = append(headers, string(sp))
	}
	headers = append(headers, "GM")
	perf := report.NewTable(title, headers...)
	en := report.NewTable(strings.Replace(title, "performance", "energy reduction", 1), headers...)
	for si, step := range f.Steps {
		prow := []string{step}
		erow := []string{step}
		for _, e := range f.Entries[si*len(f.Species) : (si+1)*len(f.Species)] {
			prow = append(prow, report.FormatRatio(e.PerfVsCPU))
			erow = append(erow, report.FormatRatio(e.EnergyVsCPU))
		}
		prow = append(prow, report.FormatRatio(f.GeoPerfVsCPU[si]))
		erow = append(erow, report.FormatRatio(f.GeoEnergyVsCPU[si]))
		perf.AddRow(prow...)
		en.AddRow(erow...)
	}
	b.WriteString(perf.String())
	b.WriteByte('\n')
	b.WriteString(en.String())
	fmt.Fprintf(&b, "\nfinal vs DDR NDP baseline: %s perf, %s energy (vanilla vs baseline: %s)\n",
		report.FormatRatio(f.VsBaselinePerf), report.FormatRatio(f.VsBaselineEnergy),
		report.FormatRatio(f.VanillaVsBaselinePerf))
	fmt.Fprintf(&b, "final vs idealized communication: %s perf, %s energy efficiency\n",
		report.FormatPercent(f.PctOfIdealPerf), report.FormatPercent(f.PctOfIdealEnergy))
	return b.String()
}

// Fig3Row is one workload of Fig. 3.
type Fig3Row struct {
	Workload string
	// PerfGain and EnergyGain are idealized-communication improvements for
	// the DDR NDP baseline.
	PerfGain, EnergyGain float64
}

// Figure3Result reproduces Fig. 3.
type Figure3Result struct {
	Rows []Fig3Row
	// AvgPerf / AvgEnergy are geometric means (paper: 4.36x / 2.32x).
	AvgPerf, AvgEnergy float64
}

// String renders Fig. 3.
func (f *Figure3Result) String() string {
	t := report.NewTable("Fig. 3 — DDR NDP baselines with idealized communication",
		"workload", "perf gain", "energy gain")
	for _, r := range f.Rows {
		t.AddRow(r.Workload, report.FormatRatio(r.PerfGain), report.FormatRatio(r.EnergyGain))
	}
	t.AddRow("average", report.FormatRatio(f.AvgPerf), report.FormatRatio(f.AvgEnergy))
	return t.String()
}

// Figure13Result reproduces the chip-balance study.
type Figure13Result struct {
	// WithoutCoalescing and WithCoalescing are per-chip access counts
	// normalized to their mean.
	WithoutCoalescing, WithCoalescing []float64
	// CVWithout and CVWith are the coefficients of variation.
	CVWithout, CVWith float64
}

// String renders Fig. 13.
func (f *Figure13Result) String() string {
	t := report.NewTable("Fig. 13 — normalized memory access per DRAM chip (FM seeding)",
		"chip", "w/o coalescing", "w/ coalescing")
	for i := range f.WithoutCoalescing {
		t.AddRow(fmt.Sprintf("%d", i),
			fmt.Sprintf("%.3f", f.WithoutCoalescing[i]),
			fmt.Sprintf("%.3f", f.WithCoalescing[i]))
	}
	t.AddRow("CV", fmt.Sprintf("%.3f", f.CVWithout), fmt.Sprintf("%.3f", f.CVWith))
	return t.String()
}

// Figure16Result reproduces the pre-alignment evaluation.
type Figure16Result struct {
	Species []Species
	// PerfD/PerfS and EnergyD/EnergyS are per-species CPU-normalized values.
	PerfD, PerfS, EnergyD, EnergyS []float64
	// Geomeans.
	GeoPerfD, GeoPerfS, GeoEnergyD, GeoEnergyS float64
}

// String renders Fig. 16.
func (f *Figure16Result) String() string {
	t := report.NewTable("Fig. 16 — DNA pre-alignment vs 48-thread CPU",
		"dataset", "BEACON-D perf", "BEACON-S perf", "BEACON-D energy", "BEACON-S energy")
	for i, sp := range f.Species {
		t.AddRow(string(sp),
			report.FormatRatio(f.PerfD[i]), report.FormatRatio(f.PerfS[i]),
			report.FormatRatio(f.EnergyD[i]), report.FormatRatio(f.EnergyS[i]))
	}
	t.AddRow("GM",
		report.FormatRatio(f.GeoPerfD), report.FormatRatio(f.GeoPerfS),
		report.FormatRatio(f.GeoEnergyD), report.FormatRatio(f.GeoEnergyS))
	return t.String()
}

// Figure17Result reproduces the energy-breakdown study.
type Figure17Result struct {
	Kind PlatformKind
	// Steps and CommRatio/DRAMRatio/ComputeRatio index the ladder,
	// averaged across the four applications.
	Steps        []string
	CommRatio    []float64
	DRAMRatio    []float64
	ComputeRatio []float64
}

// String renders Fig. 17.
func (f *Figure17Result) String() string {
	t := report.NewTable(fmt.Sprintf("Fig. 17 — energy breakdown on %s (avg over 4 apps)", f.Kind),
		"step", "communication", "DRAM", "computation")
	for i, s := range f.Steps {
		t.AddRow(s, report.FormatPercent(f.CommRatio[i]),
			report.FormatPercent(f.DRAMRatio[i]), report.FormatPercent(f.ComputeRatio[i]))
	}
	return t.String()
}

// TableIIRow re-exports the paper's PE synthesis results.
type TableIIRow = energy.PEOverhead

// TableII returns the paper's Table II (PE area/power constants used by the
// energy model).
func TableII() []TableIIRow { return energy.TableII() }

// OptSummary reproduces §VI-G: total optimization gains per design.
type OptSummary struct {
	Kind PlatformKind
	// PerfGain and EnergyGain are final-vs-vanilla geomeans across apps.
	PerfGain, EnergyGain float64
	// CommBefore and CommAfter are communication energy shares at vanilla
	// and at the final step.
	CommBefore, CommAfter float64
}

// String renders the summary.
func (s *OptSummary) String() string {
	return fmt.Sprintf("%s optimizations: %s perf, %s energy; communication energy %s -> %s",
		s.Kind, report.FormatRatio(s.PerfGain), report.FormatRatio(s.EnergyGain),
		report.FormatPercent(s.CommBefore), report.FormatPercent(s.CommAfter))
}
