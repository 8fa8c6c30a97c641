// Package beacon is a reproduction of "BEACON: Scalable Near-Data-Processing
// Accelerators for Genome Analysis near Memory Pool with the CXL Support"
// (MICRO 2022): a library for exploring CXL memory-pool NDP design points on
// genomics workloads.
//
// The public API has three layers:
//
//   - Workloads: NewWorkload (and the per-application constructors) runs
//     the real genomics kernels on synthetic datasets and captures the
//     memory traces the accelerator would execute; NewWorkloadCached backs
//     construction with a content-addressed on-disk cache.
//   - Platforms: Run replays a workload on a platform — the CPU software
//     baseline, the MEDAL/NEST-style DDR-DIMM accelerators, or BEACON-D /
//     BEACON-S with any subset of the paper's optimizations — with options
//     for observability, fault injection and multi-tenant co-location.
//   - Experiments: the Figure…/Table… functions in experiments.go regenerate
//     every table and figure of the paper's evaluation section.
//
// All simulation is deterministic: identical inputs produce identical cycle
// counts.
package beacon

import (
	"fmt"

	"beacon/internal/fmindex"
	"beacon/internal/genome"
	"beacon/internal/hashindex"
	"beacon/internal/kmer"
	"beacon/internal/prealign"
	"beacon/internal/trace"
)

// Application identifies one of the paper's four genome-analysis stages.
type Application int

// The four applications (Fig. 2's pipeline stages accelerated by BEACON),
// plus the two §V extension applications.
const (
	FMSeeding Application = iota
	HashSeeding
	KmerCounting
	PreAlignment
	// GraphProcessing, DatabaseSearch and ImageProcessing are §V extension
	// workloads (see extensions.go); they are not part of the paper's
	// evaluation figures.
	GraphProcessing
	DatabaseSearch
	ImageProcessing
)

// String names the application.
func (a Application) String() string {
	switch a {
	case FMSeeding:
		return "fm-seeding"
	case HashSeeding:
		return "hash-seeding"
	case KmerCounting:
		return "kmer-counting"
	case PreAlignment:
		return "pre-alignment"
	case GraphProcessing:
		return "graph-processing"
	case DatabaseSearch:
		return "database-search"
	case ImageProcessing:
		return "image-processing"
	}
	return fmt.Sprintf("application(%d)", int(a))
}

// Species selects an evaluation dataset. The five seeding/pre-alignment
// genomes are the paper's (Pinus taeda, Picea glauca, Sequoia sempervirens,
// Ambystoma mexicanum, Neoceratodus forsteri); Human is the k-mer-counting
// dataset. Synthetic stand-ins preserve the assemblies' relative sizes.
type Species string

// The evaluation datasets.
const (
	PinusTaeda           Species = "Pt"
	PiceaGlauca          Species = "Pg"
	SequoiaSempervirens  Species = "Ss"
	AmbystomaMexicanum   Species = "Am"
	NeoceratodusForsteri Species = "Nf"
	Human                Species = "Hs"
)

// AllSeedingSpecies lists the five seeding-experiment genomes in the
// paper's order.
func AllSeedingSpecies() []Species {
	return []Species{PinusTaeda, PiceaGlauca, SequoiaSempervirens, AmbystomaMexicanum, NeoceratodusForsteri}
}

func (s Species) internal() (genome.Species, error) {
	switch s {
	case PinusTaeda:
		return genome.PinusTaeda, nil
	case PiceaGlauca:
		return genome.PiceaGlauca, nil
	case SequoiaSempervirens:
		return genome.SequoiaSempervirens, nil
	case AmbystomaMexicanum:
		return genome.AmbystomaMexicanum, nil
	case NeoceratodusForsteri:
		return genome.NeoceratodusForsteri, nil
	case Human:
		return genome.HumanLike, nil
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownSpecies, string(s))
}

// KmerFlow selects the counting algorithm variant (§IV-D).
type KmerFlow int

// Counting flows.
const (
	// MultiPass is NEST's two-pass flow with per-node local filters.
	MultiPass KmerFlow = iota
	// SinglePass is BEACON-S's one-pass flow over a shared filter.
	SinglePass
)

// WorkloadConfig parameterizes workload construction. The zero value is not
// usable; start from DefaultWorkloadConfig.
type WorkloadConfig struct {
	// Species selects the dataset.
	Species Species
	// GenomeScale is the synthetic-genome scale: bases per "relative Gbp"
	// of the real assembly (Pt at scale 50_000 is a 1.1 Mbp stand-in).
	GenomeScale int
	// Reads is the number of sequencing reads sampled.
	Reads int
	// ReadLength is the read length in bases.
	ReadLength int
	// ErrorRate is the per-base sequencing error probability.
	ErrorRate float64
	// Seed drives all sampling deterministically.
	Seed uint64
	// SeedLen is the seed length for the seeding workloads.
	SeedLen int
	// MaxHits bounds candidate locations per seed.
	MaxHits int
	// MEMSeeding switches FM-index seeding from fixed-stride seeds to
	// BWA-style greedy maximal exact matches (adaptive seed lengths).
	MEMSeeding bool
	// MEMMinLen is the minimum MEM length kept (default 19, as in BWA-MEM).
	MEMMinLen int
	// K is the k-mer length for counting.
	K int
	// Flow selects the counting variant.
	Flow KmerFlow
	// MaxEdits is the pre-alignment edit threshold.
	MaxEdits int
	// Candidates is the candidate count per read for pre-alignment.
	Candidates int
}

// DefaultWorkloadConfig returns a laptop-scale configuration for the given
// dataset: ~0.4-3 Mbp genomes and a few hundred reads — large enough for the
// timing simulations to be throughput-bound (the regime the paper's machines
// operate in), small enough to run in seconds.
func DefaultWorkloadConfig(sp Species) WorkloadConfig {
	return WorkloadConfig{
		Species:     sp,
		GenomeScale: 30_000,
		Reads:       500,
		ReadLength:  100,
		ErrorRate:   0.01,
		Seed:        0xBEAC07,
		SeedLen:     20,
		MaxHits:     8,
		MEMMinLen:   19,
		K:           28,
		Flow:        MultiPass,
		MaxEdits:    5,
		Candidates:  8,
	}
}

func (c WorkloadConfig) validate() error {
	if c.GenomeScale <= 0 {
		return fmt.Errorf("%w: genome scale must be positive", ErrBadConfig)
	}
	if c.Reads <= 0 {
		return fmt.Errorf("%w: read count must be positive", ErrBadConfig)
	}
	if c.ReadLength <= 0 {
		return fmt.Errorf("%w: read length must be positive", ErrBadConfig)
	}
	return nil
}

// Workload is a functional run's captured memory trace plus verification
// metadata, ready to replay on any platform.
type Workload struct {
	// Name labels the workload.
	Name string
	// App is the application kind.
	App Application
	// Tasks and Steps describe the trace size.
	Tasks, Steps int
	// FootprintBytes is the total simulated-memory footprint.
	FootprintBytes uint64
	// Verified reports that the functional output passed its check at
	// build time: seeding hits against the reference, counts against the
	// exact counter. Pre-alignment has no build-time check and is always
	// true; its no-false-reject property is checked by the prealign tests
	// against EditDistance instead.
	Verified bool

	tr *trace.Workload
}

func (c WorkloadConfig) genomeAndReads() (*genome.Sequence, []genome.Read, error) {
	sp, err := c.Species.internal()
	if err != nil {
		return nil, nil, err
	}
	ref, err := genome.SpeciesGenome(sp, c.GenomeScale)
	if err != nil {
		return nil, nil, err
	}
	rc := genome.ReadConfig{
		Count:           c.Reads,
		Length:          c.ReadLength,
		ErrorRate:       c.ErrorRate,
		ReverseFraction: 0.5,
		Seed:            c.Seed,
	}
	reads, err := genome.SampleReads(ref, rc)
	if err != nil {
		return nil, nil, err
	}
	return ref, reads, nil
}

func wrap(name string, app Application, tr *trace.Workload, verified bool) *Workload {
	return &Workload{
		Name:           name,
		App:            app,
		Tasks:          len(tr.Tasks),
		Steps:          tr.TotalSteps(),
		FootprintBytes: tr.FootprintBytes(),
		Verified:       verified,
		tr:             tr,
	}
}

// NewFMSeedingWorkload builds the FM-index seeding workload (BWA-MEM-style;
// the MEDAL / Fig. 12 application) and verifies every reported seed hit
// against the reference.
func NewFMSeedingWorkload(cfg WorkloadConfig) (*Workload, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ref, reads, err := cfg.genomeAndReads()
	if err != nil {
		return nil, err
	}
	idx, err := fmindex.Build(ref)
	if err != nil {
		return nil, err
	}
	if cfg.MEMSeeding {
		mcfg := fmindex.MEMConfig{MinLen: cfg.MEMMinLen, MaxHits: cfg.MaxHits}
		name := fmt.Sprintf("fm-mem-seeding/%s", cfg.Species)
		results, tr, err := fmindex.SeedReadsMEM(idx, reads, mcfg, name)
		if err != nil {
			return nil, err
		}
		if err := fmindex.VerifyMEMs(idx, ref, reads, mcfg, results); err != nil {
			return nil, fmt.Errorf("beacon: functional verification failed: %w", err)
		}
		return wrap(name, FMSeeding, tr, true), nil
	}
	scfg := fmindex.SeedingConfig{SeedLen: cfg.SeedLen, MaxHits: cfg.MaxHits}
	name := fmt.Sprintf("fm-seeding/%s", cfg.Species)
	results, tr, err := fmindex.SeedReads(idx, reads, scfg, name)
	if err != nil {
		return nil, err
	}
	if err := fmindex.VerifySeeding(ref, reads, scfg, results); err != nil {
		return nil, fmt.Errorf("beacon: functional verification failed: %w", err)
	}
	return wrap(name, FMSeeding, tr, true), nil
}

// NewHashSeedingWorkload builds the hash-index seeding workload
// (SMALT-style; Fig. 14) and verifies every hit.
func NewHashSeedingWorkload(cfg WorkloadConfig) (*Workload, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ref, reads, err := cfg.genomeAndReads()
	if err != nil {
		return nil, err
	}
	hcfg := hashindex.DefaultConfig()
	hcfg.MaxHits = cfg.MaxHits
	idx, err := hashindex.Build(ref, hcfg)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("hash-seeding/%s", cfg.Species)
	results, tr, err := hashindex.SeedReads(idx, reads, name)
	if err != nil {
		return nil, err
	}
	if err := hashindex.VerifySeeding(ref, reads, hcfg.K, results); err != nil {
		return nil, fmt.Errorf("beacon: functional verification failed: %w", err)
	}
	return wrap(name, HashSeeding, tr, true), nil
}

// NewKmerCountingWorkload builds the k-mer counting workload (BFCounter /
// NEST-style; Fig. 15) with the requested flow. Counts are verified to cover
// every truly repeated k-mer exactly.
func NewKmerCountingWorkload(cfg WorkloadConfig) (*Workload, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	_, reads, err := cfg.genomeAndReads()
	if err != nil {
		return nil, err
	}
	kcfg := kmer.DefaultConfig()
	kcfg.K = cfg.K
	var res *kmer.FlowResult
	var name string
	switch cfg.Flow {
	case MultiPass:
		name = fmt.Sprintf("kmer-multipass/%s", cfg.Species)
		res, err = kmer.CountMultiPass(reads, kcfg, 8, name)
	case SinglePass:
		name = fmt.Sprintf("kmer-singlepass/%s", cfg.Species)
		res, err = kmer.CountSinglePass(reads, kcfg, name)
	default:
		return nil, fmt.Errorf("%w: unknown k-mer flow %d", ErrBadConfig, cfg.Flow)
	}
	if err != nil {
		return nil, err
	}
	exact := kmer.CountExact(reads, kcfg.K)
	for m, want := range exact {
		got := res.Counts[m]
		// The single-pass flow can over-report a repeated k-mer by exactly
		// one when its first occurrence hits a Bloom false positive —
		// BFCounter's documented approximation. Undercounting is never
		// acceptable.
		if got == want || (cfg.Flow == SinglePass && got == want+1) {
			continue
		}
		return nil, fmt.Errorf("beacon: functional verification failed: count(%s)=%d want %d",
			m.String(kcfg.K), got, want)
	}
	return wrap(name, KmerCounting, res.Workload, true), nil
}

// NewPreAlignmentWorkload builds the pre-alignment filtering workload
// (Shouji-style; Fig. 16). The filter's leniency (no false rejections) is
// property-tested in the prealign package. The trace records the accesses
// of every candidate test; the accept/reject decisions themselves are
// discarded, since no timing model reads them.
func NewPreAlignmentWorkload(cfg WorkloadConfig) (*Workload, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ref, reads, err := cfg.genomeAndReads()
	if err != nil {
		return nil, err
	}
	pcfg := prealign.Config{MaxEdits: cfg.MaxEdits, Candidates: cfg.Candidates}
	name := fmt.Sprintf("pre-alignment/%s", cfg.Species)
	_, tr, err := prealign.FilterReads(ref, reads, pcfg, cfg.Seed, name)
	if err != nil {
		return nil, err
	}
	return wrap(name, PreAlignment, tr, true), nil
}

// NewWorkload dispatches on the application kind.
func NewWorkload(app Application, cfg WorkloadConfig) (*Workload, error) {
	switch app {
	case FMSeeding:
		return NewFMSeedingWorkload(cfg)
	case HashSeeding:
		return NewHashSeedingWorkload(cfg)
	case KmerCounting:
		return NewKmerCountingWorkload(cfg)
	case PreAlignment:
		return NewPreAlignmentWorkload(cfg)
	}
	return nil, fmt.Errorf("%w: %v", ErrUnsupportedApp, app)
}

// internalTrace exposes a workload's trace to same-package harness code
// (experiments, ablations) that drives the internal machines directly.
func internalTrace(w *Workload) *trace.Workload { return w.tr }
