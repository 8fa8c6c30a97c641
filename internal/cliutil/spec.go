package cliutil

import (
	"flag"
	"strings"

	beacon "beacon"
)

// SpecFlags is the workload/platform selection surface shared by
// beaconsim-style commands. It exists to compile flags down to
// beacon.RunSpec values — the single construction path the CLIs, the
// beaconsimd daemon, and tests all share — instead of plumbing options
// by hand.
type SpecFlags struct {
	// App names the application (beacon.ParseApplication forms).
	App string
	// Species names the dataset.
	Species string
	// Platform is a comma-separated platform list
	// (beacon.ParsePlatformKind forms).
	Platform string
	// Scale is the genome scale (bases per relative Gbp).
	Scale int
	// Reads is the read count.
	Reads int
	// Seed is the sampling seed.
	Seed uint64
	// Vanilla disables all optimizations (CXL-vanilla).
	Vanilla bool
	// Ideal idealizes communication.
	Ideal bool
	// SinglePass selects the single-pass k-mer counting flow.
	SinglePass bool
}

// RegisterSpec installs the workload/platform flags on the default flag
// set; call before flag.Parse.
func RegisterSpec() *SpecFlags {
	sf := &SpecFlags{}
	def := beacon.DefaultWorkloadConfig(beacon.PinusTaeda)
	flag.StringVar(&sf.App, "app", "fm-seeding", "application: fm-seeding | hash-seeding | kmer-counting | pre-alignment")
	flag.StringVar(&sf.Species, "species", string(def.Species), "dataset: Pt | Pg | Ss | Am | Nf | Hs")
	flag.StringVar(&sf.Platform, "platform", "beacon-d", "comma-separated platforms: cpu | ddr-ndp | beacon-d | beacon-s")
	flag.IntVar(&sf.Scale, "scale", def.GenomeScale, "genome scale (bases per relative Gbp)")
	flag.IntVar(&sf.Reads, "reads", def.Reads, "read count")
	flag.Uint64Var(&sf.Seed, "seed", def.Seed, "sampling seed")
	flag.BoolVar(&sf.Vanilla, "vanilla", false, "disable all optimizations (CXL-vanilla)")
	flag.BoolVar(&sf.Ideal, "ideal", false, "idealized communication")
	flag.BoolVar(&sf.SinglePass, "singlepass", false, "single-pass k-mer counting flow")
	return sf
}

// OptsName names the selected optimization-ladder position for job labels.
func (sf *SpecFlags) OptsName() string {
	switch {
	case sf.Vanilla && sf.Ideal:
		return "vanilla-ideal"
	case sf.Vanilla:
		return "vanilla"
	case sf.Ideal:
		return "ideal"
	}
	return "optimized"
}

// Specs compiles the flag surface into one validated beacon.RunSpec per
// -platform entry, in flag order. The observability flag set supplies the
// platform-side knobs (-faults, -fault-seed).
func (sf *SpecFlags) Specs(of *Flags) ([]beacon.RunSpec, error) {
	app, err := beacon.ParseApplication(sf.App)
	if err != nil {
		return nil, err
	}
	cfg := beacon.DefaultWorkloadConfig(beacon.Species(sf.Species))
	cfg.GenomeScale = sf.Scale
	cfg.Reads = sf.Reads
	cfg.Seed = sf.Seed
	if sf.SinglePass {
		cfg.Flow = beacon.SinglePass
	}
	opts := beacon.AllOptimizations()
	if sf.Vanilla {
		opts = beacon.Vanilla()
	}
	if sf.Ideal {
		opts.IdealComm = true
	}
	var specs []beacon.RunSpec
	for _, name := range strings.Split(sf.Platform, ",") {
		kind, err := beacon.ParsePlatformKind(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		spec := beacon.NewRunSpec(app, cfg)
		spec.Kind = kind
		spec.Opts = opts
		spec.Faults = of.Faults
		spec.FaultSeed = of.FaultSeed
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// PlatformSpec compiles the observability flag set's platform-side knobs
// (-faults, -fault-seed) plus the given kind and options into
// a resolved beacon.Platform, by round-tripping them through a RunSpec —
// the same path every other construction takes.
func (f *Flags) PlatformSpec(kind beacon.PlatformKind, opts beacon.Options) (beacon.Platform, error) {
	spec := beacon.NewRunSpec(beacon.FMSeeding, beacon.DefaultWorkloadConfig(beacon.PinusTaeda))
	spec.Kind = kind
	spec.Opts = opts
	spec.Faults = f.Faults
	spec.FaultSeed = f.FaultSeed
	return spec.Platform()
}
