package cliutil

import (
	"errors"
	"reflect"
	"testing"

	beacon "beacon"
)

// defaultSpecFlags mirrors RegisterSpec's defaults without touching the
// process-global flag set (tests may run in parallel with other packages).
func defaultSpecFlags() *SpecFlags {
	return &SpecFlags{
		App:      "fm-seeding",
		Species:  "Pt",
		Platform: "beacon-d",
		Scale:    30000,
		Reads:    500,
		Seed:     0xBEAC07,
	}
}

func defaultFlags() *Flags {
	return &Flags{Faults: "off", FaultSeed: 1}
}

// TestSpecsCompilation pins that the flag surface compiles to the same
// RunSpec the library's single construction path produces.
func TestSpecsCompilation(t *testing.T) {
	t.Parallel()
	specs, err := defaultSpecFlags().Specs(defaultFlags())
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 {
		t.Fatalf("got %d specs, want 1", len(specs))
	}
	want := beacon.NewRunSpec(beacon.FMSeeding, beacon.DefaultWorkloadConfig(beacon.PinusTaeda))
	want.FaultSeed = 1
	if !reflect.DeepEqual(specs[0], want) {
		t.Errorf("default flags diverge from NewRunSpec defaults:\ngot  %+v\nwant %+v", specs[0], want)
	}
}

// TestSpecsPlatformList pins the comma-separated platform fan-out and the
// knob plumbing (vanilla/ideal/singlepass/faults).
func TestSpecsPlatformList(t *testing.T) {
	t.Parallel()
	sf := defaultSpecFlags()
	sf.App = "kmer-counting"
	sf.Platform = "cpu, ddr-ndp ,beacon-s"
	sf.Scale = 9000
	sf.Reads = 50
	sf.Vanilla = true
	sf.Ideal = true
	sf.SinglePass = true
	of := defaultFlags()
	of.Faults = "heavy"
	of.FaultSeed = 9

	specs, err := sf.Specs(of)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []beacon.PlatformKind{beacon.CPU, beacon.DDRBaseline, beacon.BeaconS}
	if len(specs) != len(kinds) {
		t.Fatalf("got %d specs, want %d", len(specs), len(kinds))
	}
	for i, spec := range specs {
		if spec.Kind != kinds[i] {
			t.Errorf("spec %d kind = %v, want %v", i, spec.Kind, kinds[i])
		}
		cfg := spec.Workload.Config
		if spec.Workload.App != beacon.KmerCounting || cfg.GenomeScale != 9000 ||
			cfg.Reads != 50 || cfg.Flow != beacon.SinglePass {
			t.Errorf("spec %d workload wrong: %+v", i, spec.Workload)
		}
		if spec.Opts != (beacon.Options{IdealComm: true}) {
			t.Errorf("spec %d opts = %+v, want vanilla+ideal", i, spec.Opts)
		}
		if spec.Faults != "heavy" || spec.FaultSeed != 9 {
			t.Errorf("spec %d platform knobs wrong: %+v", i, spec)
		}
	}
}

// TestSpecsErrors pins that compilation failures surface the library
// sentinels (so CLIs and the daemon report them identically).
func TestSpecsErrors(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name   string
		mutate func(*SpecFlags)
		want   error
	}{
		{"unknown app", func(sf *SpecFlags) { sf.App = "alignment" }, beacon.ErrUnsupportedApp},
		{"unknown platform", func(sf *SpecFlags) { sf.Platform = "tpu" }, beacon.ErrBadConfig},
		{"unknown species", func(sf *SpecFlags) { sf.Species = "Zz" }, beacon.ErrUnknownSpecies},
		{"zero reads", func(sf *SpecFlags) { sf.Reads = 0 }, beacon.ErrBadConfig},
	}
	for _, tc := range cases {
		sf := defaultSpecFlags()
		tc.mutate(sf)
		if _, err := sf.Specs(defaultFlags()); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestOptsName pins the job-label ladder names.
func TestOptsName(t *testing.T) {
	t.Parallel()
	cases := []struct {
		vanilla, ideal bool
		want           string
	}{
		{false, false, "optimized"},
		{true, false, "vanilla"},
		{false, true, "ideal"},
		{true, true, "vanilla-ideal"},
	}
	for _, tc := range cases {
		sf := &SpecFlags{Vanilla: tc.vanilla, Ideal: tc.ideal}
		if got := sf.OptsName(); got != tc.want {
			t.Errorf("OptsName(vanilla=%v ideal=%v) = %q, want %q", tc.vanilla, tc.ideal, got, tc.want)
		}
	}
}

// TestPlatformSpec pins that the observability flags resolve to a Platform
// through the RunSpec path, faults included.
func TestPlatformSpec(t *testing.T) {
	t.Parallel()
	of := defaultFlags()
	of.Faults = "default"
	of.FaultSeed = 5
	p, err := of.PlatformSpec(beacon.BeaconD, beacon.AllOptimizations())
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != beacon.BeaconD || p.Opts != beacon.AllOptimizations() {
		t.Errorf("platform = %+v, want beacon-d with all optimizations", p)
	}
	if reflect.DeepEqual(p.Faults, beacon.FaultProfile{}) {
		t.Error("fault profile not resolved")
	}
	if p.FaultSeed != 5 {
		t.Errorf("fault seed = %d, want 5", p.FaultSeed)
	}

	of.Faults = "nonsense"
	if _, err := of.PlatformSpec(beacon.BeaconD, beacon.AllOptimizations()); !errors.Is(err, beacon.ErrBadConfig) {
		t.Errorf("unknown faults: err = %v, want ErrBadConfig", err)
	}
}
