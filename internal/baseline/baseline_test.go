package baseline

import (
	"testing"

	"beacon/internal/fmindex"
	"beacon/internal/genome"
	"beacon/internal/kmer"
	"beacon/internal/trace"
)

func fmWorkload(t *testing.T, nReads int) *trace.Workload {
	t.Helper()
	ref, err := genome.Synthesize(genome.DefaultSyntheticConfig(100000, 42))
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	idx, err := fmindex.Build(ref)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	reads, err := genome.SampleReads(ref, genome.DefaultReadConfig(nReads, 7))
	if err != nil {
		t.Fatalf("SampleReads: %v", err)
	}
	_, wl, err := fmindex.SeedReads(idx, reads, fmindex.DefaultSeedingConfig(), "fm")
	if err != nil {
		t.Fatalf("SeedReads: %v", err)
	}
	return wl
}

func TestDDRConfigValidation(t *testing.T) {
	if err := DefaultDDRConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	mut := []func(*DDRConfig){
		func(c *DDRConfig) { c.Channels = 0 },
		func(c *DDRConfig) { c.DIMMsPerChannel = 0 },
		func(c *DDRConfig) { c.PEsPerDIMM = 0 },
		func(c *DDRConfig) { c.DIMM.Ranks = 0 },
		func(c *DDRConfig) { c.ChannelBytesPerCycle = 0 },
		func(c *DDRConfig) { c.ReqBytes = 0 },
	}
	for i, fn := range mut {
		c := DefaultDDRConfig()
		fn(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	// Ideal comm tolerates zero bus parameters.
	c := DefaultDDRConfig()
	c.IdealComm = true
	c.ChannelBytesPerCycle = 0
	if err := c.Validate(); err != nil {
		t.Errorf("ideal config rejected: %v", err)
	}
}

func TestMEDALCompletesWork(t *testing.T) {
	wl := fmWorkload(t, 100)
	res, err := RunDDR(DefaultDDRConfig(), wl)
	if err != nil {
		t.Fatalf("RunDDR: %v", err)
	}
	if res.Tasks != len(wl.Tasks) || res.Steps != wl.TotalSteps() {
		t.Errorf("completed %d/%d tasks, %d/%d steps",
			res.Tasks, len(wl.Tasks), res.Steps, wl.TotalSteps())
	}
	if res.Cycles <= 0 || res.Energy.TotalPJ() <= 0 {
		t.Error("non-positive cycles or energy")
	}
	if res.ChannelBytes == 0 {
		t.Error("no channel traffic despite striped index")
	}
	// The index shards channel-locally (MEDAL's design), so no cross-channel
	// detours are expected for seeding.
	if res.HostCrossings != 0 {
		t.Errorf("unexpected cross-channel traffic: %d crossings", res.HostCrossings)
	}
}

// Fig. 3's premise: the DDR baselines are communication-bound, so idealized
// communication yields a large speedup (paper: ~4.4x average).
func TestMEDALIdealizedCommSpeedup(t *testing.T) {
	wl := fmWorkload(t, 150)
	real, err := RunDDR(DefaultDDRConfig(), wl)
	if err != nil {
		t.Fatalf("RunDDR: %v", err)
	}
	cfg := DefaultDDRConfig()
	cfg.IdealComm = true
	ideal, err := RunDDR(cfg, wl)
	if err != nil {
		t.Fatalf("RunDDR ideal: %v", err)
	}
	speedup := float64(real.Cycles) / float64(ideal.Cycles)
	// At this reduced scale the gain is smaller than the harness-scale
	// ~4x (Fig. 3); assert the comm-bound direction with margin.
	if speedup < 1.7 {
		t.Errorf("idealized-communication speedup = %.2fx, want >= 1.7x (comm-bound baseline)", speedup)
	}
	if ideal.ChannelBytes != 0 {
		t.Error("ideal run recorded channel bytes")
	}
}

// NEST's multi-pass flow keeps Bloom traffic inside DIMMs: channel traffic
// should be dominated by input streaming, far below the single-pass variant
// run on the same platform.
func TestNESTMultiPassLocalizesFilterTraffic(t *testing.T) {
	ref, _ := genome.Synthesize(genome.DefaultSyntheticConfig(8000, 3))
	rc := genome.DefaultReadConfig(120, 4)
	rc.Length = 60
	reads, err := genome.SampleReads(ref, rc)
	if err != nil {
		t.Fatalf("SampleReads: %v", err)
	}
	cfg := kmer.DefaultConfig()
	mp, err := kmer.CountMultiPass(reads, cfg, 8, "mp")
	if err != nil {
		t.Fatalf("CountMultiPass: %v", err)
	}
	sp, err := kmer.CountSinglePass(reads, cfg, "sp")
	if err != nil {
		t.Fatalf("CountSinglePass: %v", err)
	}
	mpRes, err := RunDDR(DefaultDDRConfig(), mp.Workload)
	if err != nil {
		t.Fatalf("RunDDR mp: %v", err)
	}
	spRes, err := RunDDR(DefaultDDRConfig(), sp.Workload)
	if err != nil {
		t.Fatalf("RunDDR sp: %v", err)
	}
	if mpRes.ChannelBytes >= spRes.ChannelBytes {
		t.Errorf("multi-pass channel bytes %d not below single-pass %d",
			mpRes.ChannelBytes, spRes.ChannelBytes)
	}
	// On the DDR platform the localization is the whole point: multi-pass
	// must be faster (this is why NEST pays the second pass).
	if mpRes.Cycles >= spRes.Cycles {
		t.Errorf("NEST multi-pass (%d cycles) not faster than single-pass (%d) on DDR",
			mpRes.Cycles, spRes.Cycles)
	}
}

func TestDDRDeterminism(t *testing.T) {
	wl := fmWorkload(t, 60)
	a, err := RunDDR(DefaultDDRConfig(), wl)
	if err != nil {
		t.Fatalf("RunDDR: %v", err)
	}
	b, err := RunDDR(DefaultDDRConfig(), wl)
	if err != nil {
		t.Fatalf("RunDDR: %v", err)
	}
	if a.Cycles != b.Cycles || a.ChannelBytes != b.ChannelBytes {
		t.Error("DDR machine non-deterministic")
	}
}

func TestCPUModel(t *testing.T) {
	if err := DefaultCPUConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := DefaultCPUConfig()
	bad.Threads = 0
	if bad.Validate() == nil {
		t.Error("zero threads accepted")
	}
	bad = DefaultCPUConfig()
	bad.StepCostNS[0] = 0
	if bad.Validate() == nil {
		t.Error("zero step cost accepted")
	}

	wl := fmWorkload(t, 40)
	res, err := RunCPU(DefaultCPUConfig(), wl)
	if err != nil {
		t.Fatalf("RunCPU: %v", err)
	}
	if res.Seconds <= 0 || res.Cycles <= 0 || res.EnergyPJ <= 0 {
		t.Error("non-positive CPU result")
	}
	// Doubling threads halves time.
	cfg := DefaultCPUConfig()
	cfg.Threads *= 2
	res2, err := RunCPU(cfg, wl)
	if err != nil {
		t.Fatalf("RunCPU: %v", err)
	}
	ratio := res.Seconds / res2.Seconds
	if ratio < 1.99 || ratio > 2.01 {
		t.Errorf("thread scaling ratio = %.3f, want 2", ratio)
	}
}

// TestNewDDRMachineAllocBudget caps the heap allocations one NewDDRMachine
// may make: bank and chip state are flat value slices and the event wheel
// is one slab, so construction stays in the low hundreds of allocations.
func TestNewDDRMachineAllocBudget(t *testing.T) {
	const budget = 400
	cfg := DefaultDDRConfig()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := NewDDRMachine(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Errorf("NewDDRMachine makes %.0f allocations, budget %d", allocs, budget)
	}
}
