package core

import (
	"testing"

	"beacon/internal/cxl"
	"beacon/internal/fmindex"
	"beacon/internal/genome"
	"beacon/internal/kmer"
	"beacon/internal/trace"
)

// fmWorkload builds a small FM-index seeding workload.
func fmWorkload(t testing.TB) *trace.Workload {
	t.Helper()
	ref, err := genome.Synthesize(genome.DefaultSyntheticConfig(30000, 42))
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	idx, err := fmindex.Build(ref)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	reads, err := genome.SampleReads(ref, genome.DefaultReadConfig(60, 7))
	if err != nil {
		t.Fatalf("SampleReads: %v", err)
	}
	_, wl, err := fmindex.SeedReads(idx, reads, fmindex.DefaultSeedingConfig(), "fm-test")
	if err != nil {
		t.Fatalf("SeedReads: %v", err)
	}
	return wl
}

// allOpts is the full optimization stack and idealOpts adds idealized
// communication: the facade's AllOptimizations and IdealComm.
var (
	allOpts   = Options{DataPacking: true, MemAccessOpt: true, Placement: true, Coalescing: true}
	idealOpts = Options{DataPacking: true, MemAccessOpt: true, Placement: true, Coalescing: true, IdealComm: true}
)

func runCfg(t *testing.T, d Design, opts Options, wl *trace.Workload) *Result {
	t.Helper()
	res, err := Run(DefaultConfig(d, opts), wl)
	if err != nil {
		t.Fatalf("Run(%v, %+v): %v", d, opts, err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig(DesignD, Options{}).Validate(); err != nil {
		t.Fatalf("default D invalid: %v", err)
	}
	if err := DefaultConfig(DesignS, Options{}).Validate(); err != nil {
		t.Fatalf("default S invalid: %v", err)
	}
	mut := []func(*Config){
		func(c *Config) { c.Design = Design(9) },
		func(c *Config) { c.Fabric.Switches = 0 },
		func(c *Config) { c.Fabric.DIMMsPerSwitch = 0 },
		func(c *Config) { c.CXLGPerSwitch = 0 },  // D needs >= 1
		func(c *Config) { c.CXLGPerSwitch = 99 }, // > slots
		func(c *Config) { c.PEsPerNode = 0 },
		func(c *Config) { c.DIMM.Ranks = 0 },
		func(c *Config) { c.ReqBytes = 0 },
		func(c *Config) { c.CoalesceGroup = 0 },
	}
	for i, fn := range mut {
		c := DefaultConfig(DesignD, Options{})
		fn(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	// S with CXLG DIMMs is invalid.
	c := DefaultConfig(DesignS, Options{})
	c.CXLGPerSwitch = 1
	if c.Validate() == nil {
		t.Error("S with CXLG slots accepted")
	}
}

func TestMachineHomes(t *testing.T) {
	md, err := NewMachine(DefaultConfig(DesignD, Options{}))
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	// 2 switches x 2 CXLG-DIMMs per switch.
	want := []cxl.NodeID{cxl.DIMM(0, 0), cxl.DIMM(0, 1), cxl.DIMM(1, 0), cxl.DIMM(1, 1)}
	got := md.Homes()
	if len(got) != len(want) {
		t.Fatalf("D homes = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("D home %d = %v, want %v", i, got[i], want[i])
		}
	}
	ms, err := NewMachine(DefaultConfig(DesignS, Options{}))
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	if got := ms.Homes(); len(got) != 2 || got[0] != cxl.Switch(0) || got[1] != cxl.Switch(1) {
		t.Errorf("S homes = %v", got)
	}
}

func TestRunCompletesAllTasks(t *testing.T) {
	wl := fmWorkload(t)
	for _, d := range []Design{DesignD, DesignS} {
		res := runCfg(t, d, Options{}, wl)
		if res.Tasks != len(wl.Tasks) {
			t.Errorf("%v: completed %d/%d tasks", d, res.Tasks, len(wl.Tasks))
		}
		if res.Cycles <= 0 {
			t.Errorf("%v: zero makespan", d)
		}
		if res.Energy.TotalPJ() <= 0 {
			t.Errorf("%v: zero energy", d)
		}
		if res.Steps != wl.TotalSteps() {
			t.Errorf("%v: executed %d/%d steps", d, res.Steps, wl.TotalSteps())
		}
	}
}

// The paper's central ordering: each optimization step must not hurt, and
// the full stack must be close to idealized communication.
func TestOptimizationLadderD(t *testing.T) {
	wl := fmWorkload(t)
	vanilla := runCfg(t, DesignD, Options{}, wl)
	packing := runCfg(t, DesignD, Options{DataPacking: true}, wl)
	memacc := runCfg(t, DesignD, Options{DataPacking: true, MemAccessOpt: true}, wl)
	placed := runCfg(t, DesignD, Options{DataPacking: true, MemAccessOpt: true, Placement: true}, wl)
	full := runCfg(t, DesignD, allOpts, wl)
	ideal := runCfg(t, DesignD, idealOpts, wl)

	steps := []struct {
		name     string
		from, to *Result
	}{
		{"packing", vanilla, packing},
		{"memacc", packing, memacc},
		{"placement", memacc, placed},
		{"coalescing", placed, full},
		{"ideal", full, ideal},
	}
	for _, s := range steps {
		if s.to.Cycles > s.from.Cycles*21/20 { // allow 5% modeling noise
			t.Errorf("step %s regressed: %d -> %d cycles", s.name, s.from.Cycles, s.to.Cycles)
		}
	}
	if vanilla.Cycles < full.Cycles*3/2 {
		t.Errorf("full stack only improved vanilla %d -> %d; expected >= 1.5x", vanilla.Cycles, full.Cycles)
	}
	// Full-stack performance within a modest factor of ideal (paper: 96.5%).
	if float64(full.Cycles) > 1.5*float64(ideal.Cycles) {
		t.Errorf("full stack %d cycles vs ideal %d; too far from ideal", full.Cycles, ideal.Cycles)
	}
}

func TestMemAccessOptRemovesHostCrossings(t *testing.T) {
	wl := fmWorkload(t)
	naive := runCfg(t, DesignS, Options{}, wl)
	opt := runCfg(t, DesignS, Options{MemAccessOpt: true}, wl)
	if naive.Fabric.HostCrossings == 0 {
		t.Error("naive flow should cross the host")
	}
	if opt.Fabric.HostCrossings != 0 {
		t.Errorf("device-bias flow crossed the host %d times", opt.Fabric.HostCrossings)
	}
	if opt.Cycles >= naive.Cycles {
		t.Errorf("memory access optimization did not help: %d vs %d", opt.Cycles, naive.Cycles)
	}
}

func TestDataPackingReducesWireBytes(t *testing.T) {
	wl := fmWorkload(t)
	unpacked := runCfg(t, DesignS, Options{MemAccessOpt: true}, wl)
	packed := runCfg(t, DesignS, Options{MemAccessOpt: true, DataPacking: true}, wl)
	if packed.Fabric.WireBytes >= unpacked.Fabric.WireBytes {
		t.Errorf("packing did not reduce wire bytes: %d vs %d",
			packed.Fabric.WireBytes, unpacked.Fabric.WireBytes)
	}
}

func TestPlacementKeepsTrafficLocalD(t *testing.T) {
	wl := fmWorkload(t)
	global := runCfg(t, DesignD, Options{DataPacking: true, MemAccessOpt: true}, wl)
	local := runCfg(t, DesignD, Options{DataPacking: true, MemAccessOpt: true, Placement: true}, wl)
	gFrac := float64(global.LocalAccesses) / float64(global.LocalAccesses+global.RemoteAccesses)
	lFrac := float64(local.LocalAccesses) / float64(local.LocalAccesses+local.RemoteAccesses)
	if lFrac <= gFrac {
		t.Errorf("placement local fraction %.3f not above global %.3f", lFrac, gFrac)
	}
}

func TestCoalescingBalancesChips(t *testing.T) {
	wl := fmWorkload(t)
	perChip := runCfg(t, DesignD, Options{DataPacking: true, MemAccessOpt: true, Placement: true}, wl)
	coalesced := runCfg(t, DesignD, allOpts, wl)
	if perChip.CXLGChipAccesses == nil || coalesced.CXLGChipAccesses == nil {
		t.Fatal("missing chip distributions")
	}
	cv := func(xs []uint64) float64 {
		var sum float64
		for _, x := range xs {
			sum += float64(x)
		}
		mean := sum / float64(len(xs))
		if mean == 0 {
			return 0
		}
		var v float64
		for _, x := range xs {
			d := float64(x) - mean
			v += d * d
		}
		return v / float64(len(xs)) / (mean * mean) // squared CV
	}
	if cv(coalesced.CXLGChipAccesses) >= cv(perChip.CXLGChipAccesses) {
		t.Errorf("coalescing did not reduce chip imbalance: %g vs %g",
			cv(coalesced.CXLGChipAccesses), cv(perChip.CXLGChipAccesses))
	}
}

func TestIdealCommunicationNoWireBytes(t *testing.T) {
	wl := fmWorkload(t)
	ideal := runCfg(t, DesignD, idealOpts, wl)
	if ideal.Fabric.WireBytes != 0 {
		t.Errorf("ideal fabric recorded %d wire bytes", ideal.Fabric.WireBytes)
	}
	if ideal.Energy.CommunicationPJ != 0 {
		t.Errorf("ideal fabric consumed %g pJ of communication", ideal.Energy.CommunicationPJ)
	}
}

func TestDeterminism(t *testing.T) {
	wl := fmWorkload(t)
	a := runCfg(t, DesignD, allOpts, wl)
	b := runCfg(t, DesignD, allOpts, wl)
	if a.Cycles != b.Cycles || a.Fabric.WireBytes != b.Fabric.WireBytes {
		t.Errorf("non-deterministic: %d/%d vs %d/%d cycles/bytes",
			a.Cycles, a.Fabric.WireBytes, b.Cycles, b.Fabric.WireBytes)
	}
}

// Single-pass vs multi-pass k-mer counting on BEACON-S (the §IV-D trade).
func TestSinglePassBeatsMultiPassOnS(t *testing.T) {
	ref, err := genome.Synthesize(genome.DefaultSyntheticConfig(8000, 3))
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	rc := genome.DefaultReadConfig(400, 4)
	rc.Length = 60
	reads, err := genome.SampleReads(ref, rc)
	if err != nil {
		t.Fatalf("SampleReads: %v", err)
	}
	cfg := kmer.DefaultConfig()
	mp, err := kmer.CountMultiPass(reads, cfg, 2, "mp")
	if err != nil {
		t.Fatalf("CountMultiPass: %v", err)
	}
	sp, err := kmer.CountSinglePass(reads, cfg, "sp")
	if err != nil {
		t.Fatalf("CountSinglePass: %v", err)
	}
	multi := runCfg(t, DesignS, allOpts, mp.Workload)
	single := runCfg(t, DesignS, allOpts, sp.Workload)
	if single.Cycles >= multi.Cycles {
		t.Errorf("single-pass (%d cycles) not faster than multi-pass (%d) on BEACON-S",
			single.Cycles, multi.Cycles)
	}
}

func TestRunRejectsInvalidWorkload(t *testing.T) {
	bad := &trace.Workload{Name: "bad", Passes: 1}
	if _, err := Run(DefaultConfig(DesignD, Options{}), bad); err == nil {
		t.Error("empty workload accepted")
	}
}
