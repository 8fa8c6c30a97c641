package beacon

import (
	"reflect"
	"testing"
)

// coRunPair builds the FM + hash seeding pair the co-location tests share.
func coRunPair(t *testing.T) (*Workload, *Workload) {
	t.Helper()
	fm, err := NewWorkload(FMSeeding, quickCfg(PinusTaeda))
	if err != nil {
		t.Fatal(err)
	}
	hash, err := NewWorkload(HashSeeding, quickCfg(PinusTaeda))
	if err != nil {
		t.Fatal(err)
	}
	return fm, hash
}

// TestCoRunHonorsFaults pins that a co-located run injects faults like a
// single-tenant one: the fault-injected run differs from the clean one,
// repeats exactly, and equals RunSpec.Execute of the same spec.
func TestCoRunHonorsFaults(t *testing.T) {
	t.Parallel()
	fm, hash := coRunPair(t)
	p := Platform{Kind: BeaconD, Opts: AllOptimizations()}
	clean, err := Run(p, fm, WithCoRun(hash))
	if err != nil {
		t.Fatal(err)
	}
	pf := p
	pf.Faults, pf.FaultSeed = HeavyFaultProfile(), 7
	faulty, err := Run(pf, fm, WithCoRun(hash))
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Report.Faults.Total() == 0 {
		t.Error("heavy profile injected no faults into the co-run")
	}
	if reflect.DeepEqual(faulty, clean) {
		t.Error("fault-injected co-run equals the clean one")
	}
	again, err := Run(pf, fm, WithCoRun(hash))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, faulty) {
		t.Errorf("fault-injected co-run not deterministic:\n%+v\nvs\n%+v", again.Report, faulty.Report)
	}

	spec := NewRunSpec(FMSeeding, quickCfg(PinusTaeda))
	spec.Faults = "heavy"
	spec.FaultSeed = 7
	spec.CoRun = []WorkloadSpec{{App: HashSeeding, Config: quickCfg(PinusTaeda)}}
	viaSpec, err := spec.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaSpec, faulty) {
		t.Errorf("RunSpec.Execute diverged from Run:\n%+v\nvs\n%+v", viaSpec.Report, faulty.Report)
	}
}

// TestCoRunReportsLocality pins that a co-located report carries the
// locality fields a single-tenant BEACON-D report does.
func TestCoRunReportsLocality(t *testing.T) {
	t.Parallel()
	fm, hash := coRunPair(t)
	res, err := Run(Platform{Kind: BeaconD, Opts: AllOptimizations()}, fm, WithCoRun(hash))
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.LocalFraction <= 0 || rep.LocalFraction > 1 {
		t.Errorf("LocalFraction = %v, want in (0, 1]", rep.LocalFraction)
	}
	var bursts uint64
	for _, c := range rep.ChipAccesses {
		bursts += c
	}
	if len(rep.ChipAccesses) == 0 || bursts == 0 {
		t.Errorf("ChipAccesses = %v, want a populated per-chip distribution", rep.ChipAccesses)
	}
}
