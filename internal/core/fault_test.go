package core

import (
	"fmt"
	"testing"

	"beacon/internal/fault"
	"beacon/internal/trace"
)

// faultFingerprint condenses everything fault injection may perturb.
func faultFingerprint(r *Result) string {
	return fmt.Sprintf("cycles=%d tasks=%d steps=%d local=%d remote=%d wire=%d faults=%+v",
		r.Cycles, r.Tasks, r.Steps, r.LocalAccesses, r.RemoteAccesses,
		r.Fabric.WireBytes, r.Faults)
}

// The zero profile must be bit-for-bit the same machine as no profile at
// all: fault plumbing is free when disabled.
func TestFaultsDisabledIsIdentical(t *testing.T) {
	for _, d := range []Design{DesignD, DesignS} {
		wl := func() *trace.Workload { return smallWorkload(trace.EngineFMIndex, 60, 6, trace.SpaceOcc) }
		base, err := Run(DefaultConfig(d, allOpts), wl())
		if err != nil {
			t.Fatalf("%v base: %v", d, err)
		}
		cfg := DefaultConfig(d, allOpts)
		cfg.FaultSeed = 7 // seed alone must not matter with the zero profile
		zero, err := Run(cfg, wl())
		if err != nil {
			t.Fatalf("%v zero-profile: %v", d, err)
		}
		if a, b := faultFingerprint(base), faultFingerprint(zero); a != b {
			t.Errorf("%v: zero profile diverged:\n  base: %s\n  zero: %s", d, a, b)
		}
	}
}

// A heavy profile at a fixed seed must observe faults, complete every task,
// and reproduce exactly run-over-run.
func TestFaultsHeavyDeterministic(t *testing.T) {
	run := func(d Design) string {
		cfg := DefaultConfig(d, allOpts)
		cfg.Faults = fault.HeavyProfile()
		cfg.FaultSeed = 42
		res, err := Run(cfg, smallWorkload(trace.EngineFMIndex, 80, 6, trace.SpaceOcc))
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if res.Tasks != 80 {
			t.Fatalf("%v: completed %d of 80 tasks under faults", d, res.Tasks)
		}
		if res.Faults.Total() == 0 {
			t.Errorf("%v: heavy profile injected no faults", d)
		}
		return faultFingerprint(res)
	}
	for _, d := range []Design{DesignD, DesignS} {
		a, b := run(d), run(d)
		if a != b {
			t.Errorf("%v: runs diverged:\n  a: %s\n  b: %s", d, a, b)
		}
	}
}

// Faults must slow the machine down, never speed it up.
func TestFaultsOnlyAddLatency(t *testing.T) {
	wl := func() *trace.Workload { return smallWorkload(trace.EngineKMC, 60, 5, trace.SpaceBloom) }
	base, err := Run(DefaultConfig(DesignD, allOpts), wl())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(DesignD, allOpts)
	cfg.Faults = fault.HeavyProfile()
	cfg.FaultSeed = 3
	faulty, err := Run(cfg, wl())
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Cycles < base.Cycles {
		t.Errorf("faulty run finished earlier than clean run: %d < %d", faulty.Cycles, base.Cycles)
	}
}

// With UnitFailProb forced to 1 every node dies at first admission and the
// whole workload must drain through the host-CPU fallback path.
func TestFaultsAllUnitsDeadFallsBackToHost(t *testing.T) {
	cfg := DefaultConfig(DesignD, allOpts)
	cfg.Faults = fault.DefaultProfile()
	cfg.Faults.NDP.UnitFailProb = 1
	cfg.FaultSeed = 1
	res, err := Run(cfg, smallWorkload(trace.EngineFMIndex, 24, 4, trace.SpaceOcc))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Tasks != 24 {
		t.Fatalf("completed %d of 24 tasks", res.Tasks)
	}
	if res.Faults.NDPUnitFailures == 0 {
		t.Error("no unit failures recorded")
	}
	if res.Faults.HostFallbackTasks == 0 {
		t.Error("no tasks fell back to the host")
	}
	if res.Faults.HostFallbackTasks+res.Faults.MigratedTasks < 24 {
		t.Errorf("only %d tasks rerouted (migrated=%d host=%d), want >= 24",
			res.Faults.HostFallbackTasks+res.Faults.MigratedTasks,
			res.Faults.MigratedTasks, res.Faults.HostFallbackTasks)
	}
}

// A single dead node's backlog must migrate to survivors: kill node 0 only
// (probability 1 streams are per-component, so force via a profile where
// failure is certain and check migration happened for the node that rolled
// first, with survivors absorbing the work). With UnitFailProb = 1 all die;
// instead use a moderate probability and a seed known to kill at least one
// node, asserting conservation: every task completes exactly once.
func TestFaultsMigrationConservesTasks(t *testing.T) {
	cfg := DefaultConfig(DesignD, allOpts)
	cfg.Faults = fault.HeavyProfile()
	cfg.Faults.NDP.UnitFailProb = 0.25
	const tasks = 60
	for seed := uint64(1); seed <= 8; seed++ {
		cfg.FaultSeed = seed
		res, err := Run(cfg, smallWorkload(trace.EngineFMIndex, tasks, 4, trace.SpaceOcc))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Tasks != tasks {
			t.Errorf("seed %d: completed %d of %d tasks", seed, res.Tasks, tasks)
		}
	}
}
