package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"beacon/internal/runner"
	"beacon/internal/trace"
)

func smallWorkload(engine trace.Engine, tasks, steps int, space trace.Space) *trace.Workload {
	wl := &trace.Workload{Name: space.String(), Passes: 1}
	wl.SpaceBytes[space] = 1 << 20
	for t := 0; t < tasks; t++ {
		task := trace.Task{Engine: engine}
		for s := 0; s < steps; s++ {
			task.Steps = append(task.Steps, trace.Step{
				Op: trace.OpRead, Space: space,
				Addr: uint64((t*steps+s)*97) % (1<<20 - 64), Size: 32,
			})
		}
		wl.Tasks = append(wl.Tasks, task)
	}
	return wl
}

func TestRunSharedCompletesAllTenants(t *testing.T) {
	a := smallWorkload(trace.EngineFMIndex, 50, 6, trace.SpaceOcc)
	b := smallWorkload(trace.EngineKMC, 30, 4, trace.SpaceBloom)
	res, err := Run(DefaultConfig(DesignD, allOpts), a, b)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Tasks != 80 {
		t.Errorf("combined tasks = %d, want 80", res.Tasks)
	}
	if len(res.Tenants) != 2 {
		t.Fatalf("tenants = %d", len(res.Tenants))
	}
	for i, tn := range res.Tenants {
		if tn.Cycles <= 0 {
			t.Errorf("tenant %d finished at %d", i, tn.Cycles)
		}
		if tn.Cycles > res.Cycles {
			t.Errorf("tenant %d finished after the combined makespan", i)
		}
	}
	if res.Tenants[0].Tasks != 50 || res.Tenants[1].Tasks != 30 {
		t.Errorf("task attribution = %+v", res.Tenants)
	}
	// The combined makespan equals the latest tenant's finish.
	if latest := max(res.Tenants[0].Cycles, res.Tenants[1].Cycles); latest != res.Cycles {
		t.Errorf("combined %d != latest tenant %d", res.Cycles, latest)
	}
}

// A single workload replays alone: no tenants are reported, and the
// result is the one a plain replay of that workload gives.
func TestSingleWorkloadHasNoTenants(t *testing.T) {
	res, err := Run(DefaultConfig(DesignD, allOpts), smallWorkload(trace.EngineFMIndex, 50, 6, trace.SpaceOcc))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tenants != nil {
		t.Errorf("single workload reported tenants %+v", res.Tenants)
	}
}

// Pooling claim: co-locating two workloads on one pool finishes both no
// later than running them back to back (throughput consolidation).
func TestRunSharedBeatsSerialExecution(t *testing.T) {
	mk := func() []*trace.Workload {
		return []*trace.Workload{
			smallWorkload(trace.EngineFMIndex, 120, 8, trace.SpaceOcc),
			smallWorkload(trace.EngineKMC, 120, 8, trace.SpaceBloom),
		}
	}
	wls := mk()
	shared, err := Run(DefaultConfig(DesignD, allOpts), wls...)
	if err != nil {
		t.Fatalf("co-located Run: %v", err)
	}
	fresh := mk()
	var serial int64
	for _, wl := range fresh {
		res, err := Run(DefaultConfig(DesignD, allOpts), wl)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		serial += int64(res.Cycles)
	}
	if int64(shared.Cycles) > serial {
		t.Errorf("co-located makespan %d exceeds serial %d", shared.Cycles, serial)
	}
}

func TestRunSharedValidation(t *testing.T) {
	if _, err := Run(DefaultConfig(DesignD, Options{})); err == nil {
		t.Error("no workloads accepted")
	}
	bad := &trace.Workload{Name: "bad", Passes: 0}
	if _, err := Run(DefaultConfig(DesignD, Options{}), bad); err == nil {
		t.Error("invalid workload accepted")
	}
	good := smallWorkload(trace.EngineFMIndex, 5, 2, trace.SpaceOcc)
	if _, err := Run(DefaultConfig(DesignD, Options{}), good, bad); err == nil {
		t.Error("invalid tenant accepted")
	}
}

func TestRunSharedDeterministic(t *testing.T) {
	mk := func() []*trace.Workload {
		return []*trace.Workload{
			smallWorkload(trace.EngineHashIndex, 40, 5, trace.SpaceHashBucket),
			smallWorkload(trace.EnginePreAlign, 20, 3, trace.SpaceReference),
		}
	}
	a, err := Run(DefaultConfig(DesignS, allOpts), mk()...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(DefaultConfig(DesignS, allOpts), mk()...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("co-located run non-deterministic")
	}
}

// TestRunSharedConcurrentRunsIsolated runs several co-located machines at
// once: each must attribute only its own tasks to its tenants, so the
// per-tenant completions match a run made alone.
func TestRunSharedConcurrentRunsIsolated(t *testing.T) {
	mk := func() []*trace.Workload {
		return []*trace.Workload{
			smallWorkload(trace.EngineHashIndex, 40, 5, trace.SpaceHashBucket),
			smallWorkload(trace.EnginePreAlign, 20, 3, trace.SpaceReference),
		}
	}
	want, err := Run(DefaultConfig(DesignS, allOpts), mk()...)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]runner.Job[*Result], 4)
	for i := range jobs {
		jobs[i] = runner.Job[*Result]{
			Label: fmt.Sprintf("shared %d", i),
			Fn: func(context.Context) (*Result, error) {
				return Run(DefaultConfig(DesignS, allOpts), mk()...)
			},
		}
	}
	got, err := runner.Run(context.Background(), runner.NewPool(len(jobs)), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range got {
		if !reflect.DeepEqual(res.Tenants, want.Tenants) {
			t.Errorf("concurrent run %d: tenants %+v, want %+v", i, res.Tenants, want.Tenants)
		}
	}
}
