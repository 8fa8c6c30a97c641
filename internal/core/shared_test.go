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
	res, err := RunShared(DefaultConfig(DesignD, AllOptions()), []*trace.Workload{a, b})
	if err != nil {
		t.Fatalf("RunShared: %v", err)
	}
	if res.Combined.Tasks != 80 {
		t.Errorf("combined tasks = %d, want 80", res.Combined.Tasks)
	}
	if len(res.PerWorkload) != 2 {
		t.Fatalf("slices = %d", len(res.PerWorkload))
	}
	for i, sl := range res.PerWorkload {
		if sl.Cycles <= 0 {
			t.Errorf("tenant %d finished at %d", i, sl.Cycles)
		}
		if sl.Cycles > res.Combined.Cycles {
			t.Errorf("tenant %d finished after the combined makespan", i)
		}
	}
	if res.PerWorkload[0].Tasks != 50 || res.PerWorkload[1].Tasks != 30 {
		t.Errorf("task attribution = %+v", res.PerWorkload)
	}
	// The combined makespan equals the latest tenant's finish.
	latest := res.PerWorkload[0].Cycles
	if res.PerWorkload[1].Cycles > latest {
		latest = res.PerWorkload[1].Cycles
	}
	if latest != res.Combined.Cycles {
		t.Errorf("combined %d != latest tenant %d", res.Combined.Cycles, latest)
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
	shared, err := RunShared(DefaultConfig(DesignD, AllOptions()), wls)
	if err != nil {
		t.Fatalf("RunShared: %v", err)
	}
	fresh := mk()
	var serial int64
	for _, wl := range fresh {
		res, err := Run(DefaultConfig(DesignD, AllOptions()), wl)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		serial += int64(res.Cycles)
	}
	if int64(shared.Combined.Cycles) > serial {
		t.Errorf("co-located makespan %d exceeds serial %d", shared.Combined.Cycles, serial)
	}
}

func TestRunSharedValidation(t *testing.T) {
	if _, err := RunShared(DefaultConfig(DesignD, Vanilla()), nil); err == nil {
		t.Error("no workloads accepted")
	}
	bad := &trace.Workload{Name: "bad", Passes: 0}
	if _, err := RunShared(DefaultConfig(DesignD, Vanilla()), []*trace.Workload{bad}); err == nil {
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
	a, err := RunShared(DefaultConfig(DesignS, AllOptions()), mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunShared(DefaultConfig(DesignS, AllOptions()), mk())
	if err != nil {
		t.Fatal(err)
	}
	if a.Combined.Cycles != b.Combined.Cycles {
		t.Error("shared run non-deterministic")
	}
	for i := range a.PerWorkload {
		if a.PerWorkload[i].Cycles != b.PerWorkload[i].Cycles {
			t.Errorf("tenant %d completion differs", i)
		}
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
	want, err := RunShared(DefaultConfig(DesignS, AllOptions()), mk())
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]runner.Job[*SharedResult], 4)
	for i := range jobs {
		jobs[i] = runner.Job[*SharedResult]{
			Label: fmt.Sprintf("shared %d", i),
			Fn: func(context.Context) (*SharedResult, error) {
				return RunShared(DefaultConfig(DesignS, AllOptions()), mk())
			},
		}
	}
	got, err := runner.Run(context.Background(), runner.NewPool(len(jobs)), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range got {
		if !reflect.DeepEqual(res.PerWorkload, want.PerWorkload) {
			t.Errorf("concurrent run %d: tenants %+v, want %+v", i, res.PerWorkload, want.PerWorkload)
		}
	}
}
