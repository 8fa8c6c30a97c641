package core

import (
	"testing"

	"beacon/internal/trace"
)

// rmwWorkload builds a synthetic workload of pure atomic RMW traffic to a
// shared counter space — the k-mer data-race pattern of §IV-B.
func rmwWorkload(tasks, stepsPer int) *trace.Workload {
	wl := &trace.Workload{Name: "rmw", Passes: 1}
	wl.SpaceBytes[trace.SpaceCounters] = 1 << 20
	for t := 0; t < tasks; t++ {
		task := trace.Task{Engine: trace.EngineKMC}
		for s := 0; s < stepsPer; s++ {
			// Scatter across the space; some collisions by construction.
			addr := uint64((t*stepsPer+s)*37%(1<<20-8)) &^ 7
			task.Steps = append(task.Steps, trace.Step{
				Op: trace.OpAtomicRMW, Space: trace.SpaceCounters,
				Addr: addr, Size: 8,
			})
		}
		wl.Tasks = append(wl.Tasks, task)
	}
	return wl
}

func TestAtomicRMWPerformsReadAndWrite(t *testing.T) {
	wl := rmwWorkload(64, 4)
	for _, d := range []Design{DesignD, DesignS} {
		res, err := Run(DefaultConfig(d, allOpts), wl)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		// Every RMW is one DRAM read plus one DRAM write.
		steps := uint64(wl.TotalSteps())
		if res.DRAM.Reads != steps || res.DRAM.Writes != steps {
			t.Errorf("%v: reads=%d writes=%d, want %d each", d, res.DRAM.Reads, res.DRAM.Writes, steps)
		}
	}
}

func TestAtomicRMWSerializesOnHotCounter(t *testing.T) {
	// All tasks hammer ONE counter: the per-bank calendar must serialize
	// the read-modify-write pairs, so the makespan grows at least linearly
	// in the RMW count (no two RMWs to one address can fully overlap).
	hot := &trace.Workload{Name: "hot", Passes: 1}
	hot.SpaceBytes[trace.SpaceCounters] = 4096
	const n = 256
	for i := 0; i < n; i++ {
		hot.Tasks = append(hot.Tasks, trace.Task{
			Engine: trace.EngineKMC,
			Steps: []trace.Step{{
				Op: trace.OpAtomicRMW, Space: trace.SpaceCounters, Addr: 0, Size: 8,
			}},
		})
	}
	res, err := Run(DefaultConfig(DesignS, allOpts), hot)
	if err != nil {
		t.Fatal(err)
	}
	// Each read+write pair occupies the bank for >= 2*TBL cycles; with a
	// single hot bank the makespan must exceed n * 2 * TBL.
	min := int64(n * 2 * 4)
	if int64(res.Cycles) < min {
		t.Errorf("hot-counter makespan %d below serialization floor %d", res.Cycles, min)
	}
}

func TestRemoteAtomicUsesFabric(t *testing.T) {
	wl := rmwWorkload(64, 4)
	// BEACON-S always crosses links for DRAM, so the RMW flow must generate
	// fabric messages (command, read, data, write, ack legs).
	res, err := Run(DefaultConfig(DesignS, allOpts), wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fabric.Messages == 0 || res.Fabric.WireBytes == 0 {
		t.Errorf("remote RMW generated no fabric traffic: %+v", res.Fabric)
	}
}

func TestMergeBytesChargedOnce(t *testing.T) {
	wl := rmwWorkload(16, 2)
	wl.MergeBytes = 1 << 20
	with, err := Run(DefaultConfig(DesignD, allOpts), wl)
	if err != nil {
		t.Fatal(err)
	}
	wl2 := rmwWorkload(16, 2)
	without, err := Run(DefaultConfig(DesignD, allOpts), wl2)
	if err != nil {
		t.Fatal(err)
	}
	if with.Fabric.WireBytes <= without.Fabric.WireBytes {
		t.Errorf("merge traffic missing: %d vs %d wire bytes",
			with.Fabric.WireBytes, without.Fabric.WireBytes)
	}
}
