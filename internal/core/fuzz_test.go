package core

import (
	"testing"
	"testing/quick"

	"beacon/internal/sim"
	"beacon/internal/trace"
)

// randomWorkload generates an arbitrary valid workload from fuzz bytes:
// every byte stream maps deterministically to a structurally valid trace,
// covering mixes of engines, ops, sizes, spaces, spatial/light flags, local
// spaces and merge traffic.
func randomWorkload(data []byte) *trace.Workload {
	rng := sim.NewRNG(0xF1122)
	next := func() byte {
		if len(data) == 0 {
			return byte(rng.Uint64())
		}
		b := data[0]
		data = data[1:]
		return b
	}
	wl := &trace.Workload{Name: "fuzz", Passes: 1}
	for sp := trace.Space(0); sp < trace.NumSpaces; sp++ {
		wl.SpaceBytes[sp] = 4096 + uint64(next())*256
		wl.LocalSpaces[sp] = next()%4 == 0
	}
	if next()%3 == 0 {
		wl.MergeBytes = uint64(next()) * 128
	}
	nTasks := 1 + int(next())%24
	for t := 0; t < nTasks; t++ {
		task := trace.Task{Engine: trace.Engine(next()) % trace.NumEngines}
		nSteps := 1 + int(next())%12
		for s := 0; s < nSteps; s++ {
			space := trace.Space(next()) % trace.NumSpaces
			size := uint32(next())%512 + 1
			maxAddr := wl.SpaceBytes[space] - uint64(size)
			step := trace.Step{
				Op:      trace.Op(next()) % 3,
				Space:   space,
				Addr:    (uint64(next())*uint64(next()) + uint64(next())) % (maxAddr + 1),
				Size:    size,
				Spatial: next()%2 == 0,
				Light:   next()%3 == 0,
				Compute: uint16(next()) % 64,
			}
			task.Steps = append(task.Steps, step)
		}
		wl.Tasks = append(wl.Tasks, task)
	}
	return wl
}

// The machine invariants that must hold for EVERY structurally valid
// workload on every design and option set:
//  1. the run completes without error,
//  2. every task and step executes exactly once,
//  3. the makespan is positive and at least the single-task floor,
//  4. energy components are non-negative,
//  5. the run is deterministic.
func TestMachineInvariantsUnderFuzz(t *testing.T) {
	optsList := []Options{
		{},
		{DataPacking: true},
		{MemAccessOpt: true, Placement: true},
		allOpts,
		idealOpts,
	}
	f := func(data []byte, designBit bool, optIdx uint8) bool {
		wl := randomWorkload(data)
		if wl.Validate() != nil {
			return false // generator must always produce valid workloads
		}
		design := DesignD
		if designBit {
			design = DesignS
		}
		opts := optsList[int(optIdx)%len(optsList)]
		run := func() *Result {
			res, err := Run(DefaultConfig(design, opts), wl)
			if err != nil {
				t.Logf("run error: %v", err)
				return nil
			}
			return res
		}
		a := run()
		if a == nil {
			return false
		}
		if a.Tasks != len(wl.Tasks) || a.Steps != wl.TotalSteps() {
			return false
		}
		if a.Cycles <= 0 {
			return false
		}
		if a.Energy.CommunicationPJ < 0 || a.Energy.DRAMPJ < 0 || a.Energy.ComputePJ < 0 {
			return false
		}
		b := run()
		if b == nil || b.Cycles != a.Cycles || b.Fabric.WireBytes != a.Fabric.WireBytes {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Makespan lower bound: the engine-compute work of the busiest node divided
// by its PE count can never exceed the makespan.
func TestMakespanLowerBoundProperty(t *testing.T) {
	f := func(data []byte) bool {
		wl := randomWorkload(data)
		cfg := DefaultConfig(DesignD, idealOpts)
		res, err := Run(cfg, wl)
		if err != nil {
			return false
		}
		// Total PE-busy work / total PEs is a weak but sound bound.
		nodes := cfg.Fabric.Switches * cfg.CXLGPerSwitch
		bound := int64(res.PEBusyCycles) / int64(nodes*cfg.PEsPerNode)
		return int64(res.Cycles) >= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
