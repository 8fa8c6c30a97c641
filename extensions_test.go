package beacon

import "testing"

func TestGraphWorkload(t *testing.T) {
	t.Parallel()
	cfg := DefaultGraphWorkloadConfig()
	cfg.Vertices = 2000
	wl, err := NewGraphWorkload(cfg)
	if err != nil {
		t.Fatalf("NewGraphWorkload: %v", err)
	}
	if !wl.Verified || wl.App != GraphProcessing || wl.Tasks == 0 {
		t.Errorf("workload = %+v", wl)
	}
	res, err := Run(Platform{Kind: BeaconD, Opts: AllOptimizations()}, wl)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Report.Cycles <= 0 {
		t.Error("no cycles")
	}
	bad := cfg
	bad.Vertices = 1
	if _, err := NewGraphWorkload(bad); err == nil {
		t.Error("degenerate graph accepted")
	}
}

func TestDBSearchWorkload(t *testing.T) {
	t.Parallel()
	cfg := DefaultDBSearchWorkloadConfig()
	cfg.Keys = 4096
	cfg.Queries = 500
	wl, err := NewDBSearchWorkload(cfg)
	if err != nil {
		t.Fatalf("NewDBSearchWorkload: %v", err)
	}
	if !wl.Verified || wl.App != DatabaseSearch || wl.Tasks != 500 {
		t.Errorf("workload = %+v", wl)
	}
	// Extension workloads must run faster on BEACON than the CPU model —
	// the §V claim.
	cpu, err := Run(Platform{Kind: CPU}, wl)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Run(Platform{Kind: BeaconD, Opts: AllOptimizations()}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if d.Report.Seconds >= cpu.Report.Seconds {
		t.Errorf("BEACON-D (%.2e s) not faster than CPU (%.2e s)", d.Report.Seconds, cpu.Report.Seconds)
	}
	bad := cfg
	bad.Fanout = 1
	if _, err := NewDBSearchWorkload(bad); err == nil {
		t.Error("degenerate tree accepted")
	}
}

func TestImageWorkload(t *testing.T) {
	t.Parallel()
	cfg := DefaultImageWorkloadConfig()
	cfg.Width, cfg.Height = 256, 256
	wl, err := NewImageWorkload(cfg)
	if err != nil {
		t.Fatalf("NewImageWorkload: %v", err)
	}
	if !wl.Verified || wl.App != ImageProcessing || wl.Tasks != 64 {
		t.Errorf("workload = %+v", wl)
	}
	res, err := Run(Platform{Kind: BeaconS, Opts: AllOptimizations()}, wl)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Report.Cycles <= 0 {
		t.Error("no cycles")
	}
	cfg.TileSize = 0
	if _, err := NewImageWorkload(cfg); err == nil {
		t.Error("zero tile accepted")
	}
}

func TestSimulateWithAllocation(t *testing.T) {
	t.Parallel()
	wl, err := NewFMSeedingWorkload(quickCfg(PinusTaeda))
	if err != nil {
		t.Fatal(err)
	}
	p := Platform{Kind: BeaconD, Opts: AllOptimizations()}
	// Occupied pool: migration must be charged.
	rep, err := SimulateWithAllocation(p, wl, AllocationOptions{TenantFraction: 0.8})
	if err != nil {
		t.Fatalf("SimulateWithAllocation: %v", err)
	}
	if rep.DIMMsGranted == 0 {
		t.Error("no DIMMs granted")
	}
	if rep.MigratedBytes == 0 || rep.SetupSeconds <= 0 {
		t.Errorf("occupied pool caused no migration: %+v", rep)
	}
	if rep.TotalSeconds <= rep.Seconds {
		t.Error("setup time not added")
	}
	// Empty pool: no migration.
	rep2, err := SimulateWithAllocation(p, wl, AllocationOptions{})
	if err != nil {
		t.Fatalf("SimulateWithAllocation(empty): %v", err)
	}
	if rep2.MigratedBytes != 0 {
		t.Errorf("empty pool migrated %d bytes", rep2.MigratedBytes)
	}
	// Validation.
	if _, err := SimulateWithAllocation(Platform{Kind: CPU}, wl, AllocationOptions{}); err == nil {
		t.Error("CPU platform accepted")
	}
	if _, err := SimulateWithAllocation(p, wl, AllocationOptions{TenantFraction: 2}); err == nil {
		t.Error("bad tenant fraction accepted")
	}
	if _, err := SimulateWithAllocation(p, nil, AllocationOptions{}); err == nil {
		t.Error("nil workload accepted")
	}
}
