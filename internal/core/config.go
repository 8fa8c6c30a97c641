// Package core assembles the paper's contribution: the BEACON-D and
// BEACON-S near-data-processing machines built over the CXL memory pool.
// It wires the substrates together — trace workloads from the genomics
// kernels, the memory-management framework's address mapping, the CXL
// fabric, the DDR4 DIMM timing model, the NDP PEs and atomic engines — and
// replays workloads through them, producing cycle counts, energy breakdowns
// and traffic statistics.
//
// The paper's optimization ladder (Figs. 12/14/15) maps to Options fields:
// data packing, memory-access optimization (device-bias direct routing
// instead of the host coherence detour), data placement + arch/data-aware
// address mapping, multi-chip coalescing, and idealized communication as the
// upper bound.
package core

import (
	"fmt"

	"beacon/internal/cxl"
	"beacon/internal/dram"
	"beacon/internal/energy"
	"beacon/internal/fault"
	"beacon/internal/memmgmt"
	"beacon/internal/obs"
)

// Design selects where computation happens.
type Design uint8

// The two BEACON designs.
const (
	// DesignD computes in enhanced CXLG-DIMMs (Processing-In-DIMM).
	DesignD Design = iota
	// DesignS computes in enhanced CXL-Switches (Processing-In-Switch).
	DesignS
)

// String names the design.
func (d Design) String() string {
	switch d {
	case DesignD:
		return "BEACON-D"
	case DesignS:
		return "BEACON-S"
	}
	return fmt.Sprintf("design(%d)", uint8(d))
}

// Options toggles the paper's optimizations. The zero value is CXL-vanilla:
// the naive NDP accelerator near the memory pool.
type Options struct {
	// DataPacking enables the Data Packer: fine-grained payloads share
	// flits instead of each occupying a 64 B flit.
	DataPacking bool
	// MemAccessOpt maps pool memory into device space with device bias:
	// accesses to unmodified CXL-DIMMs stop detouring through the host
	// (Fig. 9 b/d).
	MemAccessOpt bool
	// Placement enables proximity data placement and the architecture &
	// data aware address mapping scheme.
	Placement bool
	// Coalescing enables multi-chip coalescing on CXLG-DIMMs (BEACON-D's
	// FM-index optimization; without it fine-grained objects live in a
	// single chip, MEDAL-style).
	Coalescing bool
	// IdealComm replaces the fabric with infinite bandwidth and zero
	// latency — the paper's idealized-communication upper bound.
	IdealComm bool
}

// Config describes a BEACON machine.
type Config struct {
	// Design selects BEACON-D or BEACON-S.
	Design Design
	// CXLGPerSwitch is the number of CXLG-DIMMs per switch (BEACON-D only;
	// the Table I reading used here is 2 — see DESIGN.md §5.3).
	CXLGPerSwitch int
	// PEsPerNode: 128 per CXLG-DIMM (D), 256 per switch (S) per §VI-A.
	PEsPerNode int
	// DIMM is the module geometry.
	DIMM dram.Config
	// Fabric is the link/switch configuration. Its Switches and
	// DIMMsPerSwitch fields shape the pool (Table I: 2 switches, 4 DIMMs
	// each).
	Fabric cxl.Config
	// Energy is the non-DRAM energy model.
	Energy energy.Model
	// DRAMEnergy is the DRAM energy model.
	DRAMEnergy dram.EnergyModel
	// Opts is the optimization ladder position.
	Opts Options
	// CoalesceGroup is the multi-chip coalescing group size when
	// Opts.Coalescing is set.
	CoalesceGroup int
	// AtomicLatency is the atomic engine's arithmetic latency in cycles.
	AtomicLatency int
	// ReqBytes is the size of a command/request message on the fabric.
	ReqBytes int
	// AckBytes is the size of a write/RMW acknowledgement.
	AckBytes int
	// InFlightPerNode bounds the tasks a node's Task Scheduler keeps in
	// flight concurrently (0 = default: 16 tasks per PE). Large queues are
	// cheap — a task is a DNA seed plus a few words of state — and the
	// scheduler needs enough in-flight work to cover the fabric's
	// bandwidth-delay product.
	InFlightPerNode int
	// Faults enables deterministic fault injection (the zero profile is
	// off): link CRC retries, switch-port degradation, DRAM media errors and
	// NDP unit failures, drawn from per-component PCG streams keyed by
	// (FaultSeed, component, cycle). See internal/fault.
	Faults fault.Profile
	// FaultSeed is the global seed of the fault streams.
	FaultSeed uint64
	// Obs, when non-nil, attaches the observability layer: component
	// metrics registered in its registry, activity spans on its tracer, and
	// periodic registry snapshots driven by the engine's time-advance hook.
	// Instrumentation is observation-only — cycle counts are byte-identical
	// with Obs set or nil.
	Obs *obs.Obs
}

// DefaultConfig returns the Table I configuration for the given design with
// the given optimization set.
func DefaultConfig(d Design, opts Options) Config {
	cfg := Config{
		Design: d,
		// Table I's BEACON row ("512/2/2") reads as 512 GB across 2 switches
		// with 2 CXLG-DIMMs per switch; the remaining slots hold unmodified
		// CXL-DIMMs used for memory expansion.
		CXLGPerSwitch: 2,
		PEsPerNode:    128,
		DIMM:          dram.DefaultConfig(),
		Fabric:        cxl.DefaultConfig(),
		Energy:        energy.DefaultModel(),
		DRAMEnergy:    dram.DefaultEnergyModel(),
		Opts:          opts,
		CoalesceGroup: 8,
		AtomicLatency: 4,
		ReqBytes:      16,
		AckBytes:      4,
	}
	if d == DesignS {
		cfg.CXLGPerSwitch = 0
		cfg.PEsPerNode = 256
	}
	return cfg
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Design != DesignD && c.Design != DesignS {
		return fmt.Errorf("core: unknown design %d", c.Design)
	}
	if err := c.fabricConfig().Validate(); err != nil {
		return err
	}
	if c.Design == DesignD && (c.CXLGPerSwitch <= 0 || c.CXLGPerSwitch > c.Fabric.DIMMsPerSwitch) {
		return fmt.Errorf("core: BEACON-D needs 1..%d CXLG-DIMMs per switch, got %d",
			c.Fabric.DIMMsPerSwitch, c.CXLGPerSwitch)
	}
	if c.Design == DesignS && c.CXLGPerSwitch != 0 {
		return fmt.Errorf("core: BEACON-S must not have CXLG-DIMMs, got %d", c.CXLGPerSwitch)
	}
	if c.PEsPerNode <= 0 {
		return fmt.Errorf("core: PEs per node must be positive, got %d", c.PEsPerNode)
	}
	if err := c.DIMM.Validate(); err != nil {
		return err
	}
	if err := c.Energy.Validate(); err != nil {
		return err
	}
	if c.AtomicLatency < 0 || c.ReqBytes <= 0 || c.AckBytes <= 0 {
		return fmt.Errorf("core: invalid message/latency parameters")
	}
	if c.CoalesceGroup <= 0 {
		return fmt.Errorf("core: coalesce group must be positive")
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// mmConfig derives the memory-management framework configuration.
func (c Config) mmConfig() memmgmt.Config {
	mm := memmgmt.DefaultConfig()
	mm.Pool = memmgmt.PoolLayout{
		Switches:       c.Fabric.Switches,
		DIMMsPerSwitch: c.Fabric.DIMMsPerSwitch,
		CXLGSlots:      c.CXLGPerSwitch,
	}
	mm.DIMM = c.DIMM
	if c.Opts.Placement {
		mm.Scheme = memmgmt.SchemeArchData
		mm.PlacementLocal = true
		// BEACON-D's data migration pulls each node's hot shard into its
		// own CXLG-DIMM; BEACON-S has no in-DIMM compute to migrate toward.
		mm.HotLocal = c.Design == DesignD
	} else {
		mm.Scheme = memmgmt.SchemeFixed
		mm.PlacementLocal = false
		mm.HotLocal = false
	}
	if c.Opts.Coalescing {
		mm.CoalesceGroup = c.CoalesceGroup
	} else {
		mm.CoalesceGroup = 1 // per-chip, MEDAL-style
	}
	return mm
}

// fabricConfig derives the fabric configuration.
func (c Config) fabricConfig() cxl.Config {
	f := c.Fabric
	f.Ideal = c.Opts.IdealComm
	return f
}
