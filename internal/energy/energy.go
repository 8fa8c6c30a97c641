// Package energy unifies the energy accounting across the repository: DRAM
// dynamic/background energy (delegated to internal/dram's model), link
// energy per bit (CACTI-IO / Keckler-style constants), and the PE
// dynamic/leakage numbers the paper synthesized with Design Compiler at
// 28 nm (Table II).
package energy

import "fmt"

// PEOverhead is a row of Table II: per-PE synthesis results.
type PEOverhead struct {
	Architecture string
	AreaUM2      float64
	DynamicMW    float64
	LeakageUW    float64
}

// TableII reproduces the paper's Table II verbatim. These are constants the
// paper measured with pre-layout Design Compiler at 28 nm; the reproduction
// uses them as the PE energy model.
func TableII() []PEOverhead {
	return []PEOverhead{
		{Architecture: "MEDAL", AreaUM2: 8941.39, DynamicMW: 10.57, LeakageUW: 36.16},
		{Architecture: "NEST", AreaUM2: 16721.12, DynamicMW: 8.12, LeakageUW: 24.83},
		{Architecture: "BEACON", AreaUM2: 14090.23, DynamicMW: 9.48, LeakageUW: 18.97},
	}
}

// BeaconPE returns BEACON's Table II row.
func BeaconPE() PEOverhead { return TableII()[2] }

// Model carries the constants used to convert simulator activity into
// energy. All energies in picojoules; the DRAM cycle is 1.25 ns.
type Model struct {
	// CyclePS is the DRAM cycle time in picoseconds.
	CyclePS float64
	// LinkPJPerByte is the serialization energy per byte per link hop
	// (SerDes + wire). ~4.4 pJ/bit for PCIe-class links.
	LinkPJPerByte float64
	// SwitchBusPJPerByte is the on-chip switch-bus energy per byte.
	SwitchBusPJPerByte float64
	// HostCrossingPJ is the fixed energy of a host coherence turnaround.
	HostCrossingPJ float64
	// PEDynamicMW and PELeakageUW come from Table II.
	PEDynamicMW, PELeakageUW float64
	// DDRChannelPJPerByte is the external DDR bus energy per byte (the
	// baselines' inter-DIMM path).
	DDRChannelPJPerByte float64
}

// DefaultModel returns the constants used throughout the evaluation.
func DefaultModel() Model {
	pe := BeaconPE()
	return Model{
		CyclePS:             1250,
		LinkPJPerByte:       35, // ~4.4 pJ/bit
		SwitchBusPJPerByte:  2,
		HostCrossingPJ:      4000,
		PEDynamicMW:         pe.DynamicMW,
		PELeakageUW:         pe.LeakageUW,
		DDRChannelPJPerByte: 20, // ~2.5 pJ/bit DDR4 I/O
	}
}

// Validate checks the model.
func (m Model) Validate() error {
	if m.CyclePS <= 0 {
		return fmt.Errorf("energy: cycle time must be positive")
	}
	if m.LinkPJPerByte < 0 || m.SwitchBusPJPerByte < 0 || m.HostCrossingPJ < 0 ||
		m.PEDynamicMW < 0 || m.PELeakageUW < 0 || m.DDRChannelPJPerByte < 0 {
		return fmt.Errorf("energy: negative constant in model")
	}
	return nil
}

// PEComputePJ returns the energy of busy PE cycles: dynamic power while
// computing. busyCycles is the total PE-busy cycle count across all PEs.
func (m Model) PEComputePJ(busyCycles int64) float64 {
	// mW * ps = pJ * 1e-3... : P[mW] * t[ps] = P*1e-3[J/s] * t*1e-12[s]
	// = P*t*1e-15 J = P*t*1e-3 pJ.
	return m.PEDynamicMW * float64(busyCycles) * m.CyclePS * 1e-3
}

// PELeakagePJ returns leakage energy for numPEs over the run's wall-clock
// cycles.
func (m Model) PELeakagePJ(numPEs int, wallCycles int64) float64 {
	// uW * ps = 1e-6 J/s * 1e-12 s = 1e-18 J = 1e-6 pJ.
	return m.PELeakageUW * float64(numPEs) * float64(wallCycles) * m.CyclePS * 1e-6
}

// LinkPJ returns energy for wire bytes across CXL links.
func (m Model) LinkPJ(wireBytes uint64) float64 {
	return float64(wireBytes) * m.LinkPJPerByte
}

// BusPJ returns energy for switch-bus bytes.
func (m Model) BusPJ(busBytes uint64) float64 {
	return float64(busBytes) * m.SwitchBusPJPerByte
}

// HostPJ returns energy for host coherence crossings.
func (m Model) HostPJ(crossings uint64) float64 {
	return float64(crossings) * m.HostCrossingPJ
}

// DDRChannelPJ returns energy for bytes moved on the baselines' shared DDR
// channel.
func (m Model) DDRChannelPJ(bytes uint64) float64 {
	return float64(bytes) * m.DDRChannelPJPerByte
}

// Breakdown is the Fig. 17 energy decomposition.
type Breakdown struct {
	// CommunicationPJ covers links, switch bus, and host crossings.
	CommunicationPJ float64
	// DRAMPJ covers DRAM dynamic + background energy.
	DRAMPJ float64
	// ComputePJ covers PE dynamic + leakage.
	ComputePJ float64
}

// TotalPJ sums the components.
func (b Breakdown) TotalPJ() float64 { return b.CommunicationPJ + b.DRAMPJ + b.ComputePJ }

// Add accumulates another breakdown.
func (b *Breakdown) Add(o Breakdown) {
	b.CommunicationPJ += o.CommunicationPJ
	b.DRAMPJ += o.DRAMPJ
	b.ComputePJ += o.ComputePJ
}
