package beacon

import (
	"fmt"
	"strings"

	"beacon/internal/baseline"
	"beacon/internal/core"
	"beacon/internal/dram"
	"beacon/internal/energy"
	"beacon/internal/fault"
	"beacon/internal/ndp"
	"beacon/internal/obs"
	"beacon/internal/sim"
	"beacon/internal/stats"
	"beacon/internal/trace"
)

// FaultProfile configures deterministic fault injection for the BEACON
// platforms; the zero value disables it. See internal/fault.
type FaultProfile = fault.Profile

// FaultStats counts injected faults and recovery actions.
type FaultStats = fault.Stats

// DefaultFaultProfile returns the moderate fault-rate profile.
func DefaultFaultProfile() FaultProfile { return fault.DefaultProfile() }

// HeavyFaultProfile returns the stress-test fault-rate profile.
func HeavyFaultProfile() FaultProfile { return fault.HeavyProfile() }

// ParseFaultProfile resolves a named profile ("off", "default", "heavy").
func ParseFaultProfile(name string) (FaultProfile, error) { return fault.Parse(name) }

// PlatformKind selects the system a workload runs on.
type PlatformKind int

// The simulated platforms.
const (
	// CPU is the 48-thread Xeon software baseline (analytic model).
	CPU PlatformKind = iota
	// DDRBaseline is the previous generation of DIMM-based NDP accelerators
	// (MEDAL for seeding, NEST for k-mer counting) on DDR channels.
	DDRBaseline
	// BeaconD computes in enhanced CXLG-DIMMs.
	BeaconD
	// BeaconS computes in enhanced CXL-Switches.
	BeaconS
)

// String names the platform.
func (p PlatformKind) String() string {
	switch p {
	case CPU:
		return "cpu"
	case DDRBaseline:
		return "ddr-ndp"
	case BeaconD:
		return "beacon-d"
	case BeaconS:
		return "beacon-s"
	}
	return fmt.Sprintf("platform(%d)", int(p))
}

// Options positions the BEACON platforms on the paper's optimization
// ladder: DataPacking, MemAccessOpt, Placement, Coalescing (BEACON-D) and
// IdealComm (infinite bandwidth, zero latency). CPU ignores it; the DDR
// baseline reads only IdealComm. It is a defined type rather than an alias
// so that a Report's %#v, which the daemon's ETag hashes, names
// beacon.Options.
type Options core.Options

// Vanilla is the CXL-vanilla configuration (no optimizations).
func Vanilla() Options { return Options{} }

// AllOptimizations enables the full stack.
func AllOptimizations() Options {
	return Options{DataPacking: true, MemAccessOpt: true, Placement: true, Coalescing: true}
}

// IdealComm enables the full stack over an idealized fabric.
func IdealComm() Options {
	o := AllOptimizations()
	o.IdealComm = true
	return o
}

// Platform is a runnable system configuration.
type Platform struct {
	// Kind selects the system.
	Kind PlatformKind
	// Opts positions BEACON on its optimization ladder.
	Opts Options
	// Faults enables deterministic fault injection on the BEACON platforms
	// (zero = disabled). The CPU and DDR baselines model neither the CXL
	// fabric nor its RAS path and ignore it.
	Faults FaultProfile
	// FaultSeed seeds the per-component fault streams.
	FaultSeed uint64
}

// Report summarizes one simulation.
type Report struct {
	// Platform and Workload identify the run.
	Platform Platform
	Workload string
	// Cycles is the makespan in DRAM bus cycles (1.25 ns).
	Cycles int64
	// Seconds is the makespan in seconds.
	Seconds float64
	// EnergyPJ is total energy; CommEnergyPJ, DRAMEnergyPJ and
	// ComputeEnergyPJ are the Fig. 17 components.
	EnergyPJ        float64
	CommEnergyPJ    float64
	DRAMEnergyPJ    float64
	ComputeEnergyPJ float64
	// LocalFraction is the share of DRAM accesses served by the compute
	// node's own DIMM (NDP platforms).
	LocalFraction float64
	// WireBytes is fabric traffic (CXL platforms) or channel traffic (DDR).
	WireBytes uint64
	// HostCrossings counts host coherence detours.
	HostCrossings uint64
	// ChipAccesses is the per-chip burst distribution on CXLG-DIMMs
	// (BEACON-D only; Fig. 13).
	ChipAccesses []uint64
	// Faults counts injected faults and recovery actions (all zero when
	// injection is disabled or the platform ignores it).
	Faults FaultStats
}

// CommEnergyRatio returns communication's share of total energy.
func (r *Report) CommEnergyRatio() float64 {
	if r.EnergyPJ == 0 {
		return 0
	}
	return r.CommEnergyPJ / r.EnergyPJ
}

// SpeedupOver returns how many times faster this run is than other.
func (r *Report) SpeedupOver(other *Report) float64 {
	return stats.Speedup(float64(other.Cycles), float64(r.Cycles))
}

// EnergyReductionOver returns the energy-consumption ratio other/this.
func (r *Report) EnergyReductionOver(other *Report) float64 {
	return stats.Speedup(other.EnergyPJ, r.EnergyPJ)
}

// machine resolves a BEACON platform under ablation overrides ov to the
// machine it runs: the design, the optimization ladder, the fault profile
// and seed, every non-zero override, and the Task Scheduler depth the NDP
// modules use. Equal machines run equal simulations, so the Evaluator's
// run memo keys on it.
func (p Platform) machine(ov machineOverrides) core.Config {
	design := core.DesignD
	if p.Kind == BeaconS {
		design = core.DesignS
	}
	cfg := core.DefaultConfig(design, core.Options(p.Opts))
	cfg.Faults = p.Faults
	cfg.FaultSeed = p.FaultSeed
	ov.apply(&cfg)
	cfg.InFlightPerNode = ndp.Config{PEs: cfg.PEsPerNode, QueueDepth: cfg.InFlightPerNode}.Depth()
	return cfg
}

// setTimed fills the report fields a timed (DDR or BEACON) machine
// measures.
func (r *Report) setTimed(t ndp.Totals, e energy.Breakdown, wireBytes, hostCrossings uint64) {
	r.Cycles = int64(t.Cycles)
	r.Seconds = sim.Seconds(t.Cycles)
	r.EnergyPJ = e.TotalPJ()
	r.CommEnergyPJ = e.CommunicationPJ
	r.DRAMEnergyPJ = e.DRAMPJ
	r.ComputeEnergyPJ = e.ComputePJ
	r.WireBytes = wireBytes
	r.HostCrossings = hostCrossings
	if n := t.LocalAccesses + t.RemoteAccesses; n > 0 {
		r.LocalFraction = float64(t.LocalAccesses) / float64(n)
	}
}

// TenantReport is one workload's share of a co-located run.
type TenantReport struct {
	Workload string
	Seconds  float64
	Tasks    int
}

// machineOverrides are the machine parameters the ablation sweeps vary
// beyond what a Platform names. The zero value keeps every platform default
// (Run passes it).
type machineOverrides struct {
	coalesceGroup     int     // multi-chip coalescing group size
	cxlgPerSwitch     int     // CXLG-DIMMs per switch (BEACON-D)
	linkBytesPerCycle float64 // per-DIMM CXL link bandwidth
	inFlight          int     // Task Scheduler in-flight tasks per node
	switches          int     // pool switch count
	closedPage        bool    // closed-page row-buffer policy
}

// apply sets every non-zero override on cfg.
func (o machineOverrides) apply(cfg *core.Config) {
	override(&cfg.CoalesceGroup, o.coalesceGroup)
	override(&cfg.CXLGPerSwitch, o.cxlgPerSwitch)
	override(&cfg.Fabric.DIMMLink.BytesPerCycle, o.linkBytesPerCycle)
	override(&cfg.InFlightPerNode, o.inFlight)
	override(&cfg.Fabric.Switches, o.switches)
	override(&cfg.DIMM.ClosedPage, o.closedPage)
}

// override sets *dst to v unless v is the zero value.
func override[T comparable](dst *T, v T) {
	var zero T
	if v != zero {
		*dst = v
	}
}

// outcome is one simulation's result: the report, the co-located tenants,
// and the DRAM counters (BEACON platforms only) that the ablation sweeps
// read but Report does not expose.
type outcome struct {
	rep     *Report
	tenants []TenantReport
	dram    dram.Stats
}

// simulate is the simulation behind Run and the Evaluator. One workload runs
// alone; several share one BEACON pool, and the report then covers all of
// them (named "shared") while the tenant reports give each one's own
// completion. ov overrides the BEACON machine's defaults.
func simulate(p Platform, ov machineOverrides, wls []*Workload, ob *obs.Obs) (outcome, error) {
	for i, w := range wls {
		if w == nil || w.tr == nil {
			return outcome{}, fmt.Errorf("%w: nil workload at index %d", ErrBadConfig, i)
		}
	}
	out := outcome{rep: &Report{Platform: p, Workload: wls[0].Name}}
	rep := out.rep
	if len(wls) > 1 {
		if p.Kind != BeaconD && p.Kind != BeaconS {
			return outcome{}, fmt.Errorf("%w: shared runs require a BEACON platform, got %v", ErrBadConfig, p.Kind)
		}
		rep.Workload = "shared"
	}
	switch p.Kind {
	case CPU:
		res, err := baseline.RunCPU(baseline.DefaultCPUConfig(), wls[0].tr)
		if err != nil {
			return outcome{}, err
		}
		rep.Cycles = int64(res.Cycles)
		rep.Seconds = res.Seconds
		rep.EnergyPJ = res.EnergyPJ
		rep.ComputeEnergyPJ = res.EnergyPJ
		return out, nil
	case DDRBaseline:
		// Seeding and pre-alignment compare against MEDAL, k-mer counting
		// against NEST, at PE-area parity with BEACON (§VI-A).
		cfg := baseline.MEDALConfig()
		if strings.HasPrefix(wls[0].Name, "kmer") {
			cfg = baseline.NESTConfig()
		}
		cfg.IdealComm = p.Opts.IdealComm
		cfg.Obs = ob
		res, err := baseline.RunDDR(cfg, wls[0].tr)
		if err != nil {
			return outcome{}, err
		}
		rep.setTimed(res.Totals, res.Energy, res.ChannelBytes, res.HostCrossings)
		return out, nil
	case BeaconD, BeaconS:
		cfg := p.machine(ov)
		cfg.Obs = ob
		traces := make([]*trace.Workload, len(wls))
		for i, w := range wls {
			traces[i] = w.tr
		}
		res, err := core.Run(cfg, traces...)
		if err != nil {
			return outcome{}, err
		}
		rep.setTimed(res.Totals, res.Energy, res.Fabric.WireBytes, res.Fabric.HostCrossings)
		rep.ChipAccesses = res.CXLGChipAccesses
		rep.Faults = res.Faults
		out.dram = res.DRAM
		for i, t := range res.Tenants {
			out.tenants = append(out.tenants, TenantReport{
				Workload: wls[i].Name, Seconds: sim.Seconds(t.Cycles), Tasks: t.Tasks,
			})
		}
		return out, nil
	}
	return outcome{}, fmt.Errorf("%w: unknown platform %d", ErrBadConfig, int(p.Kind))
}
