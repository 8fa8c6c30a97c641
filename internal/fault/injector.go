package fault

import (
	"errors"
	"math"

	"beacon/internal/obs"
	"beacon/internal/sim"
)

// ErrUncorrectable marks a DRAM access that failed with an uncorrectable
// ECC error. Memory controllers match it with errors.Is to decide whether a
// failed access is retryable.
var ErrUncorrectable = errors.New("uncorrectable ECC error")

// Stats counts injected faults and the recovery work they triggered.
type Stats struct {
	// LinkCRCErrors counts flit CRC failures detected (including failures of
	// retransmissions); LinkRetries counts retransmissions performed.
	LinkCRCErrors uint64
	LinkRetries   uint64
	// SwitchDegraded counts Switch-Bus traversals throttled by a degraded
	// port.
	SwitchDegraded uint64
	// DRAMCorrectable / DRAMUncorrectable count media errors by severity;
	// DRAMRetries counts the controller re-reads absorbing the latter.
	DRAMCorrectable   uint64
	DRAMUncorrectable uint64
	DRAMRetries       uint64
	// NDPStalls counts transient PE stalls; NDPUnitFailures counts permanent
	// unit deaths; MigratedTasks and HostFallbackTasks count the tasks each
	// degradation path absorbed.
	NDPStalls         uint64
	NDPUnitFailures   uint64
	MigratedTasks     uint64
	HostFallbackTasks uint64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.LinkCRCErrors += o.LinkCRCErrors
	s.LinkRetries += o.LinkRetries
	s.SwitchDegraded += o.SwitchDegraded
	s.DRAMCorrectable += o.DRAMCorrectable
	s.DRAMUncorrectable += o.DRAMUncorrectable
	s.DRAMRetries += o.DRAMRetries
	s.NDPStalls += o.NDPStalls
	s.NDPUnitFailures += o.NDPUnitFailures
	s.MigratedTasks += o.MigratedTasks
	s.HostFallbackTasks += o.HostFallbackTasks
}

// Total returns the number of faults injected (recovery actions excluded).
func (s Stats) Total() uint64 {
	return s.LinkCRCErrors + s.SwitchDegraded + s.DRAMCorrectable +
		s.DRAMUncorrectable + s.NDPStalls + s.NDPUnitFailures
}

// Injector owns one simulation's fault state: the profile, the global fault
// seed, the per-component draw indexes, and the fault counters. One machine
// = one injector = one goroutine; see the package comment for the
// determinism argument.
type Injector struct {
	seed  uint64
	prof  Profile
	stats Stats
	// seq advances a per-component draw index so multiple decisions by the
	// same component at the same cycle stay decorrelated. Only ever indexed,
	// never iterated (map iteration must not reach scheduling decisions).
	seq map[uint64]uint64
	// tr/track, when set, record every injected fault as an instant event.
	tr    *obs.Tracer
	track obs.Track
}

// NewInjector builds an injector for a validated profile.
func NewInjector(seed uint64, prof Profile) *Injector {
	return &Injector{seed: seed, prof: prof, seq: make(map[uint64]uint64)}
}

// Stats returns a copy of the fault counters.
func (in *Injector) Stats() Stats { return in.stats }

// Instrument attaches observability: every counter becomes a polled gauge
// under "fault." and injected faults land as instant events on a "faults"
// trace track. Observation-only.
func (in *Injector) Instrument(ob *obs.Obs) {
	if in == nil || ob == nil {
		return
	}
	reg := ob.Registry()
	for _, g := range []struct {
		name string
		v    *uint64
	}{
		{"link_crc_errors", &in.stats.LinkCRCErrors},
		{"link_retries", &in.stats.LinkRetries},
		{"switch_degraded", &in.stats.SwitchDegraded},
		{"dram_correctable", &in.stats.DRAMCorrectable},
		{"dram_uncorrectable", &in.stats.DRAMUncorrectable},
		{"dram_retries", &in.stats.DRAMRetries},
		{"ndp_stalls", &in.stats.NDPStalls},
		{"ndp_unit_failures", &in.stats.NDPUnitFailures},
		{"migrated_tasks", &in.stats.MigratedTasks},
		{"host_fallback_tasks", &in.stats.HostFallbackTasks},
	} {
		v := g.v
		reg.Gauge("fault."+g.name, func() float64 { return float64(*v) })
	}
	if tr := ob.Tracer(); tr != nil {
		in.tr = tr
		in.track = tr.Track("faults")
	}
}

// instant records one injected fault on the trace timeline.
func (in *Injector) instant(now sim.Cycle, name string) {
	if in.tr != nil {
		in.tr.Instant(in.track, name, int64(now))
	}
}

// roll draws the component's next keyed value at the given cycle and
// reports whether an event with probability p fires.
func (in *Injector) roll(comp uint64, now sim.Cycle, p float64) bool {
	if p <= 0 {
		return false
	}
	n := in.seq[comp]
	in.seq[comp] = n + 1
	if p >= 1 {
		return true
	}
	return drawFloat(in.seed, comp, int64(now), n) < p
}

// CountDRAMRetry records a controller re-read after an uncorrectable error.
func (in *Injector) CountDRAMRetry(now sim.Cycle) {
	in.stats.DRAMRetries++
	in.instant(now, "dram-retry")
}

// CountMigration records a task migrated off a failed NDP unit.
func (in *Injector) CountMigration(now sim.Cycle) {
	in.stats.MigratedTasks++
	in.instant(now, "task-migrated")
}

// CountHostFallback records a task degraded to the host CPU path.
func (in *Injector) CountHostFallback(now sim.Cycle) {
	in.stats.HostFallbackTasks++
	in.instant(now, "host-fallback")
}

// Component is a timing component's handle into the injector: the component
// name is hashed once at setup so the per-decision hot path is arithmetic
// only. The zero Component is disabled (all draws report no fault).
type Component struct {
	in *Injector
	id uint64
}

// Component returns the handle for a named component.
func (in *Injector) Component(name string) Component {
	if in == nil {
		return Component{}
	}
	return Component{in: in, id: fnv1a(name)}
}

// Enabled reports whether the handle is wired to an injector.
func (c Component) Enabled() bool { return c.in != nil }

// LinkCRC rolls the CRC outcome of a message-hop of the given flit count and
// returns the number of retransmissions to model. Each transmission rolls
// independently (a retry can itself fail); retransmissions are capped by the
// profile, after which the message is delivered anyway.
func (c Component) LinkCRC(now sim.Cycle, flits int) int {
	if c.in == nil || flits <= 0 {
		return 0
	}
	lp := c.in.prof.Link
	if lp.FlitCRCProb <= 0 {
		return 0
	}
	// Probability at least one of the message's flits is corrupted.
	pMsg := 1 - math.Pow(1-lp.FlitCRCProb, float64(flits))
	retries := 0
	for c.in.roll(c.id, now, pMsg) {
		c.in.stats.LinkCRCErrors++
		if retries >= lp.MaxRetries {
			break
		}
		retries++
		c.in.stats.LinkRetries++
	}
	if retries > 0 {
		c.in.instant(now, "link-crc")
	}
	return retries
}

// ReplayLatency returns the link-layer replay-buffer turnaround per retry.
func (c Component) ReplayLatency() sim.Cycles {
	if c.in == nil {
		return 0
	}
	return sim.Cycles(c.in.prof.Link.ReplayLatencyCycles)
}

// SwitchDegrade rolls transient port degradation for one bus traversal and
// returns the throttle penalty (0 = healthy).
func (c Component) SwitchDegrade(now sim.Cycle) sim.Cycles {
	if c.in == nil {
		return 0
	}
	sp := c.in.prof.Switch
	if !c.in.roll(c.id, now, sp.DegradeProb) {
		return 0
	}
	c.in.stats.SwitchDegraded++
	c.in.instant(now, "switch-degrade")
	return sim.Cycles(sp.DegradePenaltyCycles)
}

// DRAMFaultKind classifies a media-error draw.
type DRAMFaultKind uint8

// DRAM fault outcomes.
const (
	DRAMNone DRAMFaultKind = iota
	DRAMCorrectable
	DRAMUncorrectable
)

// DRAMFault rolls the media-error outcome of one access. Correctable errors
// return the ECC correction latency to add; uncorrectable errors fail the
// access (the caller returns an error wrapping ErrUncorrectable).
func (c Component) DRAMFault(now sim.Cycle) (DRAMFaultKind, int) {
	if c.in == nil {
		return DRAMNone, 0
	}
	dp := c.in.prof.DRAM
	if c.in.roll(c.id, now, dp.UncorrectableProb) {
		c.in.stats.DRAMUncorrectable++
		c.in.instant(now, "dram-uncorrectable")
		return DRAMUncorrectable, 0
	}
	if c.in.roll(c.id, now, dp.CorrectableProb) {
		c.in.stats.DRAMCorrectable++
		c.in.instant(now, "dram-ecc")
		return DRAMCorrectable, dp.ECCLatencyCycles
	}
	return DRAMNone, 0
}

// NDPStall rolls a transient PE stall for one compute step and returns the
// extra occupancy (0 = no stall).
func (c Component) NDPStall(now sim.Cycle) sim.Cycles {
	if c.in == nil {
		return 0
	}
	np := c.in.prof.NDP
	if !c.in.roll(c.id, now, np.StallProb) {
		return 0
	}
	c.in.stats.NDPStalls++
	c.in.instant(now, "ndp-stall")
	return sim.Cycles(np.StallCycles)
}

// NDPUnitFails rolls a permanent unit failure at task admission.
func (c Component) NDPUnitFails(now sim.Cycle) bool {
	if c.in == nil {
		return false
	}
	if !c.in.roll(c.id, now, c.in.prof.NDP.UnitFailProb) {
		return false
	}
	c.in.stats.NDPUnitFailures++
	c.in.instant(now, "ndp-unit-failure")
	return true
}
