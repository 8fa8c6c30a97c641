package obs

import "strings"

// Resource classes for cycle accounting. A class groups resources of one
// hardware kind so the bottleneck report can roll individual resources up
// into "the DIMMs" vs "the links" vs "the PEs". Classes are single tokens
// (no dots) because they become one segment of the util.* metric names.
const (
	// ClassLink is a CXL link direction (host-switch or switch-DIMM).
	ClassLink = "link"
	// ClassSwitch is an in-switch routing stage (the Switch-Bus ports).
	ClassSwitch = "switch"
	// ClassPacker is a Data Packer pipeline.
	ClassPacker = "packer"
	// ClassDIMM is a DRAM module's chip data buses.
	ClassDIMM = "dimm"
	// ClassPE is an NDP module's processing-element pool.
	ClassPE = "pe"
	// ClassAtomic is an atomic RMW engine bank.
	ClassAtomic = "atomic"
	// ClassBus is a shared DDR channel bus (baseline platforms).
	ClassBus = "bus"
	// ClassHostBridge is the host memory-controller bridge (baselines).
	ClassHostBridge = "hostbridge"
	// ClassHostCPU is the host CPU pool absorbing fault fallbacks.
	ClassHostCPU = "hostcpu"
)

// Meter describes one resource's cycle account for Obs.Track. Every
// simulated cycle of the resource is classified busy (doing useful work),
// stalled (occupied but blocked: tFAW windows, refresh charges, fault
// stalls) or idle. Idle is never stored: it is derived at attribution
// time as width*window - busy - stall. Wait cycles ride along as a
// fourth, non-exclusive series: the aggregate time requests spent queued
// behind the resource (it can exceed width*window when many requests wait
// in parallel), which separates "saturated" from "merely busy".
//
// The funcs read counters the component already maintains (a
// sim.Resource's busy cycles, a DIMM's stats), so the component's counter
// stays the single source of truth and accounting adds no hot-path work.
// Any of them may be nil: a nil Busy still registers the busy gauge (it
// reads 0); a nil Stall or Wait suppresses that gauge so resources without
// a stall concept don't pad every snapshot with zeros.
type Meter struct {
	// Class is one of the Class* constants (a single dot-free token).
	Class string
	// Name identifies the resource within its class (may contain dots).
	Name string
	// Width is the resource's parallel-server count (>= 1).
	Width int
	// Busy/Stall/Wait read the component's own cumulative counters. They
	// are polled from the registry's snapshot hook on the simulation's own
	// goroutine.
	Busy, Stall, Wait func() int64
}

// Track registers one resource's cycle account as polled gauges in the
// Obs's registry:
//
//	util.<class>.<name>.width
//	util.<class>.<name>.busy_cycles
//	util.<class>.<name>.stall_cycles  (when m.Stall is set)
//	util.<class>.<name>.wait_cycles   (when m.Wait is set)
//
// so the snapshot series is the utilization timeline and the metrics
// artifacts carry everything bottleneck attribution needs (see
// NewProfile). Tracking is observation-only: it holds no simulation
// state and schedules nothing. Dots in the class become underscores so
// util.* names stay parseable; a non-positive width is clamped to 1. A
// nil Obs tracks nothing.
func (o *Obs) Track(m Meter) {
	if o == nil {
		return
	}
	prefix := utilPrefix + strings.ReplaceAll(m.Class, ".", "_") + "." + m.Name + "."
	width := float64(max(m.Width, 1))
	o.Metrics.Gauge(prefix+"width", func() float64 { return width })
	gauge := func(kind string, fn func() int64) {
		if fn != nil {
			o.Metrics.Gauge(prefix+kind, func() float64 { return float64(fn()) })
		}
	}
	if m.Busy == nil {
		m.Busy = func() int64 { return 0 }
	}
	gauge("busy_cycles", m.Busy)
	gauge("stall_cycles", m.Stall)
	gauge("wait_cycles", m.Wait)
}
