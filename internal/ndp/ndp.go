// Package ndp models the NDP module of §IV-B: the multi-purpose PE pool,
// the Task Scheduler with its incoming/out-going queues, and the atomic
// engine bank. One NDP module lives on each CXLG-DIMM (BEACON-D) or inside
// each CXL-Switch's Switch-Logic (BEACON-S); the DDR baselines embed the
// same structure per accelerator DIMM.
//
// The components are calendar-based like the rest of the simulator: the PE
// pool bounds compute concurrency, the scheduler bounds tasks in flight
// (modeling its queue capacity), and the atomic bank bounds concurrent RMW
// arithmetic.
//
// Replay is the one task-replay loop over these modules: admission, step
// compute (including the host-CPU fallback), address mapping and piece
// fan-out, fault recovery, task spans and the run's totals. Walker is the
// one flow walker that serves each placed piece: it walks a static phase
// table (Route, DRAMRead/DRAMWrite, Atomic) and alone decides which phase
// boundaries become engine events. The machines in internal/core
// (BEACON-D/S over the CXL fabric) and internal/baseline (MEDAL/NEST over
// DDR channels) build the modules and supply only their flow tables and
// three primitives: a hop path, a DRAM access and the RMW arithmetic.
//
// Neither loop keeps continuation closures: a task in flight is a record
// in the replay's slab, a piece in flight a record in the walker's, and
// every phase boundary is a typed engine event (sim.Engine.Post) carrying
// the record's index to a handler bound once per machine.
package ndp

import (
	"fmt"

	"beacon/internal/fault"
	"beacon/internal/obs"
	"beacon/internal/sim"
	"beacon/internal/trace"
)

// Config sizes one NDP module.
type Config struct {
	// PEs is the processing-element count (Table I: 128 per CXLG-DIMM,
	// 256 per switch).
	PEs int
	// QueueDepth is the Task Scheduler's capacity in tasks; tasks beyond it
	// wait unadmitted. Zero selects 16 tasks per PE — queues are cheap (a
	// task is a DNA seed plus a few words of state) and must cover the
	// fabric's bandwidth-delay product.
	QueueDepth int
	// AtomicEngines is the width of the atomic RMW bank (BEACON-D's
	// dedicated engines; BEACON-S passes its PE count, reusing them).
	AtomicEngines int
	// AtomicLatency is the RMW arithmetic latency in cycles.
	AtomicLatency int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.PEs <= 0 {
		return fmt.Errorf("ndp: PE count must be positive, got %d", c.PEs)
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("ndp: negative queue depth")
	}
	if c.AtomicEngines <= 0 {
		return fmt.Errorf("ndp: atomic engine count must be positive, got %d", c.AtomicEngines)
	}
	if c.AtomicLatency < 0 {
		return fmt.Errorf("ndp: negative atomic latency")
	}
	return nil
}

// Depth returns the Task Scheduler's capacity: QueueDepth, or 16 tasks per
// PE when it is zero.
func (c Config) Depth() int {
	if c.QueueDepth == 0 {
		return c.PEs * 16
	}
	return c.QueueDepth
}

// Module is one instantiated NDP module.
type Module struct {
	cfg     Config
	name    string
	pes     *sim.Resource
	atomics *sim.Resource
	// scheduler state
	pending []*trace.Task
	active  int
	limit   int
	// stats
	admitted, completed int
	// peBusy is useful compute time; peStall is fault-stall time that
	// occupied a PE slot without doing work. Their sum equals the PE
	// pool's granted cycles.
	peBusy, peStall sim.Cycles
	// flt, when enabled, rolls transient PE stalls per compute step.
	flt fault.Component
}

// New builds a module.
func New(name string, cfg Config) (*Module, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Module{
		cfg:     cfg,
		name:    name,
		pes:     sim.NewResource(name+".pes", cfg.PEs),
		atomics: sim.NewResource(name+".atomic", cfg.AtomicEngines),
		limit:   cfg.Depth(),
	}, nil
}

// Instrument attaches observability: the PE pool and atomic bank calendars
// gain trace tracks (one span per compute/RMW grant), and the scheduler's
// queue state becomes polled gauges under "ndp.<name>.". Observation-only.
func (m *Module) Instrument(ob *obs.Obs) {
	if ob == nil {
		return
	}
	tr := ob.Tracer()
	m.pes.Instrument(tr, "compute")
	m.atomics.Instrument(tr, "rmw")
	reg := ob.Registry()
	prefix := "ndp." + m.name + "."
	reg.Gauge(prefix+"backlog", func() float64 { return float64(len(m.pending)) })
	reg.Gauge(prefix+"active", func() float64 { return float64(m.active) })
	reg.Gauge(prefix+"admitted", func() float64 { return float64(m.admitted) })
	reg.Gauge(prefix+"completed", func() float64 { return float64(m.completed) })
	// Cycle accounting: compute vs fault-stall vs idle for the PE pool,
	// plus the atomic bank's occupancy. The util.* gauges poll the module's
	// own counters (peBusy/peStall and the calendars' busy cycles), which
	// stay the single source of truth.
	ob.Track(obs.Meter{
		Class: obs.ClassPE,
		Name:  m.name,
		Width: m.cfg.PEs,
		Busy:  func() int64 { return int64(m.peBusy) },
		Stall: func() int64 { return int64(m.peStall) },
		Wait:  func() int64 { return int64(m.pes.WaitCycles()) },
	})
	atomic := m.atomics.Meter(obs.ClassAtomic)
	atomic.Name = m.name
	ob.Track(atomic)
}

// SetInjector enables transient-stall injection on this module's PEs.
func (m *Module) SetInjector(in *fault.Injector) {
	if in != nil {
		m.flt = in.Component("ndp/" + m.name)
	}
}

// Enqueue adds a task to the scheduler's backlog.
func (m *Module) Enqueue(t *trace.Task) { m.pending = append(m.pending, t) }

// Backlog returns tasks waiting for admission.
func (m *Module) Backlog() int { return len(m.pending) }

// Active returns tasks currently in flight.
func (m *Module) Active() int { return m.active }

// Admitted and Completed report lifetime counters.
func (m *Module) Admitted() int  { return m.admitted }
func (m *Module) Completed() int { return m.completed }

// PEBusyCycles returns accumulated PE busy time.
func (m *Module) PEBusyCycles() sim.Cycles { return m.peBusy }

// Admit pops tasks from the backlog while queue capacity remains, invoking
// start for each. start runs synchronously (it typically issues the task's
// first step against the machine's engine).
func (m *Module) Admit(start func(*trace.Task)) {
	for m.active < m.limit && len(m.pending) > 0 {
		t := m.pending[0]
		m.pending = m.pending[1:]
		m.active++
		m.admitted++
		start(t)
	}
}

// Complete retires a task and admits successors.
func (m *Module) Complete(start func(*trace.Task)) {
	if m.active <= 0 {
		panic("ndp: Complete without active task")
	}
	m.active--
	m.completed++
	m.Admit(start)
}

// Compute reserves a PE for one step's compute phase at time now and
// returns when the PE finishes. Light continuation steps cost a single
// pipeline cycle instead of the engine's full per-operation latency.
func (m *Module) Compute(now sim.Cycle, engine trace.Engine, step trace.Step) sim.Cycle {
	compute := sim.Cycles(engine.ComputeCycles() + int(step.Compute))
	if step.Light {
		compute = sim.Cycles(1 + int(step.Compute))
	}
	m.peBusy += compute
	if m.flt.Enabled() {
		// A wedged PE occupies its slot for the stall but does no work, so
		// the stall extends occupancy without inflating the busy-energy
		// counter; the stall cycles land in peStall for utilization
		// accounting instead.
		stall := m.flt.NDPStall(now)
		m.peStall += stall
		compute += stall
	}
	_, end := m.pes.Acquire(now, compute)
	return end
}

// Atomic reserves an atomic engine for one RMW arithmetic phase.
func (m *Module) Atomic(now sim.Cycle) sim.Cycle {
	_, end := m.atomics.Acquire(now, sim.Cycles(m.cfg.AtomicLatency))
	return end
}

// AtomicLatency exposes the configured RMW arithmetic latency for local
// flows that perform the arithmetic inline (no shared engine).
func (m *Module) AtomicLatency() sim.Cycles { return sim.Cycles(m.cfg.AtomicLatency) }
