package ndp

import (
	"fmt"

	"beacon/internal/cxl"
	"beacon/internal/fault"
	"beacon/internal/memmgmt"
	"beacon/internal/obs"
	"beacon/internal/sim"
	"beacon/internal/trace"
)

// Node is one compute node of a machine: its NDP module, where it sits in
// the pool, and the mapper that places its accesses.
type Node struct {
	Module *Module
	Home   cxl.NodeID
	Mapper *memmgmt.Mapper
}

// Totals is what one replay counted.
type Totals struct {
	// Cycles is the makespan in DRAM bus cycles.
	Cycles sim.Cycle
	// Tasks is the number of tasks completed.
	Tasks int
	// Steps is the number of memory steps executed.
	Steps int
	// PEBusyCycles is the total busy time across all PEs.
	PEBusyCycles sim.Cycles
	// LocalAccesses / RemoteAccesses split DRAM accesses by whether they
	// stayed inside the compute node's own DIMM.
	LocalAccesses, RemoteAccesses uint64
}

// Replay is the task-replay loop of every NDP machine. Tasks are dealt
// round-robin to the nodes; each node's Task Scheduler keeps a bounded
// number in flight and admits the next as one retires. A step computes on
// a PE, maps its access through the node's mapper and hands every placed
// piece to the machine's flow Walker; it completes when the last piece is
// back.
//
// With a fault injector attached, a node may fail at task admission: its
// tasks then migrate to the next surviving node after the failover
// latency or, with no survivors, fall back to the host CPU, which runs the
// degraded software path to completion.
type Replay struct {
	prefix string
	engine *sim.Engine
	nodes  []Node
	w      *Walker
	wl     *trace.Workload
	tot    Totals
	// err is the first failure; fail records it.
	err error

	// tasks holds the admitted tasks in flight, one record per task
	// reused across its steps; placed is the scratch slice each step's
	// pieces are mapped into.
	tasks  slab[taskRun]
	placed []memmgmt.PlacedAccess
	// start[node] is node's admission callback and onAdmit, onIssue and
	// onStep the event handlers: all bound once, in NewReplay.
	start                    []func(*trace.Task)
	onAdmit, onIssue, onStep sim.Handler

	// OnTaskEnd, when non-nil, receives every task's identity and
	// completion time. It belongs to one replay, so concurrent runs never
	// see each other's tasks.
	OnTaskEnd func(*trace.Task, sim.Cycle)

	// Fault recovery (nil injector when disabled): one unit-failure stream
	// per node, the liveness map, and the host CPU pool that absorbs tasks
	// once every NDP unit has failed.
	inj       *fault.Injector
	faults    fault.NDPFaults
	nodeFault []fault.Component
	dead      []bool
	hostCPU   *sim.Resource

	// Observability (nil when disabled): per-node task tracks and the
	// step-completion latency histogram.
	ob          *obs.Obs
	taskTracks  []obs.Track
	stepLatency *obs.Histogram
}

// taskRun is one admitted task in flight: where it runs, when it started,
// and the current step's state. The step was issued at issue, its pieces
// go out from the task's home (Replay.home) in an event when the PE
// finishes, and it completes when the last of remaining pieces is back,
// at latest. It is 48 bytes, one per task in flight.
type taskRun struct {
	task      *trace.Task
	node      int32
	onHost    bool
	start     sim.Cycle
	step      int32
	remaining int32
	issue     sim.Cycle
	latest    sim.Cycle
}

// NewReplay builds the loop over a machine's nodes and flow walker, driven
// by the walker's engine, and binds the walker's Done and Fail to it.
// prefix names the machine family in progress metrics and errors ("core",
// "ddr").
func NewReplay(prefix string, nodes []Node, w *Walker) *Replay {
	r := &Replay{prefix: prefix, engine: w.Engine, nodes: nodes, w: w}
	r.start = make([]func(*trace.Task), len(nodes))
	for node := range nodes {
		r.start[node] = func(task *trace.Task) { r.begin(node, task, r.engine.Now(), false) }
	}
	r.onAdmit, r.onIssue, r.onStep = r.admitDue, r.issue, r.stepDone
	w.Done, w.Fail = r.pieceDone, r.pieceFailed
	return r
}

// fail records the run's first error.
func (r *Replay) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// SetInjector enables transient PE stalls on every node and the
// unit-failure recovery policy, with latencies from p. A nil injector
// leaves faults off.
func (r *Replay) SetInjector(inj *fault.Injector, p fault.NDPFaults) {
	if inj == nil {
		return
	}
	r.inj = inj
	r.faults = p
	for i, n := range r.nodes {
		n.Module.SetInjector(inj)
		r.nodeFault = append(r.nodeFault, inj.Component(fmt.Sprintf("node%d", i)))
	}
	r.dead = make([]bool, len(r.nodes))
	host := p.HostPEs
	if host <= 0 {
		host = 1
	}
	r.hostCPU = sim.NewResource("host.cpu", host)
}

// Instrument attaches observability: engine and run-progress gauges, each
// node's module plus a "<module>.tasks" lifetime track, the host CPU's
// cycle account, and the step-completion latency histogram. Call it after
// SetInjector. Observation-only.
func (r *Replay) Instrument(ob *obs.Obs) {
	if ob == nil {
		return
	}
	r.ob = ob
	reg := ob.Registry()
	reg.Gauge("engine.pending_events", func() float64 { return float64(r.engine.Pending()) })
	reg.Gauge("engine.executed_events", func() float64 { return float64(r.engine.Executed()) })
	reg.Gauge(r.prefix+".tasks_completed", func() float64 { return float64(r.tot.Tasks) })
	reg.Gauge(r.prefix+".steps_completed", func() float64 { return float64(r.tot.Steps) })
	reg.Gauge(r.prefix+".local_accesses", func() float64 { return float64(r.tot.LocalAccesses) })
	reg.Gauge(r.prefix+".remote_accesses", func() float64 { return float64(r.tot.RemoteAccesses) })
	for _, n := range r.nodes {
		n.Module.Instrument(ob)
		r.taskTracks = append(r.taskTracks, ob.Tracer().Track(n.Module.name+".tasks"))
	}
	if r.hostCPU != nil {
		ob.Track(r.hostCPU.Meter(obs.ClassHostCPU))
	}
	// Step-completion latency from issue to last returned piece, in cycles.
	r.stepLatency = reg.Histogram(r.prefix+".step_latency_cycles", obs.ExpBuckets(1, 2, 24))
}

// Run replays wl, which must have passed Validate, and returns the totals.
// The replay is single use: it consumes the engine and the modules'
// calendars.
func (r *Replay) Run(wl *trace.Workload) (Totals, error) {
	r.wl = wl
	r.engine.MaxEvents = uint64(wl.TotalSteps())*64 + 1<<20
	if r.ob != nil {
		// Drive registry snapshots off the clock's advance: no events are
		// scheduled, so timing is untouched.
		r.engine.OnAdvance = func(now sim.Cycle) { r.ob.MaybeSample(int64(now)) }
	}
	// Size the in-flight state once. Every task is admitted at cycle 0
	// when the tasks fit the schedulers, and every slot is full when they
	// do not, so n bounds the tasks in flight in both regimes. Each has
	// one step out, so the pieces in flight are bounded by the n largest
	// per-task fan-outs at the nodes' common per-space mapping granules
	// (a task may run on any node after a failover). A task in flight has
	// one event pending, or one per piece it has out, and the opening
	// admission one per node, so the engine reserves the walk bound plus
	// the nodes. Each node's backlog takes its round-robin share. Host
	// fallback (tasks in flight past n) and the failover closures grow
	// past the reservations by append.
	inFlight, share := 0, (len(wl.Tasks)+len(r.nodes)-1)/len(r.nodes)
	var g trace.Granules
	for _, nd := range r.nodes {
		inFlight += nd.Module.limit
		nd.Module.pending = make([]*trace.Task, 0, share)
		nd.Mapper.Granules(&g, &wl.LocalSpaces)
	}
	n := min(len(wl.Tasks), inFlight)
	r.tasks.reserve(n)
	pieces := wl.PieceBound(&g, n)
	r.w.walks.reserve(pieces)
	r.engine.Reserve(pieces + len(r.nodes))
	for i := range wl.Tasks {
		r.nodes[i%len(r.nodes)].Module.Enqueue(&wl.Tasks[i])
	}
	for node := range r.nodes {
		r.engine.Post(0, r.onAdmit, int32(node))
	}
	end, err := r.engine.Run()
	if err != nil {
		return Totals{}, err
	}
	if r.err != nil {
		return Totals{}, r.err
	}
	if r.tot.Tasks != len(wl.Tasks) {
		return Totals{}, fmt.Errorf("%s: completed %d of %d tasks", r.prefix, r.tot.Tasks, len(wl.Tasks))
	}
	// Final registry snapshot at the makespan, so even SampleEvery==0 runs
	// dump end-of-run metrics.
	r.ob.Sample(int64(end))
	r.tot.Cycles = end
	for _, n := range r.nodes {
		r.tot.PEBusyCycles += n.Module.PEBusyCycles()
	}
	return r.tot, nil
}

// admit starts the tasks node's scheduler has room for.
func (r *Replay) admit(node int) { r.nodes[node].Module.Admit(r.start[node]) }

// admitDue is the run's opening admission on a node.
func (r *Replay) admitDue(node int32) { r.admit(int(node)) }

// retire frees a scheduler slot on node and starts the task it admits.
func (r *Replay) retire(node int) { r.nodes[node].Module.Complete(r.start[node]) }

// begin starts task on node at now in a fresh record. onHost marks a task
// that fell back to the host CPU after every NDP unit failed.
func (r *Replay) begin(node int, task *trace.Task, now sim.Cycle, onHost bool) {
	if r.err != nil {
		return
	}
	if r.inj != nil && !onHost && r.failover(node, task, now) {
		return
	}
	idx := r.tasks.get()
	r.tasks.recs[idx] = taskRun{task: task, node: int32(node), onHost: onHost, start: now}
	r.runStep(idx, now)
}

// runStep issues record idx's current step at now, or retires the task
// after its last step.
func (r *Replay) runStep(idx int32, now sim.Cycle) {
	if r.err != nil {
		return
	}
	rec := &r.tasks.recs[idx]
	task, node := rec.task, int(rec.node)
	if int(rec.step) >= len(task.Steps) {
		r.tot.Tasks++
		if r.ob != nil {
			r.ob.Tracer().Span(r.taskTracks[node], "task", int64(rec.start), int64(now))
		}
		onHost := rec.onHost
		r.tasks.put(idx)
		if r.OnTaskEnd != nil {
			r.OnTaskEnd(task, now)
		}
		// A host task's scheduler slot was freed at failover time.
		if !onHost {
			r.retire(node)
		}
		return
	}
	st := task.Steps[rec.step]
	n := r.nodes[node]
	// PE compute preceding the access: the full engine latency for a new
	// logical operation, one pipeline cycle for a continuation access.
	var tc sim.Cycle
	if rec.onHost {
		// Degraded software path: a host CPU thread services the step with
		// the per-step fallback penalty, and reaches the data (still placed
		// for the failed node) across the fabric.
		_, tc = r.hostCPU.Acquire(now, sim.Cycles(r.faults.HostFallbackCycles+int(st.Compute)))
	} else {
		tc = n.Module.Compute(now, task.Engine, st)
	}
	// Issue the pieces when the PE finishes computing; the step completes
	// when every piece has returned. Compute never ends before now, so the
	// event runs at tc.
	rec.issue, rec.latest = now, tc
	r.engine.Post(tc, r.onIssue, idx)
}

// issue maps record idx's step through its node's mapper and hands the
// placed pieces to the walker, tagged with idx, at the PE's finish (now).
// Mapping is a pure function of the step, so mapping when the pieces go
// out rather than when the step starts lets every step share one scratch
// slice: pieces only ever go out from an event, never inside another
// step's fan-out.
func (r *Replay) issue(idx int32) {
	rec := &r.tasks.recs[idx]
	st := &rec.task.Steps[rec.step]
	local := r.wl.LocalSpaces[st.Space]
	// Non-replicated atomic targets are logically one copy pool-wide.
	shared := st.Op == trace.OpAtomicRMW && !local
	placed, err := r.nodes[rec.node].Mapper.MapShared(r.placed[:0], st.Space, st.Addr, st.Size, st.Spatial, local, shared)
	r.placed = placed
	if err != nil {
		r.fail(err)
		return
	}
	rec.remaining = int32(len(placed))
	home, now := r.home(rec), r.engine.Now()
	for _, pa := range placed {
		if pa.Node == home {
			r.tot.LocalAccesses++
		} else {
			r.tot.RemoteAccesses++
		}
		r.w.Walk(now, home, pa, st.Op, idx)
	}
}

// home is where rec's pieces go out from: its node, or the host CPU after
// a fallback.
func (r *Replay) home(rec *taskRun) cxl.NodeID {
	if rec.onHost {
		return cxl.Host()
	}
	return r.nodes[rec.node].Home
}

// pieceDone is the walker's Done: a piece of record tag's step is back at
// t, and the last one completes the step in an event at the latest return.
func (r *Replay) pieceDone(tag int32, t sim.Cycle) {
	rec := &r.tasks.recs[tag]
	rec.latest = max(rec.latest, t)
	if rec.remaining--; rec.remaining == 0 {
		r.tot.Steps++
		r.stepLatency.Observe(float64(rec.latest - rec.issue))
		r.engine.Post(rec.latest, r.onStep, tag)
	}
}

// pieceFailed is the walker's Fail.
func (r *Replay) pieceFailed(_ int32, err error) { r.fail(err) }

// stepDone moves record idx on to its next step.
func (r *Replay) stepDone(idx int32) {
	rec := &r.tasks.recs[idx]
	rec.step++
	r.runStep(idx, rec.latest)
}

// failover runs the unit-failure check at task admission and reports
// whether the task left node: a failed node stops accepting work, and its
// tasks migrate to the next surviving node or fall back to the host CPU.
func (r *Replay) failover(node int, task *trace.Task, now sim.Cycle) bool {
	if !r.dead[node] && r.nodeFault[node].NDPUnitFails(now) {
		r.dead[node] = true
	}
	if !r.dead[node] {
		return false
	}
	at := now + sim.Cycles(r.faults.FailoverLatencyCycles)
	if alt := r.aliveAfter(node); alt >= 0 {
		r.inj.CountMigration(now)
		r.engine.ScheduleAtOrNow(at, func() {
			r.nodes[alt].Module.Enqueue(task)
			r.admit(alt)
		})
	} else {
		r.inj.CountHostFallback(now)
		r.engine.ScheduleAtOrNow(at, func() { r.begin(node, task, r.engine.Now(), true) })
	}
	// Free the dead node's scheduler slot so its backlog drains (each
	// drained task migrates in turn); via an event so the drain stays
	// iterative rather than recursive.
	r.engine.ScheduleAt(r.engine.Now(), func() {
		if r.err == nil {
			r.retire(node)
		}
	})
	return true
}

// aliveAfter returns the next surviving node after node in round-robin
// order, or -1 when every node has failed.
func (r *Replay) aliveAfter(node int) int {
	for i := 1; i <= len(r.nodes); i++ {
		n := (node + i) % len(r.nodes)
		if !r.dead[n] {
			return n
		}
	}
	return -1
}
