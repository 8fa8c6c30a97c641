package obs

import (
	"io"
	"sort"
	"strings"
	"sync"
)

// Obs bundles one simulation's observability state: a metrics registry and
// a timeline tracer, plus the snapshot cadence. Every simulation (one
// engine, one machine) gets its own Obs so concurrent jobs never share
// mutable state; the orchestrator merges them through a Collection.
//
// A nil *Obs disables all instrumentation at the cost of one branch per
// hook — components call through it unconditionally.
type Obs struct {
	// Label identifies the simulation (the orchestrator's job label).
	Label string
	// Metrics is the simulation's registry.
	Metrics *Registry
	// Trace is the simulation's timeline tracer.
	Trace *Tracer
	// SampleEvery is the snapshot interval in simulated cycles; 0 records
	// only the final snapshot (taken by the machine at end of run).
	SampleEvery int64

	next int64 // next snapshot boundary (single simulation goroutine)
}

// New returns an enabled Obs with a fresh registry and tracer.
func New(label string) *Obs {
	return &Obs{Label: label, Metrics: NewRegistry(), Trace: NewTracer()}
}

// Registry returns the metrics registry (nil when disabled).
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// Tracer returns the timeline tracer (nil when disabled).
func (o *Obs) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.Trace
}

// MaybeSample snapshots the registry when the clock has crossed the next
// SampleEvery boundary. It is driven by the engine's time-advance hook, so
// it never schedules events and cannot perturb timing. With SampleEvery <=
// 0 it does nothing.
func (o *Obs) MaybeSample(cycle int64) {
	if o == nil || o.SampleEvery <= 0 {
		return
	}
	if cycle < o.next {
		return
	}
	o.Metrics.Snapshot(cycle)
	// Skip boundaries the clock jumped over: one snapshot per advance.
	o.next = (cycle/o.SampleEvery + 1) * o.SampleEvery
}

// Sample forces a snapshot at the given cycle (machines call this once at
// end of run so even SampleEvery==0 yields a final snapshot).
func (o *Obs) Sample(cycle int64) {
	if o == nil {
		return
	}
	o.Metrics.Snapshot(cycle)
}

// Collection aggregates per-job Obs instances for a multi-simulation run
// (an evaluation's hundreds of jobs). Jobs register concurrently; all
// output is ordered by (label, arrival within label), and identical runs
// produce identical bytes because identical simulations produce identical
// registries and traces.
type Collection struct {
	// SampleEvery seeds every new Obs's snapshot interval.
	SampleEvery int64
	// TraceCap bounds each job's tracer (0 = DefaultTraceCap).
	TraceCap int

	mu   sync.Mutex
	jobs []*Obs
}

// NewCollection returns an empty collection.
func NewCollection() *Collection { return &Collection{} }

// New creates, registers and returns the Obs for one job. Safe on a nil
// collection (returns nil, i.e. disabled instrumentation).
func (c *Collection) New(label string) *Obs {
	if c == nil {
		return nil
	}
	o := &Obs{
		Label:       label,
		Metrics:     NewRegistry(),
		Trace:       NewTracerCap(c.TraceCap),
		SampleEvery: c.SampleEvery,
	}
	// Truncation must never be silent: the cap's overflow count rides
	// along in the job's own metrics.
	o.Metrics.Gauge("obs.trace_dropped", func() float64 { return float64(o.Trace.Dropped()) })
	c.mu.Lock()
	c.jobs = append(c.jobs, o)
	c.mu.Unlock()
	return o
}

// Len returns the number of registered jobs.
func (c *Collection) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.jobs)
}

// sorted returns the jobs ordered by label (stable, so same-label jobs keep
// arrival order — their contents are identical for deterministic sims).
func (c *Collection) sorted() []*Obs {
	c.mu.Lock()
	jobs := append([]*Obs(nil), c.jobs...)
	c.mu.Unlock()
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].Label < jobs[j].Label })
	return jobs
}

// JobMetrics pairs a job label with its registry dump — one element of
// the metrics artifact WriteMetricsJSON produces.
type JobMetrics struct {
	Label   string       `json:"label"`
	Metrics RegistryDump `json:"metrics"`
}

// MetricsDump is the whole metrics artifact: every job's dump, ordered by
// label. ReadMetricsJSON loads it back for offline tools (beaconprof).
type MetricsDump struct {
	Jobs []JobMetrics `json:"jobs"`
}

// Dump captures every job's metrics, ordered by label. Safe on nil.
func (c *Collection) Dump() MetricsDump {
	d := MetricsDump{Jobs: []JobMetrics{}}
	if c != nil {
		for _, o := range c.sorted() {
			d.Jobs = append(d.Jobs, JobMetrics{Label: o.Label, Metrics: o.Metrics.Dump()})
		}
	}
	return d
}

// WriteMetricsJSON serializes every job's metrics, ordered by label.
func (c *Collection) WriteMetricsJSON(w io.Writer) error {
	return writeJSONIndent(w, c.Dump())
}

// WriteMetricsCSV serializes every job's snapshot series as
// label,cycle,metric,value rows.
func (c *Collection) WriteMetricsCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "label,cycle,metric,value\n"); err != nil {
		return err
	}
	if c == nil {
		return nil
	}
	for _, o := range c.sorted() {
		var b strings.Builder
		if err := o.Metrics.WriteCSV(&b); err != nil {
			return err
		}
		rows := strings.Split(b.String(), "\n")
		for _, row := range rows[1:] { // drop the per-registry header
			if row == "" {
				continue
			}
			if _, err := io.WriteString(w, o.Label+","+row+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteChromeTrace merges every job's timeline into one Chrome trace: each
// job becomes a process (pid = label-sorted index + 1) named by its label,
// with the job's tracks as threads.
func (c *Collection) WriteChromeTrace(w io.Writer) error {
	cw := newChromeWriter(w)
	if c != nil {
		for i, o := range c.sorted() {
			pid := i + 1
			cw.meta("process_name", pid, 0, o.Label)
			cw.tracer(o.Trace, pid)
		}
	}
	return cw.close()
}
