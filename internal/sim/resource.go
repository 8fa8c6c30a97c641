package sim

import (
	"fmt"

	"beacon/internal/obs"
)

// Resource models a serially reusable hardware unit (a DRAM bank, a link
// direction, a packer pipeline, ...) as a calendar of busy time. A request
// that needs the unit for d cycles at time t is granted the interval
// [max(t, nextFree), max(t, nextFree)+d). The difference between the grant
// start and t is the queueing delay — this is how all contention in the
// simulator arises.
//
// Width > 1 models a unit with several identical parallel servers
// (e.g. a PE pool, independent sub-channels). Each server is its own
// calendar; Acquire always picks the earliest-available server.
type Resource struct {
	name string
	// nextFree holds each server's next free time as a binary min-heap, so
	// the earliest-available server is always nextFree[0]. Servers are
	// identical, so only the multiset of free times matters: which slot a
	// time sits in never changes a grant.
	nextFree []Cycle
	// busy accumulates total granted cycles across servers, for utilization
	// reporting.
	busy Cycles
	// waited accumulates total queueing delay (grant start minus request
	// time) across all grants — the aggregate time requests spent blocked
	// behind this resource, for bottleneck attribution.
	waited Cycles
	// grants counts Acquire calls.
	grants uint64
	// tr, when non-nil, records every grant as a span on trTrack; disabled
	// tracing costs one branch per Acquire.
	tr      *obs.Tracer
	trTrack obs.Track
	trName  string
}

// NewResource creates a resource with the given number of parallel servers.
func NewResource(name string, width int) *Resource {
	if width <= 0 {
		panic(fmt.Sprintf("sim: resource %q width must be positive, got %d", name, width))
	}
	return &Resource{name: name, nextFree: make([]Cycle, width)}
}

// Name returns the diagnostic name of the resource.
func (r *Resource) Name() string { return r.name }

// Instrument attaches a timeline tracer: every subsequent grant is recorded
// as a spanName span on a track named after the resource. Observation-only;
// a nil tracer leaves the resource uninstrumented.
func (r *Resource) Instrument(tr *obs.Tracer, spanName string) {
	if tr == nil {
		return
	}
	r.tr = tr
	r.trTrack = tr.Track(r.name)
	r.trName = spanName
}

// Width returns the number of parallel servers.
func (r *Resource) Width() int { return len(r.nextFree) }

// Acquire reserves the earliest-available server for d cycles starting no
// earlier than now. It returns the start and end of the granted interval.
func (r *Resource) Acquire(now Cycle, d Cycles) (start, end Cycle) {
	if d < 0 {
		panic(fmt.Sprintf("sim: resource %q acquire negative duration %d", r.name, d))
	}
	start = max(now, r.nextFree[0])
	end = start + d
	r.siftDown(end)
	r.busy += d
	r.waited += Cycles(start - now)
	r.grants++
	if r.tr != nil {
		r.tr.Span(r.trTrack, r.trName, int64(start), int64(end))
	}
	return start, end
}

// siftDown replaces the heap root — the server just granted — with its new
// free time t. A grant only ever moves a server's free time later, so the
// root can only sink.
func (r *Resource) siftDown(t Cycle) {
	h := r.nextFree
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[c] >= t {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = t
}

// AvailableAt returns the earliest time any server could start a new grant.
func (r *Resource) AvailableAt() Cycle { return r.nextFree[0] }

// BusyCycles returns the total cycles granted across all servers.
func (r *Resource) BusyCycles() Cycles { return r.busy }

// WaitCycles returns the total queueing delay suffered by all grants — how
// long requests sat blocked behind the resource's calendars. Unlike busy
// cycles it is not bounded by width*horizon: many concurrent waiters
// accumulate wait in parallel.
func (r *Resource) WaitCycles() Cycles { return r.waited }

// Meter returns the resource's cycle account for obs.Obs.Track under
// class: its granted busy cycles and the queueing wait behind it.
func (r *Resource) Meter(class string) obs.Meter {
	return obs.Meter{
		Class: class, Name: r.name, Width: r.Width(),
		Busy: func() int64 { return int64(r.busy) },
		Wait: func() int64 { return int64(r.waited) },
	}
}

// Grants returns the number of Acquire calls served.
func (r *Resource) Grants() uint64 { return r.grants }

// Utilization returns busy cycles divided by (width * horizon). It reports 0
// for a zero horizon.
func (r *Resource) Utilization(horizon Cycle) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(r.busy) / (float64(horizon) * float64(len(r.nextFree)))
}

// Reset clears all calendars and counters.
func (r *Resource) Reset() {
	clear(r.nextFree)
	r.busy = 0
	r.waited = 0
	r.grants = 0
}

// Pipe models a bandwidth-limited, fixed-latency channel such as a CXL link
// direction or a DDR data bus. Occupancy is byte-accurate: a transfer of n
// bytes adds n/BytesPerCycle (fractional) cycles of occupancy, carried
// across transfers, so many small packed messages share link cycles — the
// behaviour a Data Packer's flit merging produces. Delivery happens at
// least one cycle after the transfer begins (its own serialization) plus
// the propagation latency. Pipe is built on lane Resources, so back-to-back
// transfers serialize per lane and experience queueing delay.
type Pipe struct {
	res           *Resource
	bytesPerCycle float64
	latency       Cycles
	bytesMoved    uint64
	frac          float64 // fractional occupancy carried to the next transfer
}

// NewPipe creates a pipe. bytesPerCycle expresses bandwidth in bytes per DRAM
// bus cycle (e.g. a 32 GB/s CXL link at 800 MHz bus clock moves 40 B/cycle).
func NewPipe(name string, bytesPerCycle float64, latency Cycles) *Pipe {
	return NewPipeN(name, bytesPerCycle, latency, 1)
}

// NewPipeN creates a pipe with `width` parallel lanes, each moving
// bytesPerCycle. It models crossbar-like stages (a CXL switch's VCS, a
// multi-lane packer) where several messages progress concurrently: a
// single-lane pipe would impose a false one-message-per-cycle floor on
// stages whose aggregate message rate exceeds one per cycle.
func NewPipeN(name string, bytesPerCycle float64, latency Cycles, width int) *Pipe {
	if bytesPerCycle <= 0 {
		panic(fmt.Sprintf("sim: pipe %q bandwidth must be positive, got %g", name, bytesPerCycle))
	}
	if latency < 0 {
		panic(fmt.Sprintf("sim: pipe %q latency must be non-negative, got %d", name, latency))
	}
	return &Pipe{res: NewResource(name, width), bytesPerCycle: bytesPerCycle, latency: latency}
}

// Name returns the diagnostic name of the pipe.
func (p *Pipe) Name() string { return p.res.Name() }

// Instrument attaches a timeline tracer to the pipe's lane calendar: every
// transfer's occupancy is recorded as a spanName span on the pipe's track.
func (p *Pipe) Instrument(tr *obs.Tracer, spanName string) {
	p.res.Instrument(tr, spanName)
}

// Latency returns the propagation latency of the pipe.
func (p *Pipe) Latency() Cycles { return p.latency }

// BytesPerCycle returns the configured bandwidth.
func (p *Pipe) BytesPerCycle() float64 { return p.bytesPerCycle }

// Transfer schedules n bytes through the pipe at time now and returns the
// delivery time. Every message — including zero-byte header-only ones —
// serializes for at least one cycle behind the lane's backlog, keeping
// delivery order FIFO per lane.
func (p *Pipe) Transfer(now Cycle, n int) (delivered Cycle) {
	if n < 0 {
		panic(fmt.Sprintf("sim: pipe %q negative transfer %d", p.res.Name(), n))
	}
	p.bytesMoved += uint64(n)
	if n > 0 {
		p.frac += float64(n) / p.bytesPerCycle
	}
	occ := Cycles(p.frac)
	p.frac -= float64(occ)
	start, end := p.res.Acquire(now, occ)
	// The message's own serialization takes at least one cycle even when
	// its occupancy share rounded to zero (it rode a shared flit).
	if end < start+1 {
		end = start + 1
	}
	return end + p.latency
}

// BytesMoved returns the cumulative payload bytes pushed through the pipe.
func (p *Pipe) BytesMoved() uint64 { return p.bytesMoved }

// BusyCycles returns total occupancy cycles.
func (p *Pipe) BusyCycles() Cycles { return p.res.BusyCycles() }

// WaitCycles returns the total queueing delay behind the pipe's lanes.
func (p *Pipe) WaitCycles() Cycles { return p.res.WaitCycles() }

// Meter returns the pipe's lane account (see Resource.Meter).
func (p *Pipe) Meter(class string) obs.Meter { return p.res.Meter(class) }

// Width returns the number of parallel lanes.
func (p *Pipe) Width() int { return p.res.Width() }

// Utilization reports occupancy over the horizon.
func (p *Pipe) Utilization(horizon Cycle) float64 { return p.res.Utilization(horizon) }

// Reset clears the pipe's calendar and counters.
func (p *Pipe) Reset() {
	p.res.Reset()
	p.bytesMoved = 0
	p.frac = 0
}
