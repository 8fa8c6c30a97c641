package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Track identifies one horizontal timeline row in the trace viewer (one
// component: a DIMM, a link direction, an NDP module). The zero Track is
// valid and maps to tid 0.
type Track int

// event kinds, mirroring Chrome trace_event phases.
const (
	phComplete = "X" // span with duration
	phInstant  = "i" // point event
)

// traceEvent is one recorded timeline entry. Times are simulated DRAM bus
// cycles (1.25 ns each); the exporter keeps them as integer ts values so
// golden outputs are exact.
type traceEvent struct {
	ph    string
	track Track
	name  string
	start int64
	dur   int64
}

// Tracer records component activity spans in simulated time and exports
// them as Chrome trace_event JSON loadable in Perfetto or chrome://tracing.
// All methods are safe on a nil Tracer (one branch, no recording) and safe
// for concurrent use. Recording stops at Cap events; the overflow is
// counted in Dropped rather than silently growing memory.
type Tracer struct {
	mu     sync.Mutex
	tracks []string
	byName map[string]Track
	events []traceEvent
	// cap bounds len(events); <=0 means DefaultTraceCap.
	cap     int
	dropped uint64
}

// DefaultTraceCap bounds a tracer's event memory (~48 B/event) unless
// overridden with NewTracerCap.
const DefaultTraceCap = 1 << 20

// NewTracer returns a tracer with the default event cap.
func NewTracer() *Tracer { return NewTracerCap(DefaultTraceCap) }

// NewTracerCap returns a tracer that records at most cap events.
func NewTracerCap(cap int) *Tracer {
	if cap <= 0 {
		cap = DefaultTraceCap
	}
	return &Tracer{byName: map[string]Track{}, cap: cap}
}

// Track returns the track registered under name, creating it on first use.
// Track ids are assigned in registration order, so a deterministic
// registration sequence yields a deterministic trace. Returns 0 on nil.
func (t *Tracer) Track(name string) Track {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.byName[name]; ok {
		return id
	}
	id := Track(len(t.tracks))
	t.tracks = append(t.tracks, name)
	t.byName[name] = id
	return id
}

// record appends one event, honoring the cap.
func (t *Tracer) record(ev traceEvent) {
	t.mu.Lock()
	if len(t.events) >= t.cap {
		t.dropped++
	} else {
		t.events = append(t.events, ev)
	}
	t.mu.Unlock()
}

// Span records an activity interval [start, end) on a track. Zero-length
// spans are recorded with dur 0 (the viewer renders them as slivers).
func (t *Tracer) Span(track Track, name string, start, end int64) {
	if t == nil {
		return
	}
	dur := end - start
	if dur < 0 {
		dur = 0
	}
	t.record(traceEvent{ph: phComplete, track: track, name: name, start: start, dur: dur})
}

// Instant records a point event on a track.
func (t *Tracer) Instant(track Track, name string, at int64) {
	if t == nil {
		return
	}
	t.record(traceEvent{ph: phInstant, track: track, name: name, start: at})
}

// Events returns the number of recorded events.
func (t *Tracer) Events() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns how many events the cap discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Chrome trace_event JSON shapes. Field order is fixed by the struct, so
// serialized output is deterministic.
type chromeArgs struct {
	Name string `json:"name,omitempty"`
}

type chromeEvent struct {
	Name string      `json:"name"`
	Ph   string      `json:"ph"`
	Ts   int64       `json:"ts"`
	Dur  *int64      `json:"dur,omitempty"`
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
	S    string      `json:"s,omitempty"`
	Args *chromeArgs `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	// DisplayTimeUnit is advisory; ts values are simulated DRAM bus cycles
	// (1.25 ns each), kept as integers for exact golden comparisons.
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData"`
}

// chromeEvents renders the tracer's events for one process id, preceded by
// thread_name metadata so viewers label each track.
func (t *Tracer) chromeEvents(pid int) []chromeEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]chromeEvent, 0, len(t.tracks)+len(t.events))
	for tid, name := range t.tracks {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: &chromeArgs{Name: name},
		})
	}
	for _, ev := range t.events {
		ce := chromeEvent{Name: ev.name, Ph: ev.ph, Ts: ev.start, Pid: pid, Tid: int(ev.track)}
		switch ev.ph {
		case phComplete:
			dur := ev.dur
			ce.Dur = &dur
		case phInstant:
			ce.S = "t" // thread-scoped instant
		}
		out = append(out, ce)
	}
	return out
}

// WriteChromeTrace serializes the trace as Chrome trace_event JSON. Open
// the file in https://ui.perfetto.dev or chrome://tracing; timestamps are
// simulated DRAM bus cycles (1 cycle = 1.25 ns).
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return writeChromeTrace(w, t.chromeEvents(1))
}

func writeChromeTrace(w io.Writer, events []chromeEvent) error {
	if events == nil {
		events = []chromeEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{
		TraceEvents:     events,
		DisplayTimeUnit: "ns",
		OtherData:       map[string]string{"time_unit": "DRAM bus cycles (1 cycle = 1.25 ns)"},
	})
}
