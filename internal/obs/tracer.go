package obs

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"unsafe"
)

// Track identifies one horizontal timeline row in the trace viewer (one
// component: a DIMM, a link direction, an NDP module). The zero Track is
// valid and maps to tid 0.
type Track int

// Event phases, mirroring Chrome trace_event phases.
const (
	phComplete byte = 'X' // span with duration
	phInstant  byte = 'i' // point event
)

// traceEvent is one recorded timeline entry. It holds no pointers, so the
// chunks that store events are never scanned by the garbage collector: the
// span name is an index into the tracer's intern table and the phase is a
// byte. Times are simulated DRAM bus cycles (1.25 ns each); the exporter
// keeps them as integer ts values so golden outputs are exact.
type traceEvent struct {
	start int64
	dur   int64
	track int32
	name  uint16 // index into Tracer.names
	ph    byte
}

const (
	// chunkEvents is how many events one storage chunk holds: as many as
	// fit in 32 KB, so a chunk is a small, size-classed allocation.
	chunkEvents = 32 << 10 / int(unsafe.Sizeof(traceEvent{}))
	// scanNames is how many interned names a lookup compares in order
	// before it consults the map. The producers use fewer distinct names
	// than this, all constants, so their lookups never hash a string.
	scanNames = 16
	// maxNames bounds the intern table to what traceEvent.name indexes.
	maxNames = 1 << 16
)

// Tracer records component activity spans in simulated time and exports
// them as Chrome trace_event JSON loadable in Perfetto or chrome://tracing.
// All methods are safe on a nil Tracer (one branch, no recording) and safe
// for concurrent use. Recording stops at Cap events; the overflow is
// counted in Dropped rather than silently growing memory. Events are
// stored in chunks of at most chunkEvents, each allocated once at its
// final capacity, so recording never copies an earlier event.
type Tracer struct {
	mu     sync.Mutex
	tracks []string
	byName map[string]Track
	// names interns span names in first-use order; nameIdx indexes the
	// names past the first scanNames (nil until there are that many).
	names   []string
	nameIdx map[string]uint16
	// chunks hold the events in recording order; every chunk but the last
	// is full.
	chunks [][]traceEvent
	n      int // recorded events, the sum of the chunks' lengths
	// cap bounds n; <=0 means DefaultTraceCap.
	cap     int
	dropped uint64
}

// DefaultTraceCap bounds a tracer's event memory (24 B/event, so 24 MB)
// unless overridden with NewTracerCap.
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

// intern returns name's index in the intern table, adding it on first use.
// It reports false when the table is full; the caller drops the event.
func (t *Tracer) intern(name string) (uint16, bool) {
	for i, s := range t.names[:min(len(t.names), scanNames)] {
		if s == name {
			return uint16(i), true
		}
	}
	if i, ok := t.nameIdx[name]; ok {
		return i, true
	}
	if len(t.names) == maxNames {
		return 0, false
	}
	i := uint16(len(t.names))
	t.names = append(t.names, name)
	if len(t.names) > scanNames {
		if t.nameIdx == nil {
			t.nameIdx = map[string]uint16{}
		}
		t.nameIdx[name] = i
	}
	return i, true
}

// record appends one event, honoring the cap. An event whose name would
// overflow the intern table is dropped too.
func (t *Tracer) record(track Track, name string, ph byte, start, dur int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n >= t.cap {
		t.dropped++
		return
	}
	id, ok := t.intern(name)
	if !ok {
		t.dropped++
		return
	}
	last := len(t.chunks) - 1
	if last < 0 || len(t.chunks[last]) == cap(t.chunks[last]) {
		t.chunks = append(t.chunks, make([]traceEvent, 0, min(chunkEvents, t.cap-t.n)))
		last++
	}
	t.chunks[last] = append(t.chunks[last], traceEvent{
		start: start, dur: dur, track: int32(track), name: id, ph: ph,
	})
	t.n++
}

// Span records an activity interval [start, end) on a track. Zero-length
// spans are recorded with dur 0 (the viewer renders them as slivers).
func (t *Tracer) Span(track Track, name string, start, end int64) {
	if t == nil {
		return
	}
	t.record(track, name, phComplete, start, max(end-start, 0))
}

// Instant records a point event on a track.
func (t *Tracer) Instant(track Track, name string, at int64) {
	if t == nil {
		return
	}
	t.record(track, name, phInstant, at, 0)
}

// Events returns the number of recorded events.
func (t *Tracer) Events() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Dropped returns how many events the cap (or a full name table) discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// snapshot returns the tracer's tracks, interned names and event chunks as
// they stand. Recording only ever appends, so the returned slices stay
// valid while recording goes on; the chunk list is copied because the
// last chunk's header grows in place. A nil tracer has none.
func (t *Tracer) snapshot() (tracks, names []string, chunks [][]traceEvent) {
	if t == nil {
		return nil, nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tracks, t.names, append([][]traceEvent(nil), t.chunks...)
}

// WriteChromeTrace serializes the trace as Chrome trace_event JSON. Open
// the file in https://ui.perfetto.dev or chrome://tracing; timestamps are
// simulated DRAM bus cycles (1 cycle = 1.25 ns).
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	cw := newChromeWriter(w)
	cw.tracer(t, 1)
	return cw.close()
}

// chromeFlushAt is the buffered output size at which chromeWriter hands
// its bytes to the destination writer.
const chromeFlushAt = 32 << 10

// chromeWriter streams Chrome trace_event JSON: each event's object is
// appended to one reused buffer straight from the tracer's chunks, so an
// export allocates the same whatever the event count. The bytes match
// what encoding/json makes of the trace object
//
//	{"traceEvents":[...],"displayTimeUnit":"ns","otherData":{"time_unit":...}}
//
// with fields in the order name, ph, ts, dur, pid, tid, s, args; strings
// are encoded by encoding/json itself, so HTML escaping matches too. A
// write error sticks and is returned by close.
type chromeWriter struct {
	w      io.Writer
	buf    []byte
	events int // events written so far
	err    error
}

func newChromeWriter(w io.Writer) *chromeWriter {
	cw := &chromeWriter{w: w, buf: make([]byte, 0, chromeFlushAt+1024)}
	cw.buf = append(cw.buf, `{"traceEvents":[`...)
	return cw
}

// jsonString returns s as a JSON string literal, as encoding/json writes it.
func jsonString(s string) []byte {
	b, _ := json.Marshal(s) // a string always encodes
	return b
}

// open starts an event object whose "name" is the encoded literal name.
func (cw *chromeWriter) open(name []byte) {
	if cw.events > 0 {
		cw.buf = append(cw.buf, ',')
	}
	cw.events++
	cw.buf = append(cw.buf, `{"name":`...)
	cw.buf = append(cw.buf, name...)
}

// end closes an event object and flushes a full buffer.
func (cw *chromeWriter) end() {
	cw.buf = append(cw.buf, '}')
	if len(cw.buf) >= chromeFlushAt {
		cw.flush()
	}
}

func (cw *chromeWriter) flush() {
	if cw.err == nil {
		_, cw.err = cw.w.Write(cw.buf)
	}
	cw.buf = cw.buf[:0]
}

// meta writes one metadata event (thread_name, process_name) labelling a
// thread or process; an empty label encodes as empty args, as omitempty
// would.
func (cw *chromeWriter) meta(kind string, pid, tid int, label string) {
	cw.open(jsonString(kind))
	cw.buf = append(cw.buf, `,"ph":"M","ts":0,"pid":`...)
	cw.buf = strconv.AppendInt(cw.buf, int64(pid), 10)
	cw.buf = append(cw.buf, `,"tid":`...)
	cw.buf = strconv.AppendInt(cw.buf, int64(tid), 10)
	cw.buf = append(cw.buf, `,"args":{`...)
	if label != "" {
		cw.buf = append(cw.buf, `"name":`...)
		cw.buf = append(cw.buf, jsonString(label)...)
	}
	cw.buf = append(cw.buf, '}')
	cw.end()
}

// tracer writes t's events for one process id, preceded by thread_name
// metadata so viewers label each track. Each interned name is encoded
// once.
func (cw *chromeWriter) tracer(t *Tracer, pid int) {
	tracks, names, chunks := t.snapshot()
	for tid, name := range tracks {
		cw.meta("thread_name", pid, tid, name)
	}
	encoded := make([][]byte, len(names))
	for i, name := range names {
		encoded[i] = jsonString(name)
	}
	for _, chunk := range chunks {
		for _, ev := range chunk {
			cw.open(encoded[ev.name])
			cw.buf = append(cw.buf, `,"ph":"`...)
			cw.buf = append(cw.buf, ev.ph, '"')
			cw.buf = append(cw.buf, `,"ts":`...)
			cw.buf = strconv.AppendInt(cw.buf, ev.start, 10)
			if ev.ph == phComplete {
				cw.buf = append(cw.buf, `,"dur":`...)
				cw.buf = strconv.AppendInt(cw.buf, ev.dur, 10)
			}
			cw.buf = append(cw.buf, `,"pid":`...)
			cw.buf = strconv.AppendInt(cw.buf, int64(pid), 10)
			cw.buf = append(cw.buf, `,"tid":`...)
			cw.buf = strconv.AppendInt(cw.buf, int64(ev.track), 10)
			if ev.ph == phInstant {
				cw.buf = append(cw.buf, `,"s":"t"`...) // thread-scoped instant
			}
			cw.end()
		}
	}
}

// close writes the trailer — ts values are simulated DRAM bus cycles
// (1.25 ns each), kept as integers for exact golden comparisons — and
// flushes, returning the first write error.
func (cw *chromeWriter) close() error {
	cw.buf = append(cw.buf, `],"displayTimeUnit":"ns","otherData":{"time_unit":"DRAM bus cycles (1 cycle = 1.25 ns)"}}`+"\n"...)
	cw.flush()
	return cw.err
}
