package obs

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"strconv"
	"sync"
)

// Track identifies one horizontal timeline row in the trace viewer (one
// component: a DIMM, a link direction, an NDP module). The zero Track is
// valid and maps to tid 0.
type Track int

// traceEvent is one timeline entry as the encoder takes it and the decoder
// returns it; the tracer stores it only encoded (see appendEvent). The span
// name is an index into the tracer's intern table. Times are simulated DRAM
// bus cycles (1.25 ns each); the exporter keeps them as integer ts values
// so golden outputs are exact.
type traceEvent struct {
	start    int64
	dur      int64 // spans only
	track    int32
	name     uint16 // index into Tracer.names
	complete bool   // a span (phase X); otherwise an instant (phase i)
}

const (
	// chunkBytes is the size of one storage chunk, an 8 KB size class:
	// about 2,000 events at the producers' typical 4 B per event.
	chunkBytes = 8 << 10
	// maxEventBytes is the most one encoded event takes: a 17-bit header
	// (3 bytes), a 32-bit track (5), a 64-bit start delta (10) and a
	// non-negative 64-bit duration (9). A chunk with less room left than
	// this takes no more events, so no event straddles two chunks.
	maxEventBytes = 3 + 5 + 10 + 9
	// scanNames is how many interned names a lookup compares in order
	// before it consults the map. The producers use fewer distinct names
	// than this, all constants, so their lookups never hash a string.
	scanNames = 16
	// maxNames bounds the intern table to what traceEvent.name indexes.
	maxNames = 1 << 16
)

// appendEvent appends ev's encoding to b: uvarints of the header
// name<<1|complete and of the track's 32 bits, the zigzag uvarint of the
// start's delta from base (wrapping, so any two starts encode), and for a
// span the duration's uvarint. Recorded events are mostly a few cycles
// apart on fewer than 128 tracks with fewer than 64 names, so every field
// usually takes one byte, and that case skips the varint loops.
func appendEvent(b []byte, ev traceEvent, base int64) []byte {
	hdr := uint64(ev.name) << 1
	var dur uint64
	if ev.complete {
		hdr |= 1
		dur = uint64(ev.dur)
	}
	track := uint64(uint32(ev.track))
	d := ev.start - base
	delta := uint64(d<<1) ^ uint64(d>>63)
	if hdr|track|delta|dur < 0x80 {
		if ev.complete {
			return append(b, byte(hdr), byte(track), byte(delta), byte(dur))
		}
		return append(b, byte(hdr), byte(track), byte(delta))
	}
	b = binary.AppendUvarint(b, hdr)
	b = binary.AppendUvarint(b, track)
	b = binary.AppendUvarint(b, delta)
	if ev.complete {
		b = binary.AppendUvarint(b, dur)
	}
	return b
}

// decode overwrites ev with the event at the head of b, which appendEvent
// wrote with ev's start as its base, and returns the bytes after it. Like
// the encoder, it reads one-byte header, track and delta fields without the
// varint loop.
func (ev *traceEvent) decode(b []byte) []byte {
	var hdr, track, d uint64
	if len(b) >= 3 && b[0]|b[1]|b[2] < 0x80 {
		hdr, track, d, b = uint64(b[0]), uint64(b[1]), uint64(b[2]), b[3:]
	} else {
		hdr, b = uvarint(b)
		track, b = uvarint(b)
		d, b = uvarint(b)
	}
	ev.start += int64(d>>1) ^ -int64(d&1)
	ev.track = int32(uint32(track))
	ev.name = uint16(hdr >> 1)
	ev.complete = hdr&1 == 1
	ev.dur = 0
	if ev.complete {
		var dur uint64
		dur, b = uvarint(b)
		ev.dur = int64(dur)
	}
	return b
}

// uvarint decodes the uvarint at the head of b, which the tracer wrote;
// unlike binary.Uvarint, it inlines.
func uvarint(b []byte) (uint64, []byte) {
	var x uint64
	for i, c := range b {
		if c < 0x80 {
			return x | uint64(c)<<(7*i), b[i+1:]
		}
		x |= uint64(c&0x7f) << (7 * i)
	}
	return x, nil
}

// Tracer records component activity spans in simulated time and exports
// them as Chrome trace_event JSON loadable in Perfetto or chrome://tracing.
// All methods are safe on a nil Tracer (one branch, no recording) and safe
// for concurrent use. Recording stops at Cap events; the overflow is
// counted in Dropped rather than silently growing memory. Events are
// stored encoded in byte chunks of at most chunkBytes, each allocated once
// at its final capacity, so recording never copies an earlier event.
type Tracer struct {
	mu     sync.Mutex
	tracks []string
	byName map[string]Track
	// names interns span names in first-use order; nameIdx indexes the
	// names past the first scanNames (nil until there are that many).
	names   []string
	nameIdx map[string]uint16
	// chunks hold the encoded events in recording order. Each chunk
	// decodes on its own: its first event's start is a delta from 0.
	chunks [][]byte
	// base is the start of the last chunk's last event, the delta base of
	// the next event recorded into it.
	base int64
	n    int // recorded events
	// cap bounds n; <=0 means DefaultTraceCap.
	cap     int
	dropped uint64
}

// DefaultTraceCap bounds a tracer's event memory unless overridden with
// NewTracerCap. The simulator's producers take about 4 B per event, so
// about 4 MB; no event takes more than maxEventBytes (27 B, so 27 MB).
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
func (t *Tracer) record(track Track, name string, complete bool, start, dur int64) {
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
	if last < 0 || cap(t.chunks[last])-len(t.chunks[last]) < maxEventBytes {
		size := chunkBytes
		if left := t.cap - t.n; left < chunkBytes/maxEventBytes {
			size = left * maxEventBytes
		}
		t.chunks = append(t.chunks, make([]byte, 0, size))
		last++
		t.base = 0
	}
	t.chunks[last] = appendEvent(t.chunks[last], traceEvent{
		start: start, dur: dur, track: int32(track), name: id, complete: complete,
	}, t.base)
	t.base = start
	t.n++
}

// Span records an activity interval [start, end) on a track. Zero-length
// spans are recorded with dur 0 (the viewer renders them as slivers).
func (t *Tracer) Span(track Track, name string, start, end int64) {
	if t == nil {
		return
	}
	t.record(track, name, true, start, max(end-start, 0))
}

// Instant records a point event on a track.
func (t *Tracer) Instant(track Track, name string, at int64) {
	if t == nil {
		return
	}
	t.record(track, name, false, at, 0)
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

// Bytes returns the size of the recorded events' encoding.
func (t *Tracer) Bytes() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, c := range t.chunks {
		n += len(c)
	}
	return n
}

// snapshot returns the tracer's tracks, interned names and event chunks as
// they stand. Recording only ever appends, so the returned slices stay
// valid while recording goes on; the chunk list is copied because the
// last chunk's header grows in place. A nil tracer has none.
func (t *Tracer) snapshot() (tracks, names []string, chunks [][]byte) {
	if t == nil {
		return nil, nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tracks, t.names, append([][]byte(nil), t.chunks...)
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
		var ev traceEvent // the delta base is 0 at each chunk's start
		for len(chunk) > 0 {
			chunk = ev.decode(chunk)
			cw.open(encoded[ev.name])
			if ev.complete {
				cw.buf = append(cw.buf, `,"ph":"X","ts":`...)
				cw.buf = strconv.AppendInt(cw.buf, ev.start, 10)
				cw.buf = append(cw.buf, `,"dur":`...)
				cw.buf = strconv.AppendInt(cw.buf, ev.dur, 10)
			} else {
				cw.buf = append(cw.buf, `,"ph":"i","ts":`...)
				cw.buf = strconv.AppendInt(cw.buf, ev.start, 10)
			}
			cw.buf = append(cw.buf, `,"pid":`...)
			cw.buf = strconv.AppendInt(cw.buf, int64(pid), 10)
			cw.buf = append(cw.buf, `,"tid":`...)
			cw.buf = strconv.AppendInt(cw.buf, int64(ev.track), 10)
			if !ev.complete {
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
