package obs

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Track("x") != 0 {
		t.Fatal("nil tracer must return track 0")
	}
	tr.Span(0, "s", 1, 2)
	tr.Instant(0, "i", 1)
	if tr.Events() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer must record nothing")
	}
}

func TestTracerTrackRegistrationOrder(t *testing.T) {
	tr := NewTracer()
	a := tr.Track("alpha")
	b := tr.Track("beta")
	if a != 0 || b != 1 {
		t.Fatalf("tracks = %d,%d, want 0,1", a, b)
	}
	if tr.Track("alpha") != a {
		t.Fatal("re-registration must return the same track")
	}
}

func TestTracerCapAndDropped(t *testing.T) {
	tr := NewTracerCap(3)
	tk := tr.Track("t")
	for i := int64(0); i < 5; i++ {
		tr.Span(tk, "s", i, i+1)
	}
	if tr.Events() != 3 {
		t.Fatalf("events = %d, want 3", tr.Events())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
}

func TestTracerNegativeSpanClamped(t *testing.T) {
	tr := NewTracer()
	tk := tr.Track("t")
	tr.Span(tk, "s", 10, 5)
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"dur":0`) {
		t.Fatalf("negative span must clamp to dur 0:\n%s", b.String())
	}
}

// TestChromeTraceGolden pins the exact serialized bytes of a small trace.
// The export format is a contract: integer cycle timestamps, fixed field
// order, metadata-then-events ordering. Any byte change here is a
// compatibility break for saved traces and golden tests downstream.
func TestChromeTraceGolden(t *testing.T) {
	tr := NewTracer()
	bus := tr.Track("bus")
	pes := tr.Track("pes")
	tr.Span(bus, "xfer", 0, 64)
	tr.Instant(pes, "task-done", 100)

	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	const want = `{"traceEvents":[` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"bus"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"pes"}},` +
		`{"name":"xfer","ph":"X","ts":0,"dur":64,"pid":1,"tid":0},` +
		`{"name":"task-done","ph":"i","ts":100,"pid":1,"tid":1,"s":"t"}],` +
		`"displayTimeUnit":"ns",` +
		`"otherData":{"time_unit":"DRAM bus cycles (1 cycle = 1.25 ns)"}}` + "\n"
	if b.String() != want {
		t.Fatalf("golden mismatch:\ngot:  %s\nwant: %s", b.String(), want)
	}
	if !json.Valid([]byte(b.String())) {
		t.Fatal("trace is not valid JSON")
	}
}

// TestCollectionChromeTrace checks the multi-job merge: jobs become
// label-sorted processes with process_name metadata.
func TestCollectionChromeTrace(t *testing.T) {
	col := NewCollection()
	// Register out of label order; output must sort.
	zb := col.New("z-job")
	ab := col.New("a-job")
	zb.Tracer().Span(zb.Tracer().Track("t"), "s", 0, 1)
	ab.Tracer().Span(ab.Tracer().Track("t"), "s", 2, 3)

	var b strings.Builder
	if err := col.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !json.Valid([]byte(out)) {
		t.Fatal("merged trace is not valid JSON")
	}
	ai := strings.Index(out, `"a-job"`)
	zi := strings.Index(out, `"z-job"`)
	if ai < 0 || zi < 0 || ai > zi {
		t.Fatalf("processes must be label-sorted (a at %d, z at %d):\n%s", ai, zi, out)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed.TraceEvents) != 2*3 {
		t.Fatalf("events = %d, want 6 (2 jobs x process_name+thread_name+span)", len(parsed.TraceEvents))
	}
}

func TestNilCollection(t *testing.T) {
	var col *Collection
	if ob := col.New("x"); ob != nil {
		t.Fatal("nil collection must return nil Obs")
	}
	if col.Len() != 0 {
		t.Fatal("nil collection length must be 0")
	}
	var b strings.Builder
	if err := col.WriteMetricsJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(b.String())) {
		t.Fatal("nil collection metrics must still be valid JSON")
	}
	b.Reset()
	if err := col.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(b.String())) {
		t.Fatal("nil collection trace must still be valid JSON")
	}
}

// TestTraceEventWorstCase pins the most bytes one event can take, the room
// a chunk keeps free for its next event: spans with the largest header,
// track, start delta and duration encode to exactly maxEventBytes and
// decode back.
func TestTraceEventWorstCase(t *testing.T) {
	for _, c := range []struct {
		ev   traceEvent
		base int64
	}{
		{traceEvent{start: math.MaxInt64, dur: math.MaxInt64, track: -1, name: maxNames - 1, complete: true}, 0},
		{traceEvent{start: math.MinInt64, dur: math.MaxInt64, track: math.MinInt32, name: maxNames - 1, complete: true}, 0},
		{traceEvent{start: -1, dur: math.MaxInt64, track: -1, name: maxNames - 1, complete: true}, math.MaxInt64},
	} {
		b := appendEvent(nil, c.ev, c.base)
		if len(b) != maxEventBytes {
			t.Errorf("%+v from base %d encodes to %d bytes, want maxEventBytes = %d", c.ev, c.base, len(b), maxEventBytes)
		}
		ev := traceEvent{start: c.base}
		if rest := ev.decode(b); ev != c.ev || len(rest) != 0 {
			t.Errorf("%+v from base %d decodes to %+v with %d bytes left", c.ev, c.base, ev, len(rest))
		}
	}
}

// The reference shapes of the export: what encoding/json makes of a
// chromeTrace is what the streaming writer must produce, byte for byte.
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
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData"`
}

// referenceTrace encodes events by reflection, as the exporter once did.
func referenceTrace(t *testing.T, events []chromeEvent) string {
	t.Helper()
	if events == nil {
		events = []chromeEvent{}
	}
	var b strings.Builder
	if err := json.NewEncoder(&b).Encode(chromeTrace{
		TraceEvents:     events,
		DisplayTimeUnit: "ns",
		OtherData:       map[string]string{"time_unit": "DRAM bus cycles (1 cycle = 1.25 ns)"},
	}); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// threadNames is the thread_name metadata a tracer with these tracks
// exports for process pid.
func threadNames(pid int, tracks []string) []chromeEvent {
	var out []chromeEvent
	for tid, name := range tracks {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: &chromeArgs{Name: name},
		})
	}
	return out
}

// straightTrace renders what a tracer holding exactly the given events in
// one list exports: the reference the chunked storage must match.
func straightTrace(t *testing.T, tracks []string, events []chromeEvent) string {
	t.Helper()
	return referenceTrace(t, append(threadNames(1, tracks), events...))
}

// TestChromeExportMatchesEncodingJSON streams names and labels that
// encoding/json escapes — HTML characters, quotes, control characters,
// line separators, invalid UTF-8 and empty strings — through a tracer and
// a collection, and compares both with the reflection encoding.
func TestChromeExportMatchesEncodingJSON(t *testing.T) {
	odd := []string{"<b>&amp;</b>", `q"uo\te`, "tab\tnl\n\x01", "sep\u2028\u2029", "bad\xff\xfeutf8", "", "ünï"}
	col := NewCollection()
	for i, label := range []string{odd[0], "", odd[4]} {
		ob := col.New(label)
		tr := ob.Tracer()
		var evs []chromeEvent
		for j, name := range odd {
			tk := tr.Track(odd[(i+j)%len(odd)] + fmt.Sprint(j))
			if j%2 == 0 {
				tr.Span(tk, name, int64(j), int64(3*j))
				dur := int64(2 * j)
				evs = append(evs, chromeEvent{Name: name, Ph: "X", Ts: int64(j), Dur: &dur, Tid: int(tk)})
			} else {
				tr.Instant(tk, name, int64(-j))
				evs = append(evs, chromeEvent{Name: name, Ph: "i", Ts: int64(-j), Tid: int(tk), S: "t"})
			}
		}
		var single strings.Builder
		if err := tr.WriteChromeTrace(&single); err != nil {
			t.Fatal(err)
		}
		tracks, _, _ := tr.snapshot()
		for k := range evs {
			evs[k].Pid = 1
		}
		if got := single.String(); got != straightTrace(t, tracks, evs) {
			t.Errorf("tracer %q: streamed export differs from encoding/json:\n%s", label, got)
		}
	}
	var got strings.Builder
	if err := col.WriteChromeTrace(&got); err != nil {
		t.Fatal(err)
	}
	var want []chromeEvent
	for i, o := range col.sorted() {
		pid := i + 1
		want = append(want, chromeEvent{Name: "process_name", Ph: "M", Pid: pid, Args: &chromeArgs{Name: o.Label}})
		tracks, names, chunks := o.Trace.snapshot()
		want = append(want, threadNames(pid, tracks)...)
		for _, chunk := range chunks {
			var ev traceEvent
			for len(chunk) > 0 {
				chunk = ev.decode(chunk)
				ce := chromeEvent{Name: names[ev.name], Ph: "i", Ts: ev.start, Pid: pid, Tid: int(ev.track), S: "t"}
				if ev.complete {
					dur := ev.dur
					ce.Ph, ce.Dur, ce.S = "X", &dur, ""
				}
				want = append(want, ce)
			}
		}
	}
	if got.String() != referenceTrace(t, want) {
		t.Errorf("collection: streamed export differs from encoding/json:\n%s", got.String())
	}
}

// TestChromeExportAllocs pins the streaming export: writing a trace of at
// least 50 chunks allocates no more than writing one of 100 events, give or
// take less than one allocation per chunk. The slack absorbs encoding/json's
// encoder pool, which the race detector empties at random; without it the
// two counts are equal.
func TestChromeExportAllocs(t *testing.T) {
	names := []string{"xfer", "compute", "rmw", "read", "write", "task"}
	const chunks = 50
	exportAllocs := func(events int) float64 {
		tr := NewTracerCap(events)
		tracks := []Track{tr.Track("link"), tr.Track("pes"), tr.Track("dimm")}
		for i := range events {
			tr.Span(tracks[i%len(tracks)], names[i%len(names)], int64(i), int64(i+4))
		}
		if _, _, c := tr.snapshot(); events > 100 && len(c) < chunks {
			t.Fatalf("%d events fill %d chunks, want at least %d", events, len(c), chunks)
		}
		return testing.AllocsPerRun(5, func() {
			if err := tr.WriteChromeTrace(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Each span takes 4 bytes: a one-byte header, track, start delta and
	// duration.
	events := chunks * chunkBytes / 4
	small, large := exportAllocs(100), exportAllocs(events)
	if large-small >= chunks {
		t.Errorf("exporting %d events allocates %.0f times, 100 events %.0f: export allocations grow with the trace",
			events, large, small)
	}
}

// TestTracerChunksExportStraight records mixed spans and instants over
// more than two chunks, with starts that move forward, move back and jump
// far, so events fill chunks to their boundaries and deltas take one byte
// and several. It records under a cap that falls mid-chunk and under one
// that is never reached. Both must export the bytes of a straight list of
// the kept events, in order.
func TestTracerChunksExportStraight(t *testing.T) {
	names := []string{"xfer", "compute", "rmw", "read", "write", "task", "dram-ecc"}
	tracks := []string{"bus", "pes", "dimm"}
	perChunk := chunkBytes / 3 // no event takes fewer than 3 bytes
	total := 2*perChunk + perChunk/3
	for _, limit := range []int{perChunk + perChunk/2, total + 1} {
		tr := NewTracerCap(limit)
		var want []chromeEvent
		for i := range total {
			track := tr.Track(tracks[i%len(tracks)])
			name := names[i%len(names)]
			start := int64(3 * i)
			if i%13 == 6 {
				start = -start << 20
			}
			ce := chromeEvent{Name: name, Ts: start, Pid: 1, Tid: int(track)}
			if i%5 == 4 {
				tr.Instant(track, name, start)
				ce.Ph, ce.S = "i", "t"
			} else {
				dur := int64(i % 11)
				tr.Span(track, name, start, start+dur)
				ce.Ph, ce.Dur = "X", &dur
			}
			if len(want) < limit {
				want = append(want, ce)
			}
		}
		if tr.Events() != len(want) || tr.Dropped() != uint64(total-len(want)) {
			t.Fatalf("cap %d: events/dropped = %d/%d, want %d/%d",
				limit, tr.Events(), tr.Dropped(), len(want), total-len(want))
		}
		if _, _, chunks := tr.snapshot(); limit > total && len(chunks) < 3 {
			t.Fatalf("%d events fill %d chunks, want at least 3", total, len(chunks))
		}
		var got strings.Builder
		if err := tr.WriteChromeTrace(&got); err != nil {
			t.Fatal(err)
		}
		if got.String() != straightTrace(t, tracks, want) {
			t.Errorf("cap %d: chunked export differs from the straight list", limit)
		}
	}
}

// TestTracerInternTable covers names past the scanned prefix (found by
// map) and a full table, whose new names are dropped and counted.
func TestTracerInternTable(t *testing.T) {
	tr := NewTracer()
	tk := tr.Track("t")
	var want []chromeEvent
	for i := range 2 * scanNames {
		for _, name := range []string{fmt.Sprint("n", i), "n0"} {
			tr.Instant(tk, name, int64(i))
			want = append(want, chromeEvent{Name: name, Ph: "i", Ts: int64(i), Pid: 1, S: "t"})
		}
	}
	var got strings.Builder
	if err := tr.WriteChromeTrace(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != straightTrace(t, []string{"t"}, want) {
		t.Error("interned names do not export as recorded")
	}

	full := NewTracer()
	for i := range maxNames {
		full.Instant(0, fmt.Sprint(i), 0)
	}
	full.Instant(0, "one too many", 0)
	full.Instant(0, "0", 0)
	if full.Events() != maxNames+1 || full.Dropped() != 1 {
		t.Errorf("full intern table: events/dropped = %d/%d, want %d/1",
			full.Events(), full.Dropped(), maxNames+1)
	}
}

// TestTracerConcurrentRecording records from several goroutines at once,
// with more names than the scanned prefix and a cap that falls partway:
// every event is either kept or counted as dropped. Another goroutine
// exports meanwhile, and each export must be valid JSON.
func TestTracerConcurrentRecording(t *testing.T) {
	const workers, each, limit = 4, 3000, 7000
	tr := NewTracerCap(limit)
	recorded := make(chan struct{})
	exported := make(chan struct{})
	go func() {
		defer close(exported)
		for {
			var b strings.Builder
			if err := tr.WriteChromeTrace(&b); err != nil || !json.Valid([]byte(b.String())) {
				t.Errorf("export during recording: err %v, valid JSON %v", err, json.Valid([]byte(b.String())))
				return
			}
			select {
			case <-recorded:
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk := tr.Track(fmt.Sprint("w", w))
			for i := range each {
				tr.Span(tk, fmt.Sprint("s", i%(2*scanNames)), int64(i), int64(i+1))
			}
		}()
	}
	wg.Wait()
	close(recorded)
	<-exported
	if tr.Events() != limit || tr.Dropped() != workers*each-limit {
		t.Errorf("events/dropped = %d/%d, want %d/%d", tr.Events(), tr.Dropped(), limit, workers*each-limit)
	}
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(b.String())) {
		t.Error("trace is not valid JSON")
	}
}

// fuzzNames are the span names FuzzTracerRoundTrip draws from: more than
// scanNames, so lookups take both intern paths, and some that encoding/json
// escapes.
var fuzzNames = []string{
	"xfer", "compute", "rmw", "read", "write", "task", "dram-ecc", "link-crc",
	"a", "b", "c", "d", "e", "f", "g", "h", "i", "<&>", `q"t`, "bad\xff",
}

// fuzzRecord is the size of one event in FuzzTracerRoundTrip's data.
const fuzzRecord = 21

// FuzzTracerRoundTrip records arbitrary events under an arbitrary cap and
// checks that the export equals the export of a straight list of the kept
// events. Each fuzzRecord bytes of data are one event: a flag byte (bit 0
// an instant, the rest a name index), then a 32-bit track and a 64-bit
// start and end, little-endian, so deltas of any size and sign come up. The
// first 64 records replay 1+repeat times, so a short input crosses chunk
// boundaries; a nonzero limit is the cap, which may fall partway.
func FuzzTracerRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, limit uint16, repeat uint8, data []byte) {
		data = data[:min(len(data), 64*fuzzRecord)]
		tr := NewTracerCap(int(limit))
		keep := int(limit)
		if keep == 0 {
			keep = DefaultTraceCap
		}
		tracks := []string{"bus", "pes"}
		for _, name := range tracks {
			tr.Track(name)
		}
		var want []chromeEvent
		total := 0
		for range int(repeat) + 1 {
			for r := data; len(r) >= fuzzRecord; r = r[fuzzRecord:] {
				name := fuzzNames[int(r[0]>>1)%len(fuzzNames)]
				track := Track(int32(binary.LittleEndian.Uint32(r[1:])))
				start := int64(binary.LittleEndian.Uint64(r[5:]))
				end := int64(binary.LittleEndian.Uint64(r[13:]))
				ce := chromeEvent{Name: name, Ts: start, Pid: 1, Tid: int(track)}
				if r[0]&1 == 1 {
					tr.Instant(track, name, start)
					ce.Ph, ce.S = "i", "t"
				} else {
					tr.Span(track, name, start, end)
					dur := max(end-start, 0)
					ce.Ph, ce.Dur = "X", &dur
				}
				total++
				if len(want) < keep {
					want = append(want, ce)
				}
			}
		}
		if tr.Events() != len(want) || tr.Dropped() != uint64(total-len(want)) {
			t.Fatalf("events/dropped = %d/%d, want %d/%d", tr.Events(), tr.Dropped(), len(want), total-len(want))
		}
		var got strings.Builder
		if err := tr.WriteChromeTrace(&got); err != nil {
			t.Fatal(err)
		}
		if got.String() != straightTrace(t, tracks, want) {
			t.Errorf("export of %d kept events differs from the straight list", len(want))
		}
	})
}

// TestTracerSpanAllocs pins the steady state: half a chunk's worth of
// spans allocates at most one chunk and nothing per event.
func TestTracerSpanAllocs(t *testing.T) {
	tr := NewTracer()
	bus, dimm := tr.Track("bus"), tr.Track("dimm")
	var at int64
	// Each span takes 4 bytes, so a run fills half a chunk.
	const pairs = chunkBytes / 16
	allocs := testing.AllocsPerRun(50, func() {
		for range pairs {
			tr.Span(bus, "xfer", at, at+4)
			tr.Span(dimm, "read", at, at+9)
			at++
		}
	})
	if allocs > 1 {
		t.Errorf("%d spans allocate %.0f times, want at most one chunk", 2*pairs, allocs)
	}
}

// BenchmarkTracerSpan measures the cost of recording one span, cycling
// through the producers' span names and a few tracks as a machine does,
// and reports the bytes each span's encoding takes. A fresh tracer takes
// over every perTracer spans, so memory stays bounded at any b.N.
func BenchmarkTracerSpan(b *testing.B) {
	const perTracer = 64 << 10
	names := []string{"xfer", "compute", "rmw", "read", "write", "task"}
	var tr *Tracer
	var tracks []Track
	encoded := 0
	b.ReportAllocs()
	for i := range b.N {
		if i%perTracer == 0 {
			encoded += tr.Bytes()
			tr = NewTracerCap(perTracer)
			tracks = []Track{tr.Track("link"), tr.Track("pes"), tr.Track("atomics"), tr.Track("dimm")}
		}
		at := int64(i)
		tr.Span(tracks[i%len(tracks)], names[i%len(names)], at, at+8)
	}
	b.ReportMetric(float64(encoded+tr.Bytes())/float64(b.N), "B/event")
}
