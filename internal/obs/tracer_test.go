package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"
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

// TestTraceEventLayout pins the stored record: at most 24 bytes and free
// of pointers, so event chunks are never scanned by the garbage collector,
// and a chunk fits a 32 KB size class. It holds on 32-bit platforms too.
func TestTraceEventLayout(t *testing.T) {
	size := unsafe.Sizeof(traceEvent{})
	if size > 24 {
		t.Errorf("traceEvent is %d bytes, want at most 24", size)
	}
	if f, ok := pointerField(reflect.TypeOf(traceEvent{})); ok {
		t.Errorf("traceEvent holds a pointer in %s", f)
	}
	if chunk := uintptr(chunkEvents) * size; chunk > 32<<10 {
		t.Errorf("a chunk of %d events is %d bytes, want at most 32 KB", chunkEvents, chunk)
	}
}

// pointerField names the first field of typ whose memory holds a pointer.
func pointerField(typ reflect.Type) (string, bool) {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return typ.String(), true
	case reflect.Array:
		if typ.Len() > 0 {
			return pointerField(typ.Elem())
		}
	case reflect.Struct:
		for i := range typ.NumField() {
			if f, ok := pointerField(typ.Field(i).Type); ok {
				return typ.Field(i).Name + "." + f, true
			}
		}
	}
	return "", false
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
			for _, ev := range chunk {
				ce := chromeEvent{Name: names[ev.name], Ph: string(ev.ph), Ts: ev.start, Pid: pid, Tid: int(ev.track)}
				if ev.ph == phComplete {
					dur := ev.dur
					ce.Dur = &dur
				} else {
					ce.S = "t"
				}
				want = append(want, ce)
			}
		}
	}
	if got.String() != referenceTrace(t, want) {
		t.Errorf("collection: streamed export differs from encoding/json:\n%s", got.String())
	}
}

// TestChromeExportAllocs pins the streaming export: writing a trace of 50
// chunks allocates no more than writing one of 100 events, give or take
// less than one allocation per chunk. The slack absorbs encoding/json's
// encoder pool, which the race detector empties at random; without it the
// two counts are equal.
func TestChromeExportAllocs(t *testing.T) {
	names := []string{"xfer", "compute", "rmw", "read", "write", "task"}
	exportAllocs := func(events int) float64 {
		tr := NewTracerCap(events)
		tracks := []Track{tr.Track("link"), tr.Track("pes"), tr.Track("dimm")}
		for i := range events {
			tr.Span(tracks[i%len(tracks)], names[i%len(names)], int64(i), int64(i+4))
		}
		return testing.AllocsPerRun(5, func() {
			if err := tr.WriteChromeTrace(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	const chunks = 50
	small, large := exportAllocs(100), exportAllocs(chunks*chunkEvents)
	if large-small >= chunks {
		t.Errorf("exporting %d events allocates %.0f times, 100 events %.0f: export allocations grow with the trace",
			chunks*chunkEvents, large, small)
	}
}

// TestTracerChunksExportStraight records more than two chunks of mixed
// spans and instants, so events straddle chunk boundaries, under a cap
// that falls mid-chunk and under one that is never reached. Both must
// export the bytes of a straight list of the kept events, in order.
func TestTracerChunksExportStraight(t *testing.T) {
	names := []string{"xfer", "compute", "rmw", "read", "write", "task", "dram-ecc"}
	tracks := []string{"bus", "pes", "dimm"}
	total := 2*chunkEvents + chunkEvents/3
	for _, limit := range []int{chunkEvents + chunkEvents/2, total + 1} {
		tr := NewTracerCap(limit)
		var want []chromeEvent
		for i := range total {
			track := tr.Track(tracks[i%len(tracks)])
			name := names[i%len(names)]
			start := int64(3 * i)
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

// TestTracerSpanAllocs pins the steady state: a chunk's worth of spans
// allocates one chunk and nothing per event.
func TestTracerSpanAllocs(t *testing.T) {
	tr := NewTracer()
	bus, dimm := tr.Track("bus"), tr.Track("dimm")
	var at int64
	allocs := testing.AllocsPerRun(50, func() {
		for range chunkEvents / 2 {
			tr.Span(bus, "xfer", at, at+4)
			tr.Span(dimm, "read", at, at+9)
			at++
		}
	})
	if allocs > 1 {
		t.Errorf("%d spans allocate %.0f times, want at most one chunk", chunkEvents, allocs)
	}
}

// BenchmarkTracerSpan measures the cost of recording one span, cycling
// through the producers' span names and a few tracks as a machine does. A
// fresh tracer takes over every perTracer spans, so memory stays bounded
// at any b.N.
func BenchmarkTracerSpan(b *testing.B) {
	const perTracer = 64 << 10
	names := []string{"xfer", "compute", "rmw", "read", "write", "task"}
	var tr *Tracer
	var tracks []Track
	b.ReportAllocs()
	for i := range b.N {
		if i%perTracer == 0 {
			tr = NewTracerCap(perTracer)
			tracks = []Track{tr.Track("link"), tr.Track("pes"), tr.Track("atomics"), tr.Track("dimm")}
		}
		at := int64(i)
		tr.Span(tracks[i%len(tracks)], names[i%len(names)], at, at+8)
	}
}
