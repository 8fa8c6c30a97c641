package obs

import (
	"encoding/json"
	"strings"
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
