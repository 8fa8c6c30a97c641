package obs

import (
	"strings"
	"testing"
)

func TestReadBuildInfoNeverFails(t *testing.T) {
	b := ReadBuildInfo()
	// Under `go test` the module system is always present.
	if b.Module == "" || b.GoVersion == "" {
		t.Fatalf("build info incomplete: %+v", b)
	}
	// Test binaries carry no VCS stamp; the banner must still render.
	if b.String() == "" {
		t.Fatal("banner must never be empty")
	}
}

// TestBuildInfoStringFormats pins the banner's rendering rules on literal
// structs (the ReadBuildInfo-based test can't control the fields).
func TestBuildInfoStringFormats(t *testing.T) {
	b := BuildInfo{
		Module:    "beacon",
		Version:   "v1.2.3",
		GoVersion: "go1.22",
		Revision:  "0123456789abcdef0123",
	}
	if got := b.String(); got != "beacon v1.2.3 (rev 0123456789ab, go1.22)" {
		t.Fatalf("String() = %q", got)
	}
	b.Dirty = true
	if !strings.Contains(b.String(), "0123456789ab-dirty") {
		t.Fatalf("dirty marker missing: %q", b.String())
	}
	// Zero fields fall back rather than rendering empty.
	var zero BuildInfo
	if got := zero.String(); !strings.Contains(got, "beacon (devel) (rev unknown") {
		t.Fatalf("zero String() = %q", got)
	}
	// Short revisions pass through untruncated.
	short := BuildInfo{Revision: "abc123"}
	if !strings.Contains(short.String(), "rev abc123") {
		t.Fatalf("short rev: %q", short.String())
	}
}

// TestTracerSpans covers span recording: spans and instants both count
// as events, each span reaches the export on its own track with its
// bounds, and under the event cap only the retained prefix is exported.
func TestTracerSpans(t *testing.T) {
	tr := NewTracer()
	core := tr.Track("core")
	ndp := tr.Track("ndp")
	tr.Span(core, "phase.build", 0, 100)
	tr.Instant(core, "marker", 50)
	tr.Span(ndp, "phase.seed", 100, 400)
	if tr.Events() != 3 || tr.Dropped() != 0 {
		t.Fatalf("events/dropped = %d/%d, want 3/0", tr.Events(), tr.Dropped())
	}
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`{"name":"phase.build","ph":"X","ts":0,"dur":100,"pid":1,"tid":0}`,
		`{"name":"phase.seed","ph":"X","ts":100,"dur":300,"pid":1,"tid":1}`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("trace missing %s:\n%s", want, b.String())
		}
	}

	// Under a cap, only the retained prefix is exported.
	capped := NewTracerCap(2)
	tk := capped.Track("t")
	capped.Span(tk, "a", 0, 1)
	capped.Span(tk, "b", 1, 2)
	capped.Span(tk, "c", 2, 3) // dropped
	if capped.Events() != 2 || capped.Dropped() != 1 {
		t.Fatalf("capped events/dropped = %d/%d, want 2/1", capped.Events(), capped.Dropped())
	}
	b.Reset()
	if err := capped.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"name":"b"`) || strings.Contains(b.String(), `"name":"c"`) {
		t.Fatalf("capped trace must keep b and drop c:\n%s", b.String())
	}
}
