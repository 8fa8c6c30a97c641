package beacon

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"beacon/internal/obs"
)

// traceDigestCap caps the capped case's tracer well below its run's event
// count, so the drop path and obs.trace_dropped are exercised.
const traceDigestCap = 300

// traceBytesPerEvent bounds the average encoded size of the timelines'
// events; the runs below take 4.0–4.4 B/event.
const traceBytesPerEvent = 6

// TestChromeTraceDigests locks the Chrome trace_event bytes of small
// observed runs to committed SHA-256 digests: BEACON-D, BEACON-S and the
// DDR baseline with every optimization, BEACON-D under the heavy fault
// profile (fault instants), and BEACON-D in a collection capped below its
// event count (the drop path, merged through the collection's exporter).
// Each line also carries the recorded and dropped event counts and the
// job's final obs.trace_dropped gauge, and each timeline must average at
// most traceBytesPerEvent bytes per recorded event. A rewrite of the
// tracer or of a producer that moves one span or one byte of the export
// fails here.
// Regenerate deliberately with:
//
//	go test -run TestChromeTraceDigests -update .
func TestChromeTraceDigests(t *testing.T) {
	t.Parallel()
	cfg := DefaultWorkloadConfig(PinusTaeda)
	cfg.GenomeScale = 2_000
	cfg.Reads = 40
	wl, err := NewFMSeedingWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		label    string
		p        Platform
		traceCap int
	}{
		{"beacon-d", Platform{Kind: BeaconD, Opts: AllOptimizations()}, 0},
		{"beacon-s", Platform{Kind: BeaconS, Opts: AllOptimizations()}, 0},
		{"ddr", Platform{Kind: DDRBaseline, Opts: AllOptimizations()}, 0},
		{"beacon-d/heavy-faults", Platform{
			Kind: BeaconD, Opts: AllOptimizations(),
			Faults: HeavyFaultProfile(), FaultSeed: 7,
		}, 0},
		{"beacon-d/capped", Platform{Kind: BeaconD, Opts: AllOptimizations()}, traceDigestCap},
	}
	var sb strings.Builder
	for _, c := range cases {
		col := obs.NewCollection()
		col.TraceCap = c.traceCap
		ob := col.New(c.label)
		if _, err := Run(c.p, wl, WithObserver(ob)); err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		var tr strings.Builder
		if c.traceCap > 0 {
			err = col.WriteChromeTrace(&tr)
		} else {
			err = ob.Trace.WriteChromeTrace(&tr)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if perEvent := float64(ob.Trace.Bytes()) / float64(ob.Trace.Events()); perEvent > traceBytesPerEvent {
			t.Errorf("%s: the timeline takes %.2f B/event, want at most %d", c.label, perEvent, traceBytesPerEvent)
		}
		gauge := ob.Metrics.Dump().Final().Values["obs.trace_dropped"]
		fmt.Fprintf(&sb, "%s events=%d dropped=%d trace_dropped=%g %x\n",
			c.label, ob.Trace.Events(), ob.Trace.Dropped(), gauge, sha256.Sum256([]byte(tr.String())))
		if c.p.Faults.Enabled() && !strings.Contains(tr.String(), `"ph":"i"`) {
			t.Errorf("%s: no fault instants recorded", c.label)
		}
		if c.traceCap > 0 && ob.Trace.Dropped() == 0 {
			t.Errorf("%s: cap %d dropped nothing; lower traceDigestCap", c.label, c.traceCap)
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "trace_digests.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("chrome trace drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
