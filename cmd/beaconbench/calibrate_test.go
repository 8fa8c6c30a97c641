package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"beacon/internal/calib"
	"beacon/internal/obs"
)

// The -calib-update / diff round trip: regenerating a golden and
// immediately diffing against it reports zero drift; tampering with one
// metric turns the diff into exit status 1 naming the drifted curve.
func TestRunCalibrateGoldenWorkflow(t *testing.T) {
	golden := filepath.Join(t.TempDir(), "curves.json")
	base := calibFlags{golden: golden}

	var out strings.Builder
	if st := runCalibrate(&out, calibFlags{golden: golden, update: true}); st != 0 {
		t.Fatalf("update run exited %d:\n%s", st, out.String())
	}
	if !strings.Contains(out.String(), "golden "+golden+" updated") {
		t.Fatalf("update not reported:\n%s", out.String())
	}

	out.Reset()
	if st := runCalibrate(&out, base); st != 0 {
		t.Fatalf("clean diff exited %d:\n%s", st, out.String())
	}
	if !strings.Contains(out.String(), "curves match") || !strings.Contains(out.String(), "envelopes: all curves") {
		t.Fatalf("clean run report incomplete:\n%s", out.String())
	}

	// Tamper with one golden metric: the diff must fail and name it.
	fh, err := os.Open(golden)
	if err != nil {
		t.Fatal(err)
	}
	art, err := calib.Decode(fh)
	fh.Close()
	if err != nil {
		t.Fatal(err)
	}
	art.Curves[0].Metrics.GBPerSec *= 2
	if err := writeArtifactFile(golden, art); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if st := runCalibrate(&out, base); st != 1 {
		t.Fatalf("tampered diff exited %d, want 1:\n%s", st, out.String())
	}
	if !strings.Contains(out.String(), "drift:") || !strings.Contains(out.String(), art.Curves[0].Key()) {
		t.Fatalf("drift report does not name the curve:\n%s", out.String())
	}

	// A generous per-metric tolerance on the tampered metric absorbs it.
	out.Reset()
	tolerant := base
	tolerant.per = []obs.MetricTolerance{{Pattern: "gb_per_sec", Tolerance: 0.6}}
	if st := runCalibrate(&out, tolerant); st != 0 {
		t.Fatalf("tolerant diff exited %d:\n%s", st, out.String())
	}
}

func TestRunCalibrateWritesOut(t *testing.T) {
	dir := t.TempDir()
	golden := filepath.Join(dir, "curves.json")
	outPath := filepath.Join(dir, "sub", "out.json")
	var out strings.Builder
	if st := runCalibrate(&out, calibFlags{golden: golden, update: true, out: outPath}); st != 0 {
		t.Fatalf("exited %d:\n%s", st, out.String())
	}
	fh, err := os.Open(outPath)
	if err != nil {
		t.Fatalf("-calib-out not written: %v", err)
	}
	defer fh.Close()
	art, err := calib.Decode(fh)
	if err != nil {
		t.Fatalf("-calib-out not decodable: %v", err)
	}
	if len(art.Curves) == 0 {
		t.Fatal("-calib-out artifact empty")
	}
}

func TestRunCalibrateMissingGolden(t *testing.T) {
	var out strings.Builder
	if st := runCalibrate(&out, calibFlags{golden: filepath.Join(t.TempDir(), "absent.json")}); st != 2 {
		t.Fatalf("missing golden exited %d, want 2", st)
	}
}
