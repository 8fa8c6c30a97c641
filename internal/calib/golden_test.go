package calib

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"beacon/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files instead of comparing")

// goldenPath is the committed quick-suite artifact, shared with
// `beaconbench -calibrate` and the CI calib-smoke job.
const goldenPath = "../../testdata/calib/curves_quick.json"

// TestGoldenCurves replays the quick calibration suite and compares the
// artifact byte-for-byte against the committed golden. `go test -update`
// regenerates it. The suite covers all five patterns on the DDR baseline
// and both BEACON platforms, so any drift in the DRAM or CXL timing models
// lands here as a diff.
func TestGoldenCurves(t *testing.T) {
	cfg := QuickConfig()
	art, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if vs := CheckEnvelopes(art, cfg); len(vs) != 0 {
		t.Fatalf("quick suite violates its envelopes: %v", vs)
	}
	got, err := art.EncodeBytes()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d curves)", goldenPath, len(art.Curves))
		return
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run `go test ./internal/calib -update` to create it): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Byte mismatch: decode the golden and report the per-metric drift so
	// the failure names the curves that moved, not just "files differ".
	golden, derr := Decode(bytes.NewReader(want))
	if derr != nil {
		t.Fatalf("curves drifted from golden and the golden no longer decodes: %v", derr)
	}
	diffs := Compare(golden, art, obs.DiffOptions{})
	for _, d := range diffs {
		t.Errorf("drift: %s", d)
	}
	t.Fatalf("calibration curves drifted from %s (%d metric diffs); run `go test ./internal/calib -update` if intended", goldenPath, len(diffs))
}

// TestGoldenCoversPlatformsAndPatterns pins the committed golden's
// coverage: every pattern must appear on the DDR baseline and on both
// BEACON platforms.
func TestGoldenCoversPlatformsAndPatterns(t *testing.T) {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run `go test ./internal/calib -update` to create it): %v", err)
	}
	defer f.Close()
	art, err := Decode(f)
	if err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	seen := map[string]bool{}
	for _, c := range art.Curves {
		seen[c.Platform+"/"+c.Pattern] = true
	}
	for _, plat := range DefaultPlatforms() {
		for _, p := range AllPatterns() {
			if !seen[plat.Name+"/"+string(p)] {
				t.Errorf("golden missing %s/%s", plat.Name, p)
			}
		}
	}
}
