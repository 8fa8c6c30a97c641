package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"beacon/internal/calib"
	"beacon/internal/obs"
)

// defaultCalibGolden is the committed quick-suite artifact the calibrate
// mode diffs against (the same file internal/calib's golden test pins).
const defaultCalibGolden = "testdata/calib/curves_quick.json"

// calibFlags is the -calibrate mode's flag surface.
type calibFlags struct {
	full   bool
	golden string
	out    string
	update bool
	tol    float64
	per    []obs.MetricTolerance
}

// runCalibrate replays the calibration suite, prints the curve table,
// validates the physical envelopes, and diffs against the golden artifact.
// Returns the process exit status: 0 clean, 1 on envelope violations or
// golden drift, 2 on harness errors.
func runCalibrate(w io.Writer, cf calibFlags) int {
	cfg := calib.QuickConfig()
	suite := "quick"
	if cf.full {
		cfg = calib.FullConfig()
		suite = "full"
	}

	art, err := calib.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "beaconbench: calibrate:", err)
		return 2
	}
	fmt.Fprintln(w, calib.Table(fmt.Sprintf("timing calibration (%s suite, %d curves)", suite, len(art.Curves)), art))

	status := 0
	if vs := calib.CheckEnvelopes(art, cfg); len(vs) > 0 {
		for _, v := range vs {
			fmt.Fprintln(w, "envelope violation:", v)
		}
		fmt.Fprintf(w, "%d envelope violations\n", len(vs))
		status = 1
	} else {
		fmt.Fprintln(w, "envelopes: all curves within first-principles DDR4/CXL bounds")
	}

	if cf.out != "" {
		if err := writeArtifactFile(cf.out, art); err != nil {
			fmt.Fprintln(os.Stderr, "beaconbench: calibrate:", err)
			return 2
		}
		fmt.Fprintf(w, "curves written to %s\n", cf.out)
	}

	if cf.update {
		if err := writeArtifactFile(cf.golden, art); err != nil {
			fmt.Fprintln(os.Stderr, "beaconbench: calibrate:", err)
			return 2
		}
		fmt.Fprintf(w, "golden %s updated (%d curves)\n", cf.golden, len(art.Curves))
		return status
	}
	if cf.full {
		// The committed golden pins the quick suite only; a full sweep is
		// for offline characterization.
		fmt.Fprintln(w, "full suite: golden diff skipped (goldens pin the quick suite)")
		return status
	}

	fh, err := os.Open(cf.golden)
	if err != nil {
		fmt.Fprintf(os.Stderr, "beaconbench: calibrate: %v (run -calibrate -calib-update to create it)\n", err)
		return 2
	}
	golden, err := calib.Decode(fh)
	fh.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "beaconbench: calibrate: %s: %v\n", cf.golden, err)
		return 2
	}
	diffs := calib.Compare(golden, art, obs.DiffOptions{Tolerance: cf.tol, PerMetric: cf.per})
	if len(diffs) > 0 {
		for _, d := range diffs {
			fmt.Fprintln(w, "drift:", d.String())
		}
		fmt.Fprintf(w, "%d metric drifts vs %s (run -calibrate -calib-update if intended)\n", len(diffs), cf.golden)
		return 1
	}
	fmt.Fprintf(w, "golden: curves match %s (tolerance %g)\n", cf.golden, cf.tol)
	return status
}

// writeArtifactFile encodes the artifact to path, creating parent
// directories as needed.
func writeArtifactFile(path string, art *calib.Artifact) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	if err := art.Encode(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
