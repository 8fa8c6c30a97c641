package main

import (
	"path/filepath"
	"testing"

	"beacon/tools/beaconlint/analysis"
	"beacon/tools/beaconlint/analysistest"
	"beacon/tools/beaconlint/analyzers"
	"beacon/tools/beaconlint/analyzers/cycleclock"
	"beacon/tools/beaconlint/analyzers/errwrap"
	"beacon/tools/beaconlint/analyzers/goroutinescope"
	"beacon/tools/beaconlint/analyzers/maporder"
	"beacon/tools/beaconlint/analyzers/metricname"
	"beacon/tools/beaconlint/analyzers/nodeterminism"
	"beacon/tools/beaconlint/analyzers/seedflow"
	"beacon/tools/beaconlint/analyzers/unitflow"
)

// TestAnalyzers runs every analyzer against its golden fixture. Each
// fixture package carries `// want "regexp"` comments for the diagnostics
// that must appear; lines without a want comment must stay clean.
func TestAnalyzers(t *testing.T) {
	tests := []struct {
		fixture    string
		importPath string
		analyzers  []*analysis.Analyzer
		directives bool
	}{
		// Wall clock, global rand, crypto entropy, process identity.
		{"nodeterminism", "beacon/fixtures/nodeterm", []*analysis.Analyzer{nodeterminism.Analyzer}, false},
		// package main is exempt: cmd wiring may read the wall clock.
		{"nodeterminism_main", "beacon/fixtures/ndmain", []*analysis.Analyzer{nodeterminism.Analyzer}, false},
		// Order-dependent effects under map ranges, and the exemptions.
		{"maporder", "beacon/fixtures/mapord", []*analysis.Analyzer{maporder.Analyzer}, false},
		// Float accumulation: maporder's float sink under map ranges and
		// goroutinescope's go statement for goroutine sums.
		{"floatacc", "beacon/fixtures/facc", []*analysis.Analyzer{maporder.Analyzer, goroutinescope.Analyzer}, false},
		// Raw concurrency outside the sanctioned packages.
		{"goroutinescope", "beacon/fixtures/gscope", []*analysis.Analyzer{goroutinescope.Analyzer}, false},
		// The identical constructs are legal under internal/runner.
		{"goroutinescope_allowed", "beacon/internal/runner/runnerx", []*analysis.Analyzer{goroutinescope.Analyzer}, false},
		// Dropped Run errors and zero-value engines.
		{"cycleclock", "beacon/fixtures/cclock", []*analysis.Analyzer{cycleclock.Analyzer}, false},
		// Metric-name charset at obs.Registry registration sites.
		{"metricname", "beacon/fixtures/mname", []*analysis.Analyzer{metricname.Analyzer}, false},
		// Cross-unit arithmetic, mis-unit assignments and arguments, raw
		// CyclePeriodSeconds references outside internal/sim.
		{"unitflow", "beacon/fixtures/uflow", []*analysis.Analyzer{unitflow.Analyzer}, false},
		// Seeds derived from range positions, map-order counters, or
		// ambient state; forwarding facts make callers' arguments sinks.
		{"seedflow", "beacon/fixtures/sflow", []*analysis.Analyzer{seedflow.Analyzer}, false},
		// Sentinel identity comparisons and %v/%s sentinel wrapping.
		{"errwrap", "beacon/fixtures/ewrap", []*analysis.Analyzer{errwrap.Analyzer}, false},
		// //beaconlint:allow: reasoned directives suppress; reasonless,
		// stale, unknown-analyzer, and empty directives are diagnostics.
		{"directives", "beacon/fixtures/direct", analyzers.All(), true},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.fixture, func(t *testing.T) {
			analysistest.Run(t, analysistest.Config{
				Dir:        filepath.Join("testdata", "src", tt.fixture),
				ImportPath: tt.importPath,
				Analyzers:  tt.analyzers,
				Directives: tt.directives,
				Known:      analyzers.Names(),
			})
		})
	}
}
