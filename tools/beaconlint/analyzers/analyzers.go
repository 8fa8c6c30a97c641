// Package analyzers registers the beaconlint analyzer suite.
package analyzers

import (
	"beacon/tools/beaconlint/analysis"
	"beacon/tools/beaconlint/analyzers/cycleclock"
	"beacon/tools/beaconlint/analyzers/errwrap"
	"beacon/tools/beaconlint/analyzers/goroutinescope"
	"beacon/tools/beaconlint/analyzers/maporder"
	"beacon/tools/beaconlint/analyzers/metricname"
	"beacon/tools/beaconlint/analyzers/nodeterminism"
	"beacon/tools/beaconlint/analyzers/seedflow"
	"beacon/tools/beaconlint/analyzers/unitflow"
)

// All returns the full suite in deterministic order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		cycleclock.Analyzer,
		errwrap.Analyzer,
		goroutinescope.Analyzer,
		maporder.Analyzer,
		metricname.Analyzer,
		nodeterminism.Analyzer,
		seedflow.Analyzer,
		unitflow.Analyzer,
	}
}

// Names returns the set of registered analyzer names, for directive
// validation.
func Names() map[string]bool {
	names := map[string]bool{}
	for _, a := range All() {
		names[a.Name] = true
	}
	return names
}
