// Command beaconlint runs the repository's determinism analyzers over
// package patterns (the entry point behind `make lint` and CI):
//
//	go run ./tools/beaconlint ./...
//
// Exit codes are pinned by CLI tests:
//
//	0 — clean: every package loaded and no diagnostics
//	1 — load or internal error (bad pattern, type error)
//	2 — findings: at least one diagnostic was reported
//
// With -json, each diagnostic is additionally emitted on stdout as one
// JSON object per line — {"file","line","col","analyzer","message"} — for
// CI problem matchers and tooling; the human-readable form stays on
// stderr either way.
//
// The suite enforces invariants the test suite can only sample:
// nodeterminism (no wall clock / ambient entropy in simulator code),
// maporder (no order-dependent effects under map iteration, float
// accumulation included), goroutinescope (all parallelism behind
// internal/runner's pool), cycleclock (no dropped Engine.Run errors, no
// zero-value engines), metricname (constant, OpenMetrics-safe names at
// obs.Registry registration sites), unitflow (no cross-unit arithmetic;
// cycle<->seconds conversions only in internal/sim/time.go), seedflow (RNG
// seeds flow from config, point identity, or constants), and errwrap
// (errors.Is instead of sentinel ==, %w instead of %v for sentinel
// wrapping). The last three run on a shared type-aware dataflow layer
// whose cross-package facts flow dependency-first through one store for
// the whole run. Suppressions use //beaconlint:allow <analyzer> <reason>;
// see package directive.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"

	"beacon/tools/beaconlint/analysis"
	"beacon/tools/beaconlint/analyzers"
	"beacon/tools/beaconlint/dataflow"
	"beacon/tools/beaconlint/directive"
	"beacon/tools/beaconlint/load"
)

// Exit codes.
const (
	exitClean    = 0
	exitError    = 1
	exitFindings = 2
)

func main() {
	list := flag.Bool("list", false, "list registered analyzers and exit")
	noTests := flag.Bool("notests", false, "skip _test.go files and external test packages")
	jsonOut := flag.Bool("json", false, "also emit one JSON diagnostic object per line on stdout")
	flag.Parse()
	if *list {
		for _, a := range analyzers.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	fset := token.NewFileSet()
	pkgs, err := load.Load(load.Config{Tests: !*noTests, Fset: fset}, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "beaconlint:", err)
		os.Exit(exitError)
	}

	// Dependency order, so facts exported by a package are in the store
	// before any importer is analyzed.
	pkgs = load.TopoSort(pkgs)
	facts := dataflow.NewStore()
	known := analyzers.Names()
	enc := json.NewEncoder(os.Stdout)
	exit := exitClean
	for _, pkg := range pkgs {
		diags, err := runSuite(pkg, facts, known)
		if err != nil {
			fmt.Fprintln(os.Stderr, "beaconlint:", err)
			os.Exit(exitError)
		}
		for _, d := range diags {
			pos := fset.Position(d.Pos)
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", pos, d.Analyzer, d.Message)
			if *jsonOut {
				if err := enc.Encode(jsonDiagnostic{
					File:     pos.Filename,
					Line:     pos.Line,
					Col:      pos.Column,
					Analyzer: d.Analyzer,
					Message:  d.Message,
				}); err != nil {
					fmt.Fprintln(os.Stderr, "beaconlint:", err)
					os.Exit(exitError)
				}
			}
			exit = exitFindings
		}
	}
	os.Exit(exit)
}

// jsonDiagnostic is the -json wire form: one object per line.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// runSuite applies every analyzer to pkg and filters the result through the
// package's //beaconlint:allow directives.
func runSuite(pkg *load.Package, facts analysis.FactStore, known map[string]bool) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	for _, a := range analyzers.All() {
		a := a
		pass := pkg.Pass(a, facts, func(d analysis.Diagnostic) {
			d.Analyzer = a.Name
			diags = append(diags, d)
		})
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}
	dirs := directive.Collect(pkg.Fset, pkg.Files)
	return directive.Apply(pkg.Fset, dirs, diags, known), nil
}
