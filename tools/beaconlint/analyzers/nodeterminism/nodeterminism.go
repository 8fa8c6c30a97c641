// Package nodeterminism forbids wall-clock and ambient-entropy calls in
// simulation code.
//
// The repository's determinism contract (DESIGN.md) requires two runs with
// the same configuration and seed to produce byte-identical output. A
// single time.Now or global-state rand call in a result path silently
// breaks that contract without failing any test until much later. This
// analyzer rejects the whole class at compile time:
//
//   - time.Now, time.Since, time.Until, time.Sleep, timers and tickers;
//   - math/rand and math/rand/v2 package-level functions (the implicitly
//     seeded global generator) and crypto/rand reads;
//   - process-identity entropy: os.Getpid, os.Getppid;
//   - ambient process environment: os.UserCacheDir, os.UserConfigDir,
//     os.UserHomeDir, os.TempDir, os.Hostname, os.Environ, os.Getenv,
//     os.LookupEnv — machine-local state that varies across hosts and
//     users (seedflow already treats os.Getenv as an ambient seed). The workload cache's
//     default-directory lookup is the sanctioned, annotated exception
//     (cache entries are content-addressed, so location never reaches
//     results).
//
// Command (package main) code and _test.go files are exempt: CLIs may
// print wall time and tests may time things. Library code that needs wall
// time for provenance only (never reaching simulated results) carries a
// //beaconlint:allow nodeterminism directive with a reason, e.g. the
// runner's per-job wall-clock in progress events.
package nodeterminism

import (
	"go/ast"
	"strings"

	"beacon/tools/beaconlint/analysis"
)

// Analyzer is the nodeterminism analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "nodeterminism",
	Doc:  "forbid wall-clock and ambient-entropy calls in simulator library code",
	Run:  run,
}

// timeFuncs are the wall-clock entry points in package time.
var timeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// osFuncs are the process-identity entropy sources in package os.
var osFuncs = map[string]bool{"Getpid": true, "Getppid": true}

// osEnvFuncs are the ambient-environment lookups in package os: per-host,
// per-user state that must never steer simulation results.
var osEnvFuncs = map[string]bool{
	"UserCacheDir": true, "UserConfigDir": true, "UserHomeDir": true,
	"TempDir": true, "Hostname": true, "Environ": true,
	"Getenv": true, "LookupEnv": true,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil // CLIs may report wall time
	}
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue // tests may time and randomize freely
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if analysis.RecvNamed(fn) != nil {
				return true // methods (time.Time.Sub etc.) never hit the deny list
			}
			switch path := fn.Pkg().Path(); {
			case path == "time" && timeFuncs[fn.Name()]:
				pass.Reportf(call.Pos(), "wall-clock call time.%s in simulator code; thread simulated cycles or a seeded source instead (or annotate //beaconlint:allow nodeterminism <reason>)", fn.Name())
			case (path == "math/rand" || path == "math/rand/v2") && !strings.HasPrefix(fn.Name(), "New"):
				pass.Reportf(call.Pos(), "global-state random call %s.%s in simulator code; use a seeded generator (sim.RNG, fault PCG) instead (or annotate //beaconlint:allow nodeterminism <reason>)", path, fn.Name())
			case path == "crypto/rand":
				pass.Reportf(call.Pos(), "crypto entropy call crypto/rand.%s in simulator code; results must be reproducible from the run seed (or annotate //beaconlint:allow nodeterminism <reason>)", fn.Name())
			case path == "os" && osFuncs[fn.Name()]:
				pass.Reportf(call.Pos(), "process-identity call os.%s in simulator code; process identity must not influence results (or annotate //beaconlint:allow nodeterminism <reason>)", fn.Name())
			case path == "os" && osEnvFuncs[fn.Name()]:
				pass.Reportf(call.Pos(), "ambient-environment call os.%s in simulator code; machine-local state must not influence results (or annotate //beaconlint:allow nodeterminism <reason>)", fn.Name())
			}
			return true
		})
	}
	return nil
}
