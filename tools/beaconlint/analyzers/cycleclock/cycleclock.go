// Package cycleclock enforces the simulator kernel's scheduling contract
// at call sites.
//
// sim.Engine rejects events scheduled in the past: ScheduleAt records the
// violation and Run returns it instead of executing on a corrupted
// timeline. That protection only works if callers look at the returned
// error and the engine was built with its pending-event queue. This
// analyzer checks both statically:
//
//   - the error result of Engine.Run must not be discarded, neither by an
//     expression statement nor by assigning the error position to the
//     blank identifier;
//   - a zero-value sim.Engine must not be constructed outside package sim
//     (composite literal, new(), a value-typed variable or struct field):
//     the zero value has no pending-event queue and panics on first use —
//     sim.NewEngine is the only constructor.
package cycleclock

import (
	"go/ast"
	"go/types"
	"strings"

	"beacon/tools/beaconlint/analysis"
)

// Analyzer is the cycleclock analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "cycleclock",
	Doc:  "require checked sim.Engine.Run errors and NewEngine-built engines",
	Run:  run,
}

const simPkg = "beacon/internal/sim"

func run(pass *analysis.Pass) error {
	info := pass.TypesInfo
	// Package sim itself may name its zero value (the constructors and
	// their tests must); everywhere else construction goes through
	// NewEngine.
	inSim := pass.PkgPath == simPkg || strings.HasPrefix(pass.PkgPath, simPkg+"_test")
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if !inSim && len(n.Args) == 1 {
					if b, ok := analysis.Callee(info, n).(*types.Builtin); ok && b.Name() == "new" {
						if tv, ok := info.Types[n.Args[0]]; ok && isEngine(tv.Type) {
							pass.Reportf(n.Pos(), "new(sim.Engine) builds an unusable zero-value engine; call sim.NewEngine")
						}
					}
				}
			case *ast.CompositeLit:
				if !inSim {
					if tv, ok := info.Types[n]; ok && isEngine(tv.Type) {
						pass.Reportf(n.Pos(), "sim.Engine composite literal builds an unusable zero-value engine; call sim.NewEngine")
					}
				}
			case *ast.ValueSpec:
				if !inSim && n.Type != nil && isEngine(info.TypeOf(n.Type)) {
					pass.Reportf(n.Type.Pos(), "variable declared with value type sim.Engine starts as an unusable zero value; declare *sim.Engine and call sim.NewEngine")
				}
			case *ast.StructType:
				if inSim || n.Fields == nil {
					return true
				}
				for _, f := range n.Fields.List {
					if isEngine(info.TypeOf(f.Type)) {
						pass.Reportf(f.Type.Pos(), "struct field with value type sim.Engine embeds an unusable zero value; store *sim.Engine built by sim.NewEngine")
					}
				}
			case *ast.ExprStmt:
				reportDropped(pass, n.X)
			case *ast.GoStmt:
				reportDropped(pass, n.Call)
			case *ast.DeferStmt:
				reportDropped(pass, n.Call)
			case *ast.AssignStmt:
				// cycles, _ := eng.Run() — the error position is blanked.
				if len(n.Rhs) != 1 || len(n.Lhs) != 2 || !isRunCall(pass, n.Rhs[0]) {
					return true
				}
				if id, ok := n.Lhs[1].(*ast.Ident); ok && id.Name == "_" {
					pass.Reportf(n.Rhs[0].Pos(), "error result of (*sim.Engine).Run assigned to the blank identifier; check it")
				}
			}
			return true
		})
	}
	return nil
}

// isEngine reports whether t is the value type sim.Engine (not a pointer
// to it).
func isEngine(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == simPkg && obj.Name() == "Engine"
}

// reportDropped reports expr when it is an Engine.Run call whose results
// the enclosing statement throws away.
func reportDropped(pass *analysis.Pass, expr ast.Expr) {
	if isRunCall(pass, expr) {
		pass.Reportf(expr.Pos(), "error result of (*sim.Engine).Run discarded; a dropped past-cycle violation corrupts the timeline silently")
	}
}

// isRunCall reports whether expr is a call to Engine.Run.
func isRunCall(pass *analysis.Pass, expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	return ok && analysis.IsMethod(analysis.CalleeFunc(pass.TypesInfo, call), simPkg, "Engine", "Run")
}
