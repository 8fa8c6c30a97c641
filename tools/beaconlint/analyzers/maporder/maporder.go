// Package maporder flags `range` over a map whose loop body has an
// order-dependent effect.
//
// Go randomizes map iteration order per run, so any observable effect
// produced inside such a loop — appending to a slice that outlives the
// loop, writing to an io.Writer, emitting obs metrics or trace events,
// scheduling simulator events, failing a test, or accumulating into a
// float that outlives the loop — varies between runs. In this repository
// that is not a style nit: byte-identical output is the simulator's
// correctness contract. Float `+=`/`-=`/`*=` is order-dependent because
// float arithmetic is not associative: (a+b)+c and a+(b+c) can differ in
// the last ulp.
//
// The canonical fix is to extract the keys, sort them, and range over the
// sorted slice. The analyzer recognizes that exact idiom and does not flag
// a map range whose only effect is collecting keys/values into a slice
// that is sorted immediately after the loop. Sorting after the loop never
// excuses a float accumulation: the sum is already taken in map order.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"beacon/tools/beaconlint/analysis"
)

// Analyzer is the maporder analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flag map iteration with order-dependent effects (output, metrics, scheduling, test failures)",
	Run:  run,
}

// testingMethods are testing.TB methods whose first invocation order is
// observable (message content, which failure fires first).
var testingMethods = map[string]bool{
	"Error": true, "Errorf": true, "Fatal": true, "Fatalf": true,
	"Log": true, "Logf": true, "Skip": true, "Skipf": true,
	"Fail": true, "FailNow": true,
}

// obsEmitMethods are the beacon/internal/obs methods (keyed Type.Method)
// that record into an ordered stream: counters, histogram samples, trace
// events, snapshots. Read-only accessors (Counter.Value, Histogram.Sum,
// ...) are order-independent and deliberately not listed. A test resolves
// every key against the real package, so renaming or deleting a method
// fails that test instead of silently dropping a sink.
var obsEmitMethods = map[string]bool{
	"Counter.Add": true, "Counter.Inc": true, "Histogram.Observe": true,
	"Registry.Snapshot": true, "Obs.Sample": true, "Obs.MaybeSample": true,
	"Tracer.Span": true, "Tracer.Instant": true, "Tracer.Track": true,
}

// engineSchedulingMethods are the beacon/internal/sim Engine methods that
// insert events: insertion order is the tie-break order within a cycle.
// The same test resolves them against the real Engine.
var engineSchedulingMethods = []string{"ScheduleAt", "ScheduleAtOrNow", "Post"}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		checkFile(pass, file)
	}
	return nil
}

func checkFile(pass *analysis.Pass, file *ast.File) {
	// Track the enclosing statement-list stack so the sorted-keys idiom
	// can look at the statements that follow a range loop.
	var walk func(n ast.Node, enclosing []ast.Stmt)
	walk = func(n ast.Node, enclosing []ast.Stmt) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				for _, s := range n.List {
					walk(s, n.List)
				}
				return false
			case *ast.CaseClause:
				for _, s := range n.Body {
					walk(s, n.Body)
				}
				return false
			case *ast.CommClause:
				for _, s := range n.Body {
					walk(s, n.Body)
				}
				return false
			case *ast.RangeStmt:
				checkRange(pass, n, enclosing)
				// keep walking: nested map ranges inside the body are
				// reached through the body's BlockStmt above
			}
			return true
		})
	}
	walk(file, nil)
}

func checkRange(pass *analysis.Pass, rng *ast.RangeStmt, enclosing []ast.Stmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	sinks, appendTargets := findSinks(pass, rng)
	if len(sinks) == 0 {
		return
	}
	// Sorted-key collection idiom: every sink is an append, and every
	// append target is sorted right after the loop. Any other sink, a
	// float accumulation included, keeps the diagnostic.
	if len(appendTargets) == len(sinks) && allSortedAfter(pass, rng, enclosing, appendTargets) {
		return
	}
	pass.Reportf(rng.Pos(), "map iteration with order-dependent effect (%s); iterate over sorted keys instead", strings.Join(dedup(sinks), ", "))
}

// findSinks scans the loop body for order-dependent effects. It returns a
// description per sink and the objects of slices appended to (used to
// recognize the collect-then-sort idiom).
func findSinks(pass *analysis.Pass, rng *ast.RangeStmt) (sinks []string, appendTargets []types.Object) {
	info := pass.TypesInfo
	lo, hi := rng.Pos(), rng.End()
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if floatAccumulates(info, n, lo, hi) {
				sinks = append(sinks, "float accumulation into a variable declared outside the loop")
			}
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				if b, ok := analysis.Callee(info, call).(*types.Builtin); !ok || b.Name() != "append" {
					continue
				}
				if i >= len(n.Lhs) && len(n.Lhs) != 1 {
					continue
				}
				lhs := n.Lhs[min(i, len(n.Lhs)-1)]
				obj := assignedObject(info, lhs)
				if obj == nil || !analysis.DeclaredWithin(obj, lo, hi) {
					sinks = append(sinks, "append to slice declared outside the loop")
					appendTargets = append(appendTargets, obj)
				}
			}
		case *ast.CallExpr:
			if s := callSink(pass, n, lo, hi); s != "" {
				sinks = append(sinks, s)
			}
		}
		return true
	})
	return sinks, appendTargets
}

// callSink classifies a call inside the loop body as an order-dependent
// effect, returning a description or "".
func callSink(pass *analysis.Pass, call *ast.CallExpr, lo, hi token.Pos) string {
	info := pass.TypesInfo
	fn := analysis.CalleeFunc(info, call)
	if fn == nil {
		return ""
	}
	// Simulator scheduling: event insertion order is tie-break order.
	for _, name := range engineSchedulingMethods {
		if analysis.IsMethod(fn, "beacon/internal/sim", "Engine", name) {
			return "sim.Engine event scheduling"
		}
	}
	// Observability emission: metric/trace record order reaches output.
	if named := analysis.RecvNamed(fn); named != nil {
		if p := named.Obj().Pkg(); p != nil && p.Path() == "beacon/internal/obs" &&
			obsEmitMethods[named.Obj().Name()+"."+fn.Name()] {
			return "obs metric/trace emission"
		}
	}
	// Test failures/logs: which message fires first depends on map order.
	if recv := recvType(fn); recv != nil && testingMethods[fn.Name()] && isTestingTB(recv) {
		return "testing log/failure (first failure depends on map order)"
	}
	// io.Writer writes, either as receiver (w.Write, buf.WriteString) or
	// as an argument (fmt.Fprintf(w, ...)). Writers declared inside the
	// loop body are loop-local scratch and harmless.
	if recv := recvExpr(call); recv != nil {
		if analysis.ImplementsWriter(info.TypeOf(recv)) && !declaredInside(info, recv, lo, hi) {
			return "write to io.Writer"
		}
	}
	for _, arg := range call.Args {
		if analysis.ImplementsWriter(info.TypeOf(arg)) && !declaredInside(info, arg, lo, hi) {
			return "write to io.Writer"
		}
	}
	return ""
}

// floatAccumulates reports whether as is a float `+=`, `-=` or `*=` whose
// target is not a variable declared within [lo, hi] (loop-local scratch
// sums restart every iteration and are harmless).
func floatAccumulates(info *types.Info, as *ast.AssignStmt, lo, hi token.Pos) bool {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
	default:
		return false
	}
	for _, lhs := range as.Lhs {
		t := info.TypeOf(lhs)
		if t == nil {
			continue
		}
		basic, ok := t.Underlying().(*types.Basic)
		if !ok || basic.Info()&types.IsFloat == 0 {
			continue
		}
		if !declaredInside(info, lhs, lo, hi) {
			return true
		}
	}
	return false
}

func recvExpr(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

func recvType(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

func isTestingTB(t types.Type) bool {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "testing" {
		return false
	}
	switch obj.Name() {
	case "T", "B", "F", "TB", "common": // log methods live on embedded testing.common
		return true
	}
	return false
}

// declaredInside reports whether expr is an identifier whose object is
// declared within [lo, hi] (e.g. a strings.Builder local to the loop).
func declaredInside(info *types.Info, expr ast.Expr, lo, hi token.Pos) bool {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	return analysis.DeclaredWithin(obj, lo, hi)
}

func assignedObject(info *types.Info, lhs ast.Expr) types.Object {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := info.Defs[lhs]; obj != nil {
			return obj
		}
		return info.Uses[lhs]
	case *ast.SelectorExpr:
		return info.Uses[lhs.Sel]
	}
	return nil
}

// allSortedAfter reports whether every append target is passed to a sort
// call in the statements that follow rng in its enclosing statement list.
func allSortedAfter(pass *analysis.Pass, rng *ast.RangeStmt, enclosing []ast.Stmt, targets []types.Object) bool {
	if len(enclosing) == 0 {
		return false
	}
	idx := -1
	for i, s := range enclosing {
		if s == ast.Stmt(rng) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	for _, target := range targets {
		if target == nil || !sortedAfter(pass, enclosing[idx+1:], target) {
			return false
		}
	}
	return true
}

func sortedAfter(pass *analysis.Pass, rest []ast.Stmt, target types.Object) bool {
	info := pass.TypesInfo
	for _, s := range rest {
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			fn := analysis.CalleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			isSort := fn.Pkg().Path() == "sort" ||
				(fn.Pkg().Path() == "slices" && strings.HasPrefix(fn.Name(), "Sort"))
			if !isSort {
				return true
			}
			for _, arg := range call.Args {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.Uses[id] == target {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func dedup(ss []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
