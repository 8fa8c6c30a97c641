// Package analysis is a deliberately small, dependency-free re-creation of
// the golang.org/x/tools/go/analysis surface that beaconlint's analyzers
// program against. The repository vendors no third-party modules, so the
// driver (package main and package load) supplies what x/tools would:
// loaded syntax, type information, and diagnostic plumbing.
//
// Only the subset beaconlint needs exists: no facts, no suggested fixes,
// no analyzer dependencies. Keeping the shape of the x/tools API means the
// analyzers can migrate to the real framework mechanically if the module
// ever grows the dependency.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //beaconlint:allow directives. It must be a valid identifier.
	Name string
	// Doc is a one-paragraph description of the invariant the analyzer
	// guards; the first line is the summary shown by -help.
	Doc string
	// Run applies the analyzer to one package and reports diagnostics via
	// pass.Report. A non-nil error aborts the whole beaconlint run — it
	// means the analyzer itself failed, not that the code is wrong.
	Run func(*Pass) error
}

// FactStore is the cross-package fact plumbing the driver may supply.
// Facts attach analyzer knowledge to package-level objects and survive
// package boundaries: the driver shares one store across a
// dependency-ordered run. The canonical implementation is dataflow.Store.
type FactStore interface {
	// ExportFact records fact (a JSON-encodable value) for obj under the
	// analyzer's namespace.
	ExportFact(analyzer string, obj types.Object, fact any) error
	// ImportFact decodes the analyzer's fact for obj into fact (a
	// pointer) and reports whether one was found.
	ImportFact(analyzer string, obj types.Object, fact any) bool
}

// Pass carries one package's loaded state through an analyzer.
type Pass struct {
	// Analyzer is the analyzer being applied.
	Analyzer *Analyzer
	// Fset is the file set all syntax positions resolve against. One file
	// set is shared by every package in a beaconlint run.
	Fset *token.FileSet
	// Files is the package's parsed syntax, including in-package _test.go
	// files when the driver loads tests.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// PkgPath is the import path beaconlint attributes to the package.
	// External test packages get the suffix "_test" appended to the path
	// of the package under test.
	PkgPath string
	// TypesInfo holds the type-checker's facts about Files.
	TypesInfo *types.Info
	// Report records one diagnostic.
	Report func(Diagnostic)
	// Facts is the run's cross-package fact store; nil when the driver
	// supplies none (fact exports become no-ops, imports find nothing).
	Facts FactStore
}

// ExportObjectFact records fact for obj under this pass's analyzer name.
func (p *Pass) ExportObjectFact(obj types.Object, fact any) error {
	if p.Facts == nil {
		return nil
	}
	return p.Facts.ExportFact(p.Analyzer.Name, obj, fact)
}

// ImportObjectFact decodes this analyzer's fact for obj into fact (a
// pointer), reporting whether one exists.
func (p *Pass) ImportObjectFact(obj types.Object, fact any) bool {
	if p.Facts == nil {
		return false
	}
	return p.Facts.ImportFact(p.Analyzer.Name, obj, fact)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	// Pos is the position the finding anchors to.
	Pos token.Pos
	// Analyzer is the reporting analyzer's name (the driver fills it in).
	Analyzer string
	// Message describes the violation and, ideally, the fix.
	Message string
}

// Reportf formats and reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// IsTestFile reports whether the file containing pos is a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// Callee resolves the object a call expression invokes: a *types.Func for
// functions and methods, a *types.Builtin for append and friends, nil for
// calls through function-typed variables or type conversions.
func Callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel]
	}
	return nil
}

// CalleeFunc is Callee narrowed to functions and methods.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fn, _ := Callee(info, call).(*types.Func)
	return fn
}

// IsPkgFunc reports whether fn is the package-level function or method
// pkgPath.name (for methods, name is just the method name; use RecvNamed to
// constrain the receiver).
func IsPkgFunc(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// RecvNamed returns the named type of fn's receiver (unwrapping pointers),
// or nil for package-level functions.
func RecvNamed(fn *types.Func) *types.Named {
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// IsMethod reports whether fn is a method named name on type pkgPath.typeName.
func IsMethod(fn *types.Func, pkgPath, typeName, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	named := RecvNamed(fn)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == typeName
}

// WriterInterface is the io.Writer method set, constructed without importing
// io so analyzers can test arbitrary types against it via types.Implements.
var WriterInterface = func() *types.Interface {
	byteSlice := types.NewSlice(types.Typ[types.Byte])
	params := types.NewTuple(types.NewVar(token.NoPos, nil, "p", byteSlice))
	results := types.NewTuple(
		types.NewVar(token.NoPos, nil, "n", types.Typ[types.Int]),
		types.NewVar(token.NoPos, nil, "err", types.Universe.Lookup("error").Type()),
	)
	sig := types.NewSignatureType(nil, nil, nil, params, results, false)
	write := types.NewFunc(token.NoPos, nil, "Write", sig)
	iface := types.NewInterfaceType([]*types.Func{write}, nil)
	iface.Complete()
	return iface
}()

// ImplementsWriter reports whether t or *t satisfies io.Writer.
func ImplementsWriter(t types.Type) bool {
	if t == nil {
		return false
	}
	// The invalid type (e.g. TypeOf on a package qualifier) vacuously
	// "implements" every interface; it is never a writer.
	if basic, ok := t.Underlying().(*types.Basic); ok && basic.Kind() == types.Invalid {
		return false
	}
	if types.Implements(t, WriterInterface) {
		return true
	}
	if _, ok := t.(*types.Pointer); !ok {
		return types.Implements(types.NewPointer(t), WriterInterface)
	}
	return false
}

// DeclaredWithin reports whether obj's declaration lies inside [lo, hi].
// Analyzers use it to separate loop-local state (harmless) from state that
// outlives an iteration order-dependent loop.
func DeclaredWithin(obj types.Object, lo, hi token.Pos) bool {
	return obj != nil && obj.Pos() != token.NoPos && lo <= obj.Pos() && obj.Pos() <= hi
}
