// Package load turns package patterns into type-checked syntax without
// depending on golang.org/x/tools/go/packages. It drives the go command for
// metadata (`go list -json`) and for compiled export data
// (`go list -export`), parses the target packages' sources itself, and
// type-checks them with the standard library's gc export-data importer.
//
// The resulting Package values carry everything beaconlint's analyzers
// need: syntax with comments, a *types.Package, and a fully populated
// *types.Info. Target packages are checked from source; their dependencies
// are imported from export data, so a whole-module run only parses the
// module's own files. The exception is an external test package: its
// imports that depend on the package under test are checked from source
// against it, as the go command recompiles them for the test binary.
package load

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"

	"beacon/tools/beaconlint/analysis"
)

// Package is one unit of analysis: either a module package augmented with
// its in-package test files, or an external (_test) test package.
type Package struct {
	// Path is the import path ("_test"-suffixed for external test pkgs).
	Path string
	// Imports are the import paths this unit depends on (test imports
	// included; external test packages list the package under test). The
	// driver topologically orders a run with them so cross-package facts
	// flow dependency-first.
	Imports []string
	// Fset is the shared file set positions resolve against.
	Fset *token.FileSet
	// Files is the parsed syntax, with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info is the type-checker's facts about Files.
	Info *types.Info
}

// Pass adapts the package for one analyzer, routing diagnostics to report
// and cross-package facts to facts (which may be nil).
func (p *Package) Pass(a *analysis.Analyzer, facts analysis.FactStore, report func(analysis.Diagnostic)) *analysis.Pass {
	return &analysis.Pass{
		Analyzer:  a,
		Fset:      p.Fset,
		Files:     p.Files,
		Pkg:       p.Types,
		PkgPath:   p.Path,
		TypesInfo: p.Info,
		Report:    report,
		Facts:     facts,
	}
}

// TopoSort orders pkgs dependency-first (a package after everything it
// imports), stably: ties keep the input's relative order. The driver runs
// analyzers in this order so facts exported by a dependency are visible
// when its importers are checked.
func TopoSort(pkgs []*Package) []*Package {
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	out := make([]*Package, 0, len(pkgs))
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(p *Package)
	visit = func(p *Package) {
		switch state[p.Path] {
		case 1, 2:
			return // cycle (impossible in Go) or already emitted
		}
		state[p.Path] = 1
		for _, imp := range p.Imports {
			if dep, ok := byPath[imp]; ok {
				visit(dep)
			}
		}
		state[p.Path] = 2
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	Dir          string
	ImportPath   string
	Name         string
	Standard     bool
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	Deps         []string
	TestImports  []string
	XTestImports []string
	Error        *struct{ Err string }
}

// Config controls a Load.
type Config struct {
	// Dir is the module directory go commands run in ("" = cwd).
	Dir string
	// Tests selects whether _test.go files are loaded and external test
	// packages produced.
	Tests bool
	// Fset receives all parsed files; a fresh set is made when nil.
	Fset *token.FileSet
}

// Load resolves patterns to packages and type-checks each from source.
func Load(cfg Config, patterns ...string) ([]*Package, error) {
	if cfg.Fset == nil {
		cfg.Fset = token.NewFileSet()
	}
	targets, err := goList(cfg.Dir, nil, patterns...)
	if err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("load: no packages match %v", patterns)
	}

	// Collect every import path any target (or its test files) mentions,
	// then resolve export data for all of them and their dependencies in
	// one go invocation.
	need := map[string]bool{}
	for _, t := range targets {
		need[t.ImportPath] = true
		for _, lists := range [][]string{t.Imports, t.TestImports, t.XTestImports} {
			for _, imp := range lists {
				need[imp] = true
			}
		}
	}
	delete(need, "unsafe") // no export data; the gc importer special-cases it
	delete(need, "C")
	paths := make([]string, 0, len(need))
	for p := range need {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	exported, err := goList(cfg.Dir, []string{"-export", "-deps"}, paths...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	listed := map[string]listPackage{}
	for _, p := range exported {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		listed[p.ImportPath] = p
	}

	imp := newExportImporter(cfg.Fset, exports)
	var out []*Package
	for _, t := range targets {
		files := append([]string{}, t.GoFiles...)
		if cfg.Tests {
			files = append(files, t.TestGoFiles...)
		}
		pkg, err := check(cfg.Fset, imp, t.Dir, t.ImportPath, files)
		if err != nil {
			return nil, err
		}
		pkg.Imports = append(pkg.Imports, t.Imports...)
		if cfg.Tests {
			pkg.Imports = append(pkg.Imports, t.TestImports...)
		}
		out = append(out, pkg)
		if cfg.Tests && len(t.XTestGoFiles) > 0 {
			// The external test package imports the package under test;
			// resolve that import to the source-checked (test-augmented)
			// package rather than export data, so exported test helpers
			// declared in _test.go files are visible.
			ximp := &testImporter{base: imp, fset: cfg.Fset, listed: listed, under: t.ImportPath,
				checked: map[string]*types.Package{t.ImportPath: pkg.Types}}
			xpkg, err := check(cfg.Fset, ximp, t.Dir, t.ImportPath+"_test", t.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			xpkg.Imports = append(append(xpkg.Imports, t.XTestImports...), t.ImportPath)
			out = append(out, xpkg)
		}
	}
	return out, nil
}

// LoadFiles parses and type-checks an explicit file list as one package with
// the given import path, importing dependencies from exports (a map from
// import path to export-data file, e.g. from ExportMap). The analysistest
// harness uses it for testdata fixtures, which live outside the module.
func LoadFiles(fset *token.FileSet, importPath string, files []string, exports map[string]string) (*Package, error) {
	imp := newExportImporter(fset, exports)
	return check(fset, imp, "", importPath, files)
}

// ExportMap resolves export-data files for the given import paths and all
// their dependencies, running go from dir.
func ExportMap(dir string, paths ...string) (map[string]string, error) {
	pkgs, err := goList(dir, []string{"-export", "-deps"}, paths...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// NewInfo returns a types.Info with every fact map analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

func check(fset *token.FileSet, imp types.Importer, dir, importPath string, files []string) (*Package, error) {
	var syntax []*ast.File
	for _, name := range files {
		path := name
		if dir != "" && !filepath.IsAbs(name) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		syntax = append(syntax, f)
	}
	info := NewInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("load: %s: %w", importPath, err)
	}
	return &Package{Path: importPath, Fset: fset, Files: syntax, Types: tpkg, Info: info}, nil
}

// newExportImporter wires the standard gc importer to a path→file map of
// compiled export data produced by `go list -export`.
func newExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// testImporter resolves an external test package's imports. The package
// under test resolves to its test-augmented source check. Every other
// import that depends on it is checked from source against that package,
// as the go command recompiles it for the test binary; from export data it
// would carry a second, incompatible copy of the package under test's
// types. The rest come from the base importer.
type testImporter struct {
	base    types.Importer
	fset    *token.FileSet
	listed  map[string]listPackage
	under   string
	checked map[string]*types.Package
}

func (ti *testImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := ti.checked[path]; ok {
		return pkg, nil
	}
	lp, ok := ti.listed[path]
	if !ok || !slices.Contains(lp.Deps, ti.under) {
		return ti.base.Import(path)
	}
	pkg, err := check(ti.fset, ti, lp.Dir, path, lp.GoFiles)
	if err != nil {
		return nil, err
	}
	ti.checked[path] = pkg.Types
	return pkg.Types, nil
}

func goList(dir string, flags []string, patterns ...string) ([]listPackage, error) {
	args := append([]string{"list", "-json"}, flags...)
	args = append(args, "--")
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("load: go list: %v\n%s", err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var pkgs []listPackage
	seen := map[string]bool{}
	for {
		var p listPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("load: %s: %s", p.ImportPath, p.Error.Err)
		}
		if seen[p.ImportPath] {
			continue
		}
		seen[p.ImportPath] = true
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
