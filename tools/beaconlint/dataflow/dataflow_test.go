package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"beacon/tools/beaconlint/load"
)

// testExports resolves stdlib export data once per test binary, for test
// sources that import (only) the time package.
var (
	exportOnce sync.Once
	exportMap  map[string]string
	exportErr  error
)

// checkSrc type-checks one source string and returns its syntax and facts.
func checkSrc(t *testing.T, src string) (*ast.File, *types.Package, *types.Info) {
	t.Helper()
	exportOnce.Do(func() {
		exportMap, exportErr = load.ExportMap("", "time")
	})
	if exportErr != nil {
		t.Fatalf("resolving export data: %v", exportErr)
	}
	path := filepath.Join(t.TempDir(), "p.go")
	if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkg, err := load.LoadFiles(fset, "example.com/p", []string{path}, exportMap)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return pkg.Files[0], pkg.Types, pkg.Info
}

func TestKeyOf(t *testing.T) {
	_, pkg, _ := checkSrc(t, `package p

var Exported = 1

type T struct{}

func (t *T) Method() {}

func Fn() {
	local := 2
	_ = local
}
`)
	scope := pkg.Scope()

	if key, ok := KeyOf(scope.Lookup("Exported")); !ok || key != "example.com/p.Exported" {
		t.Errorf("KeyOf(Exported) = %q, %v", key, ok)
	}
	if key, ok := KeyOf(scope.Lookup("Fn")); !ok || key != "example.com/p.Fn" {
		t.Errorf("KeyOf(Fn) = %q, %v", key, ok)
	}
	method, _, _ := types.LookupFieldOrMethod(scope.Lookup("T").Type(), true, pkg, "Method")
	if key, ok := KeyOf(method); !ok || key != "example.com/p.T.Method" {
		t.Errorf("KeyOf(T.Method) = %q, %v", key, ok)
	}
	// Locals have no cross-package identity.
	fn := scope.Lookup("Fn").(*types.Func)
	local := fn.Scope().Lookup("local")
	if _, ok := KeyOf(local); ok {
		t.Error("KeyOf(local) should not produce a key")
	}
	if _, ok := KeyOf(nil); ok {
		t.Error("KeyOf(nil) should not produce a key")
	}
}

type testFact struct {
	Unit string `json:"u"`
}

func TestStoreRoundTrip(t *testing.T) {
	_, pkg, _ := checkSrc(t, `package p

func A() {}
func B() {}
`)
	a, b := pkg.Scope().Lookup("A"), pkg.Scope().Lookup("B")

	s := NewStore()
	if err := s.ExportFact("unitflow", a, testFact{Unit: "seconds"}); err != nil {
		t.Fatal(err)
	}
	if err := s.ExportFact("unitflow", b, testFact{Unit: "cycles"}); err != nil {
		t.Fatal(err)
	}
	if err := s.ExportFact("seedflow", a, testFact{Unit: "x"}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}

	var got testFact
	if !s.ImportFact("unitflow", a, &got) || got.Unit != "seconds" {
		t.Errorf("ImportFact(unitflow, A) = %+v", got)
	}
	// Analyzer namespaces are disjoint.
	got = testFact{}
	if !s.ImportFact("seedflow", a, &got) || got.Unit != "x" {
		t.Errorf("ImportFact(seedflow, A) = %+v", got)
	}
	if s.ImportFact("errwrap", a, &got) {
		t.Error("ImportFact for an analyzer with no facts should miss")
	}
	got = testFact{}
	if !s.ImportFact("unitflow", b, &got) || got.Unit != "cycles" {
		t.Errorf("ImportFact(unitflow, B) = %+v", got)
	}
}

func TestUnitNamingAndLattice(t *testing.T) {
	names := []struct {
		name string
		want Unit
	}{
		{"SetupSeconds", UnitSeconds},
		{"FAWStallCycles", UnitCycles},
		{"lastCycle", UnitCycles},
		{"MigratedBytes", UnitBytes},
		{"migrationBytesPerCycle", UnitBytesPerCycle},
		{"bytesPerCycle", UnitBytesPerCycle}, // whole name beats its "Cycle" tail
		{"PeakGBPerSec", UnitGBPerSec},
		{"seconds", UnitSeconds},
		{"payload", UnitUnknown},
		{"Count", UnitUnknown},
	}
	for _, tt := range names {
		if got := NameUnit(tt.name); got != tt.want {
			t.Errorf("NameUnit(%q) = %v, want %v", tt.name, got, tt.want)
		}
	}

	if u, ok := AddUnits(UnitCycles, UnitCycles); !ok || u != UnitCycles {
		t.Errorf("AddUnits(cycles, cycles) = %v, %v", u, ok)
	}
	if u, ok := AddUnits(UnitUnknown, UnitSeconds); !ok || u != UnitSeconds {
		t.Errorf("AddUnits(unknown, seconds) = %v, %v", u, ok)
	}
	if _, ok := AddUnits(UnitCycles, UnitSeconds); ok {
		t.Error("AddUnits(cycles, seconds) should be incompatible")
	}
	if u := MulUnit(UnitBytesPerCycle, UnitCycles); u != UnitBytes {
		t.Errorf("MulUnit(bpc, cycles) = %v, want bytes", u)
	}
	if u := MulUnit(UnitSeconds, UnitCycles); u != UnitUnknown {
		t.Errorf("MulUnit(seconds, cycles) = %v, want unknown", u)
	}
	if u := QuoUnit(UnitBytes, UnitCycles); u != UnitBytesPerCycle {
		t.Errorf("QuoUnit(bytes, cycles) = %v, want bpc", u)
	}
	if u := QuoUnit(UnitBytes, UnitBytesPerCycle); u != UnitCycles {
		t.Errorf("QuoUnit(bytes, bpc) = %v, want cycles", u)
	}

	// ParseUnit inverts String for every unit in the lattice.
	for _, u := range []Unit{UnitCycles, UnitSeconds, UnitBytes, UnitBytesPerCycle, UnitGBPerSec} {
		if got := ParseUnit(u.String()); got != u {
			t.Errorf("ParseUnit(%q) = %v, want %v", u.String(), got, u)
		}
	}
	if got := ParseUnit("furlongs"); got != UnitUnknown {
		t.Errorf("ParseUnit(furlongs) = %v, want unknown", got)
	}
}

// sourcesOf indexes fn and returns the source kinds of the expression
// assigned to the variable named "probe".
func sourcesOf(t *testing.T, src string) []SourceKind {
	t.Helper()
	f, _, info := checkSrc(t, src)
	var fd *ast.FuncDecl
	for _, decl := range f.Decls {
		if d, ok := decl.(*ast.FuncDecl); ok && d.Name.Name == "fn" {
			fd = d
		}
	}
	if fd == nil {
		t.Fatal("no func fn in source")
	}
	idx := IndexFunc(info, fd.Type, fd.Body)
	var probe ast.Expr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
			if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "probe" {
				probe = as.Rhs[0]
			}
		}
		return true
	})
	if probe == nil {
		t.Fatal("no probe assignment in fn")
	}
	var kinds []SourceKind
	for _, s := range idx.Sources(probe) {
		kinds = append(kinds, s.Kind)
	}
	return kinds
}

func hasKind(kinds []SourceKind, k SourceKind) bool {
	for _, got := range kinds {
		if got == k {
			return true
		}
	}
	return false
}

func TestSourcesRoots(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want SourceKind
	}{
		{"constant", `package p
func fn() { probe := 42; _ = probe }`, SrcConst},
		{"param", `package p
func fn(seed uint64) { probe := seed + 1; _ = probe }`, SrcParam},
		{"field", `package p
type cfg struct{ Seed uint64 }
func fn(c cfg) { probe := c.Seed; _ = probe }`, SrcStable},
		{"package var", `package p
var base uint64
func fn() { probe := base; _ = probe }`, SrcStable},
		{"range element", `package p
func fn(xs []uint64) {
	for _, x := range xs {
		probe := x
		_ = probe
	}
}`, SrcStable},
		{"range index", `package p
func fn(xs []uint64) {
	for i := range xs {
		probe := uint64(i)
		_ = probe
	}
}`, SrcRangeIndex},
		{"map counter", `package p
func fn(m map[string]int) {
	n := 0
	for range m {
		n++
	}
	probe := n
	_ = probe
}`, SrcMapOrdered},
		{"ambient clock", `package p
import "time"
func fn() { probe := time.Now().UnixNano(); _ = probe }`, SrcAmbient},
		{"assignment chain", `package p
func fn(xs []int) {
	for i := range xs {
		j := i
		k := j * 3
		probe := k
		_ = probe
	}
}`, SrcRangeIndex},
		{"int range is a deterministic counter", `package p
func fn() {
	for i := range 8 {
		probe := i
		_ = probe
	}
}`, SrcStable},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			kinds := sourcesOf(t, tt.src)
			if !hasKind(kinds, tt.want) {
				t.Errorf("Sources = %v, want to include %v", kinds, tt.want)
			}
			// Negative control: a benign root never reads as a range index
			// unless the test expects one.
			if tt.want != SrcRangeIndex && hasKind(kinds, SrcRangeIndex) {
				t.Errorf("Sources = %v, unexpected range-index root", kinds)
			}
		})
	}
}
