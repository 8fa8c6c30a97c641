package maporder

import (
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"beacon/tools/beaconlint/load"
)

// TestSinkMethodsExist resolves every obs and sim.Engine method the
// analyzer lists as a sink against the real packages, loaded from export
// data the way analysistest loads fixture imports. A listed method that no
// longer exists would match no call and silently drop its sink.
func TestSinkMethodsExist(t *testing.T) {
	const obsPath, simPath = "beacon/internal/obs", "beacon/internal/sim"
	exports, err := load.ExportMap("", obsPath, simPath)
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(t.TempDir(), "p.go")
	body := "package p\n\nimport (\n\t_ \"" + obsPath + "\"\n\t_ \"" + simPath + "\"\n)\n"
	if err := os.WriteFile(src, []byte(body), 0o666); err != nil {
		t.Fatal(err)
	}
	pkg, err := load.LoadFiles(token.NewFileSet(), "beacon/fixtures/sinks", []string{src}, exports)
	if err != nil {
		t.Fatal(err)
	}
	imported := map[string]*types.Package{}
	for _, p := range pkg.Types.Imports() {
		imported[p.Path()] = p
	}
	resolves := func(pkgPath, typeName, method string) bool {
		p := imported[pkgPath]
		if p == nil {
			t.Fatalf("%s was not imported", pkgPath)
		}
		tn, ok := p.Scope().Lookup(typeName).(*types.TypeName)
		if !ok {
			return false
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), false, p, method)
		_, ok = obj.(*types.Func)
		return ok
	}

	keys := make([]string, 0, len(obsEmitMethods))
	for k := range obsEmitMethods {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		typeName, method, _ := strings.Cut(key, ".")
		if !resolves(obsPath, typeName, method) {
			t.Errorf("obsEmitMethods lists %s, which %s does not define", key, obsPath)
		}
	}
	for _, method := range engineSchedulingMethods {
		if !resolves(simPath, "Engine", method) {
			t.Errorf("engineSchedulingMethods lists Engine.%s, which %s does not define", method, simPath)
		}
	}
}
