package load

import (
	"path/filepath"
	"testing"
)

// TestLoadExternalTestThroughDependent pins that an external test package
// importing a dependent of the package under test type-checks: the
// dependent is checked against the same test-augmented package, so its
// values carry the package under test's types.
func TestLoadExternalTestThroughDependent(t *testing.T) {
	pkgs, err := Load(Config{Dir: filepath.Join("testdata", "xtestmod"), Tests: true}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	want := []string{"example.com/xtestmod/p", "example.com/xtestmod/p_test", "example.com/xtestmod/q"}
	if len(paths) != len(want) {
		t.Fatalf("loaded %v, want %v", paths, want)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("loaded %v, want %v", paths, want)
		}
	}
}
