package cliutil

import (
	"bytes"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	beacon "beacon"
)

// TestOpenWorkloadCache pins how a -workload-cache value resolves: off
// disables, auto opens the per-user default, anything else opens that
// directory, and an unopenable directory degrades to no cache with a
// logged warning.
func TestOpenWorkloadCache(t *testing.T) {
	// Keep "auto" away from the real per-user cache.
	t.Setenv("XDG_CACHE_HOME", t.TempDir())
	t.Setenv("HOME", t.TempDir())
	def, err := beacon.DefaultWorkloadCacheDir()
	if err != nil {
		t.Fatal(err)
	}
	explicit := filepath.Join(t.TempDir(), "wc")
	notADir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	for _, tc := range []struct {
		value   string
		wantDir string // "" = no cache
		warn    bool
	}{
		{value: "off"},
		{value: "false"},
		{value: "no"},
		{value: "auto", wantDir: def},
		{value: "", wantDir: def},
		{value: explicit, wantDir: explicit},
		{value: filepath.Join(notADir, "sub"), warn: true},
	} {
		logged.Reset()
		wc := OpenWorkloadCache(tc.value)
		switch {
		case tc.wantDir == "" && wc != nil:
			t.Errorf("%q: opened %s, want no cache", tc.value, wc.Dir())
		case tc.wantDir != "" && wc == nil:
			t.Errorf("%q: no cache, want %s", tc.value, tc.wantDir)
		case wc != nil && wc.Dir() != tc.wantDir:
			t.Errorf("%q: opened %s, want %s", tc.value, wc.Dir(), tc.wantDir)
		}
		if got := strings.Contains(logged.String(), "workload cache disabled"); got != tc.warn {
			t.Errorf("%q: warning logged = %v (%q), want %v", tc.value, got, logged.String(), tc.warn)
		}
	}
}
