package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// buildOnce compiles the beaconlint binary once per test binary.
var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

func lintBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "beaconlint-cli")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "beaconlint")
		out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
		if err != nil {
			buildErr = err
			binPath = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building beaconlint: %v\n%s", buildErr, binPath)
	}
	return binPath
}

// runLint executes the binary and returns (stdout, stderr, exit code).
func runLint(t *testing.T, dir string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(lintBinary(t), args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running beaconlint: %v", err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

// The standalone driver's exit codes: 0 clean, 1 load error, 2 findings.

func TestStandaloneExitClean(t *testing.T) {
	stdout, stderr, code := runLint(t, factmodDir, "./a")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if stderr != "" {
		t.Errorf("clean run wrote to stderr: %s", stderr)
	}
}

func TestStandaloneExitLoadError(t *testing.T) {
	_, stderr, code := runLint(t, factmodDir, "./doesnotexist")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "beaconlint:") {
		t.Errorf("load error not reported on stderr: %s", stderr)
	}
}

func TestStandaloneExitFindings(t *testing.T) {
	stdout, stderr, code := runLint(t, factmodDir, "./...")
	if code != 2 {
		t.Fatalf("exit = %d, want 2\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stderr, "[unitflow]") || !strings.Contains(stderr, "[seedflow]") {
		t.Errorf("expected unitflow and seedflow findings on stderr, got: %s", stderr)
	}
	if stdout != "" {
		t.Errorf("without -json, stdout must stay empty, got: %s", stdout)
	}
}

// TestStandaloneJSON pins the -json wire format: one object per line on
// stdout, the human form still on stderr.
func TestStandaloneJSON(t *testing.T) {
	stdout, stderr, code := runLint(t, factmodDir, "-json", "./...")
	if code != 2 {
		t.Fatalf("exit = %d, want 2\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "[unitflow]") {
		t.Errorf("-json must keep the human form on stderr, got: %s", stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) == 0 {
		t.Fatal("no JSON diagnostics on stdout")
	}
	var sawUnitflow bool
	for _, line := range lines {
		var d jsonDiagnostic
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("stdout line is not a JSON diagnostic: %q: %v", line, err)
		}
		if d.File == "" || d.Line <= 0 || d.Col <= 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
		if d.Analyzer == "unitflow" && strings.HasSuffix(d.File, "b.go") {
			sawUnitflow = true
		}
	}
	if !sawUnitflow {
		t.Error("expected a unitflow diagnostic for b.go in the JSON stream")
	}
}
