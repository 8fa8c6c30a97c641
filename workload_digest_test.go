package beacon

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"beacon/internal/trace"
)

// digestCase is one workload build whose encoded trace the digest golden
// pins.
type digestCase struct {
	label string
	app   Application
	cfg   WorkloadConfig
}

// digestCases enumerates the builds behind testdata/workload_digests.txt:
// every application on a seeding genome and on the human-like genome at
// three scales and two seeds, plus the single-pass k-mer flow, MEM-based
// FM seeding, and non-default k-mer lengths and edit thresholds (k = 32 is
// the packed k-mer's mask edge, MaxEdits 0 and 8 the narrowest and widest
// bands the pre-alignment filter commonly sees).
func digestCases() []digestCase {
	var out []digestCase
	add := func(label string, app Application, cfg WorkloadConfig) {
		out = append(out, digestCase{label: label, app: app, cfg: cfg})
	}
	base := func(sp Species, scale int, seed uint64) WorkloadConfig {
		cfg := DefaultWorkloadConfig(sp)
		cfg.GenomeScale = scale
		cfg.Reads = 200
		cfg.Seed = seed
		return cfg
	}
	apps := []Application{FMSeeding, HashSeeding, KmerCounting, PreAlignment}
	for _, sp := range []Species{PinusTaeda, Human} {
		for _, scale := range []int{500, 2_000, 8_000} {
			for _, seed := range []uint64{0xBEAC07, 7} {
				for _, app := range apps {
					add(fmt.Sprintf("%v/%s/%d/%#x", app, sp, scale, seed), app, base(sp, scale, seed))
				}
			}
			cfg := base(sp, scale, 0xBEAC07)
			cfg.Flow = SinglePass
			add(fmt.Sprintf("%v/%s/%d/%#x/singlepass", KmerCounting, sp, scale, cfg.Seed), KmerCounting, cfg)
			cfg = base(sp, scale, 0xBEAC07)
			cfg.MEMSeeding = true
			add(fmt.Sprintf("%v/%s/%d/%#x/mem", FMSeeding, sp, scale, cfg.Seed), FMSeeding, cfg)
		}
	}
	for _, v := range []struct{ k, maxEdits int }{{32, 0}, {17, 8}} {
		for _, flow := range []KmerFlow{MultiPass, SinglePass} {
			cfg := base(PinusTaeda, 2_000, 11)
			cfg.K, cfg.Flow = v.k, flow
			add(fmt.Sprintf("%v/%s/%d/%#x/k=%d/flow=%d", KmerCounting, cfg.Species, cfg.GenomeScale, cfg.Seed, v.k, flow), KmerCounting, cfg)
		}
		cfg := base(PinusTaeda, 2_000, 11)
		cfg.MaxEdits = v.maxEdits
		add(fmt.Sprintf("%v/%s/%d/%#x/e=%d", PreAlignment, cfg.Species, cfg.GenomeScale, cfg.Seed, v.maxEdits), PreAlignment, cfg)
	}
	return out
}

// TestWorkloadDigests locks the encoded trace of every digestCases build to
// a committed SHA-256, so a rewrite of a functional kernel (genome
// synthesis, index construction, seeding, counting, filtering) that changes
// a single emitted step fails here, not only as a drifted timing figure.
// Kernel changes that keep trace emission exact must leave this file alone
// (and workloadGenVersion unbumped). Regenerate deliberately, together with
// a workloadGenVersion bump, with:
//
//	go test -run TestWorkloadDigests -update .
func TestWorkloadDigests(t *testing.T) {
	t.Parallel()
	var sb strings.Builder
	for _, c := range digestCases() {
		wl, err := NewWorkload(c.app, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		fmt.Fprintf(&sb, "%s %x\n", c.label, sha256.Sum256(trace.EncodeWorkload(wl.tr)))
	}
	got := sb.String()
	path := filepath.Join("testdata", "workload_digests.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s has %d lines, the builds give %d", path, len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("trace digest drifted:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
