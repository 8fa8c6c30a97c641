package calib

import (
	"bytes"
	"strings"
	"testing"

	"beacon/internal/cxl"
	"beacon/internal/dram"
	"beacon/internal/obs"
	"beacon/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	if err := QuickConfig().Validate(); err != nil {
		t.Fatalf("QuickConfig invalid: %v", err)
	}
	if err := FullConfig().Validate(); err != nil {
		t.Fatalf("FullConfig invalid: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"bad dimm", func(c *Config) { c.DIMM.Ranks = 0 }, "ranks"},
		{"ideal fabric", func(c *Config) { c.Fabric.Ideal = true }, "ideal fabric"},
		{"no platforms", func(c *Config) { c.Platforms = nil }, "no platforms"},
		{"empty platform name", func(c *Config) { c.Platforms[0].Name = "" }, "empty name"},
		{"duplicate platform", func(c *Config) { c.Platforms[1].Name = c.Platforms[0].Name }, "duplicate"},
		{"unknown path", func(c *Config) { c.Platforms[0].Via = Path(99) }, "unknown path"},
		{"no patterns", func(c *Config) { c.Patterns = nil }, "no patterns"},
		{"unknown pattern", func(c *Config) { c.Patterns = []Pattern{"zigzag"} }, "unknown pattern"},
		{"no sizes", func(c *Config) { c.Sizes = nil }, "empty sweep axis"},
		{"no depths", func(c *Config) { c.Depths = nil }, "empty sweep axis"},
		{"no write mixes", func(c *Config) { c.WritePcts = nil }, "empty sweep axis"},
		{"bad size", func(c *Config) { c.Sizes = []int{0} }, "request size"},
		{"bad depth", func(c *Config) { c.Depths = []int{-1} }, "queue depth"},
		{"bad write pct", func(c *Config) { c.WritePcts = []int{101} }, "outside [0,100]"},
		{"bad requests", func(c *Config) { c.Requests = 0 }, "requests per point"},
		{"bad coalesce", func(c *Config) { c.Coalesce = 0 }, "coalesce"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := QuickConfig()
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted a bad config")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// A DRAM-only config with a bogus fabric must validate: the fabric is only
// consulted when a pool path is swept.
func TestConfigValidateDRAMOnlySkipsFabric(t *testing.T) {
	cfg := QuickConfig()
	cfg.Platforms = []PlatformSpec{DDRPlatform()}
	cfg.Fabric = cxl.Config{Ideal: true}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("DRAM-only config rejected: %v", err)
	}
}

func TestPathString(t *testing.T) {
	cases := []struct {
		p    Path
		want string
	}{
		{PathDRAM, "dram"},
		{PathSwitch, "switch"},
		{PathHost, "host"},
		{Path(7), "path(7)"},
	}
	for _, tc := range cases {
		if got := tc.p.String(); got != tc.want {
			t.Errorf("Path(%d).String() = %q, want %q", tc.p, got, tc.want)
		}
	}
}

func TestAllPatternsKnown(t *testing.T) {
	ps := AllPatterns()
	if len(ps) != 5 {
		t.Fatalf("expected 5 patterns, got %d", len(ps))
	}
	for _, p := range ps {
		if !knownPattern(p) {
			t.Errorf("pattern %q not known", p)
		}
	}
	if knownPattern("zigzag") {
		t.Error("knownPattern accepted an unknown name")
	}
}

func TestWriteAt(t *testing.T) {
	for _, pct := range []int{0, 25, 50, 100} {
		writes := 0
		for i := 0; i < 400; i++ {
			if writeAt(i, pct) {
				writes++
			}
		}
		if want := 400 * pct / 100; writes != want {
			t.Errorf("pct=%d: %d writes over 400 requests, want %d", pct, writes, want)
		}
	}
	// The mix must be exact over any prefix, not just the total.
	for i := 0; i < 100; i++ {
		if got := writeAt(i, 50); got != (i%2 == 1) {
			t.Errorf("writeAt(%d, 50) = %v", i, got)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		p    int
		want int64
	}{{50, 50}, {95, 100}, {99, 100}, {100, 100}, {1, 10}} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("percentile(%d) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile([]int64{42}, 50); got != 42 {
		t.Errorf("single-sample p50 = %d, want 42", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %d, want 0", got)
	}
}

// Pattern generators must honour their structural contracts: coordinates in
// range, chip index on a group boundary, and the locality the pattern name
// promises.
func TestGenerators(t *testing.T) {
	cfg := QuickConfig()
	const n = 512
	for _, plat := range cfg.Platforms {
		g := newGeom(cfg, plat)
		for _, p := range AllPatterns() {
			rng := sim.NewRNG(7)
			gen := newGenerator(p, g, 64, 4, rng)
			locs := make([]dram.Loc, n)
			for i := range locs {
				locs[i] = gen.next(i % 4)
				l := locs[i]
				if l.Rank < 0 || int(l.Rank) >= g.ranks || l.Bank < 0 || int(l.Bank) >= g.banks {
					t.Fatalf("%s/%s: out-of-range loc %+v", plat.Name, p, l)
				}
				if int(l.Chip)%g.width != 0 || int(l.Chip) >= g.chipsPerRank {
					t.Fatalf("%s/%s: chip %d not on a width-%d group boundary", plat.Name, p, l.Chip, g.width)
				}
				if l.Row < 0 || l.Row >= rowWindow {
					t.Fatalf("%s/%s: row %d outside the row window", plat.Name, p, l.Row)
				}
			}
			switch p {
			case PatternBankAdversarial:
				for i, l := range locs {
					if l.Rank != 0 || l.Chip != 0 || l.Bank != 0 {
						t.Fatalf("adversarial loc %d not pinned to bank 0: %+v", i, l)
					}
					if i > 0 && l.Row == locs[i-1].Row {
						t.Fatalf("adversarial consecutive rows equal at %d", i)
					}
				}
			case PatternRowFriendly:
				for _, l := range locs {
					if l.Row != 0 || l.Rank != 0 || l.Chip != 0 || l.Bank >= rowFriendlyBanks {
						t.Fatalf("row-friendly loc escapes its bank set: %+v", l)
					}
				}
			case PatternStreaming:
				// Each (rank, group) stream revisits its row reqsPerRow
				// consecutive times before moving on.
				per := reqsPerRow(g, 64)
				streams := g.ranks * g.groups
				for i := streams; i < n; i++ {
					prev, cur := locs[i-streams], locs[i]
					if prev.Rank != cur.Rank || prev.Chip != cur.Chip {
						t.Fatalf("streaming stream %d hopped rank/chip at %d", i%streams, i)
					}
					if (i/streams)%per != 0 && prev != cur {
						t.Fatalf("streaming left its row early at %d: %+v -> %+v", i, prev, cur)
					}
				}
			}
		}
	}
}

// Pointer-chase chains are independent: replaying with a different number
// of chains must leave each chain's own walk unchanged.
func TestChaseChainsIndependent(t *testing.T) {
	cfg := QuickConfig()
	g := newGeom(cfg, DDRPlatform())
	a := newGenerator(PatternPointerChase, g, 64, 4, sim.NewRNG(9))
	b := newGenerator(PatternPointerChase, g, 64, 4, sim.NewRNG(9))
	// Interleave chains differently; per-chain sequences must agree.
	seqA := map[int][]dram.Loc{}
	for i := 0; i < 64; i++ {
		slot := i % 4
		seqA[slot] = append(seqA[slot], a.next(slot))
	}
	seqB := map[int][]dram.Loc{}
	for slot := 0; slot < 4; slot++ {
		for i := 0; i < 16; i++ {
			seqB[slot] = append(seqB[slot], b.next(slot))
		}
	}
	for slot := 0; slot < 4; slot++ {
		for i := range seqA[slot] {
			if seqA[slot][i] != seqB[slot][i] {
				t.Fatalf("chain %d diverges at step %d under different interleaving", slot, i)
			}
		}
	}
}

func TestReqsPerRow(t *testing.T) {
	g := geom{width: 4, rowBytes: 1024}
	if got := reqsPerRow(g, 64); got != 64 {
		t.Errorf("reqsPerRow(64) = %d, want 64", got)
	}
	if got := reqsPerRow(g, 1<<20); got != 1 {
		t.Errorf("oversized request reqsPerRow = %d, want 1", got)
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := QuickConfig()
	cfg.Requests = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run accepted an invalid config")
	}
}

// A tiny end-to-end run: every requested sweep point yields a curve, in
// deterministic order, with sane metrics and a valid re-decodable artifact.
func TestRunSmoke(t *testing.T) {
	cfg := QuickConfig()
	cfg.Platforms = []PlatformSpec{DDRPlatform(), BeaconDirectPlatform()}
	cfg.Patterns = []Pattern{PatternStreaming, PatternBankAdversarial}
	cfg.Sizes = []int{64}
	cfg.Depths = []int{2}
	cfg.WritePcts = []int{0}
	cfg.Requests = 64

	art, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2; len(art.Curves) != want {
		t.Fatalf("got %d curves, want %d", len(art.Curves), want)
	}
	if art.Version != ArtifactVersion || art.Seed != cfg.Seed || art.Requests != cfg.Requests {
		t.Fatalf("artifact header wrong: %+v", art)
	}
	for _, c := range art.Curves {
		if c.Metrics.P50Cycles <= 0 || c.Metrics.GBPerSec <= 0 {
			t.Errorf("%s: degenerate metrics %+v", c.Key(), c.Metrics)
		}
	}
	if vs := CheckEnvelopes(art, cfg); len(vs) != 0 {
		t.Fatalf("envelope violations: %v", vs)
	}

	enc, err := art.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if len(Compare(art, back, obs.DiffOptions{})) != 0 {
		t.Fatal("decoded artifact drifted from the original")
	}
}

// The same config must produce byte-identical artifacts on repeated runs.
func TestRunDeterministic(t *testing.T) {
	cfg := QuickConfig()
	cfg.Platforms = []PlatformSpec{BeaconSwitchedPlatform()}
	cfg.Sizes = []int{64}
	cfg.Depths = []int{4}
	cfg.WritePcts = []int{50}
	cfg.Requests = 128

	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ea, _ := a.EncodeBytes()
	eb, _ := b.EncodeBytes()
	if string(ea) != string(eb) {
		t.Fatal("two runs of the same config produced different artifacts")
	}
}

// Curves are seeded per sweep point, so removing an axis value must not
// change the curves at the remaining coordinates.
func TestCurvesIndependentOfSweepComposition(t *testing.T) {
	narrow := QuickConfig()
	narrow.Platforms = []PlatformSpec{DDRPlatform()}
	narrow.Patterns = []Pattern{PatternRandom}
	narrow.Sizes = []int{64}
	narrow.Depths = []int{4}
	narrow.WritePcts = []int{0}
	narrow.Requests = 128

	wide := narrow
	wide.Sizes = []int{64, 512}
	wide.Depths = []int{4, 8}

	na, err := Run(narrow)
	if err != nil {
		t.Fatal(err)
	}
	wa, err := Run(wide)
	if err != nil {
		t.Fatal(err)
	}
	key := na.Curves[0].Key()
	for _, c := range wa.Curves {
		if c.Key() == key {
			if c.Metrics != na.Curves[0].Metrics {
				t.Fatalf("curve %s changed when the sweep widened:\n%+v\n%+v", key, na.Curves[0].Metrics, c.Metrics)
			}
			return
		}
	}
	t.Fatalf("curve %s missing from the wide sweep", key)
}

func TestTable(t *testing.T) {
	cfg := QuickConfig()
	cfg.Platforms = []PlatformSpec{DDRPlatform()}
	cfg.Patterns = []Pattern{PatternRowFriendly}
	cfg.Sizes = []int{64}
	cfg.Depths = []int{1}
	cfg.WritePcts = []int{0}
	cfg.Requests = 32
	art, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := Table("calibration", art)
	for _, want := range []string{"calibration", "platform", "row-friendly", "GB/s", "ddr"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
