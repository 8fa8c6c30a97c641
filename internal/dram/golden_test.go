package dram

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"beacon/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files instead of comparing")

// goldenScenario is one DIMM configuration replayed by TestAccessSequenceGolden.
type goldenScenario struct {
	name     string
	cfg      func() Config
	coalesce int
	seed     uint64
	accesses int
}

var goldenScenarios = []goldenScenario{
	{"open-page", DefaultConfig, 4, 0xD1A1, 4000},
	{"closed-page", func() Config {
		c := DefaultConfig()
		c.ClosedPage = true
		return c
	}, 2, 0xD1A2, 4000},
	{"wide-faw", func() Config {
		c := DefaultConfig()
		c.TFAW = 90
		return c
	}, 8, 0xD1A3, 4000},
}

// replayAccessSequence drives a seeded access stream through one DIMM and
// renders every completion time, then the final Stats and the summed chip
// queueing delay. Time advances by short random gaps, so requests pile up
// behind busy banks and chips, with an occasional jump past one or more
// tREFI windows. Rows come from a small set per bank, so the stream mixes
// row hits, misses and conflicts; modes, ranks, chips, banks, sizes and
// read/write are all drawn per access.
func replayAccessSequence(t *testing.T, sc goldenScenario) (string, Stats) {
	t.Helper()
	d, err := NewDIMM(sc.name, sc.cfg(), sc.coalesce)
	if err != nil {
		t.Fatalf("NewDIMM: %v", err)
	}
	cfg := d.Config()
	rng := sim.NewRNG(sc.seed)
	modes := []AccessMode{ModeLockstep, ModePerChip, ModeCoalesced}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s coalesce=%d accesses=%d\n", sc.name, sc.coalesce, sc.accesses)
	now := sim.Cycle(0)
	for i := 0; i < sc.accesses; i++ {
		switch {
		case rng.Intn(400) == 0:
			now += sim.Cycle(cfg.TREFI + rng.Intn(3*cfg.TREFI))
		default:
			now += sim.Cycle(rng.Intn(20))
		}
		loc := Loc{
			Rank: rng.Intn(cfg.Ranks),
			Chip: rng.Intn(cfg.ChipsPerRank),
			Bank: rng.Intn(cfg.Banks()),
			Row:  int64(rng.Intn(3)),
		}
		bytes := 1 + rng.Intn(128)
		write := rng.Intn(4) == 0
		done, err := d.Access(now, loc, bytes, write, modes[rng.Intn(len(modes))])
		if err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
		fmt.Fprint(&b, done)
		if i%16 == 15 || i == sc.accesses-1 {
			b.WriteByte('\n')
		} else {
			b.WriteByte(' ')
		}
	}
	st := d.Stats()
	fmt.Fprintf(&b, "stats %+v\n", st)
	fmt.Fprintf(&b, "chip_wait_cycles %d\n", d.chipWaitCycles())
	return b.String(), st
}

// TestAccessSequenceGolden pins the DIMM timing model to the cycle: every
// completion time of a seeded 12k-access stream across all three access
// modes, open and closed page, tFAW throttling and refresh crossings, plus
// the final counters. Any change to bank, chip or refresh bookkeeping that
// moves a single grant shows up as a diff. Regenerate only for an
// intentional timing change, with `go test ./internal/dram -update`.
func TestAccessSequenceGolden(t *testing.T) {
	var out strings.Builder
	for _, sc := range goldenScenarios {
		s, st := replayAccessSequence(t, sc)
		out.WriteString(s)
		// The stream must actually exercise what the golden claims to pin.
		if st.RowMisses == 0 || st.FAWStalls == 0 || st.Refreshes == 0 || st.Writes == 0 || st.Reads == 0 {
			t.Errorf("%s: stream misses a timing path: %+v", sc.name, st)
		}
		if !sc.cfg().ClosedPage && (st.RowHits == 0 || st.RowConflicts == 0) {
			t.Errorf("%s: open-page stream lacks row hits or conflicts: %+v", sc.name, st)
		}
	}
	path := filepath.Join("testdata", "access_golden.txt")
	got := out.String()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("access sequence drifted from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("access sequence drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
