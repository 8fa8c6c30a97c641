package dram

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"beacon/internal/sim"
)

func testDIMM(t *testing.T, coalesce int) *DIMM {
	t.Helper()
	d, err := NewDIMM("d0", DefaultConfig(), coalesce)
	if err != nil {
		t.Fatalf("NewDIMM: %v", err)
	}
	return d
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mut := []func(*Config){
		func(c *Config) { c.Ranks = 0 },
		func(c *Config) { c.ChipsPerRank = 0 },
		func(c *Config) { c.ChipIOBytes = 0 },
		func(c *Config) { c.BankGroups = 0 },
		func(c *Config) { c.RowBytes = 0 },
		func(c *Config) { c.CapacityBytes = 0 },
		func(c *Config) { c.TRCD = 0 },
		func(c *Config) { c.TBL = -1 },
	}
	for i, f := range mut {
		c := DefaultConfig()
		f(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestConfigDerived(t *testing.T) {
	c := DefaultConfig()
	if got := c.Banks(); got != 16 {
		t.Errorf("Banks = %d, want 16", got)
	}
	if got := c.RankBurstBytes(); got != 64 {
		t.Errorf("RankBurstBytes = %d, want 64", got)
	}
	if got := c.PeakBytesPerCycle(); got != 64 {
		t.Errorf("PeakBytesPerCycle = %g, want 64", got)
	}
}

func TestNewDIMMValidation(t *testing.T) {
	if _, err := NewDIMM("x", DefaultConfig(), 0); err == nil {
		t.Error("coalesce 0 accepted")
	}
	if _, err := NewDIMM("x", DefaultConfig(), 3); err == nil {
		t.Error("non-divisor coalesce accepted")
	}
	if _, err := NewDIMM("x", DefaultConfig(), 32); err == nil {
		t.Error("oversized coalesce accepted")
	}
	bad := DefaultConfig()
	bad.Ranks = 0
	if _, err := NewDIMM("x", bad, 1); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestRowHitFasterThanMissFasterThanConflict(t *testing.T) {
	d := testDIMM(t, 8)
	cfg := d.Config()
	loc := Loc{Rank: 0, Chip: 0, Bank: 0, Row: 5}

	// First access: row miss (precharged bank): tRCD + tBL + tCL.
	done, err := d.Access(0, loc, 32, false, ModeCoalesced)
	if err != nil {
		t.Fatalf("Access: %v", err)
	}
	wantMiss := sim.Cycle(cfg.TRCD + cfg.TBL + cfg.TCL)
	if done != wantMiss {
		t.Errorf("miss latency = %d, want %d", done, wantMiss)
	}

	// Same row again, bank now free at wantMiss-TCL... request at a later
	// idle time: row hit: tBL + tCL only.
	start := sim.Cycle(1000)
	done, err = d.Access(start, loc, 32, false, ModeCoalesced)
	if err != nil {
		t.Fatalf("Access: %v", err)
	}
	wantHit := start + sim.Cycle(cfg.TBL+cfg.TCL)
	if done != wantHit {
		t.Errorf("hit latency = %d, want %d", done-start, wantHit-start)
	}

	// Different row: conflict: tRP + tRCD + tBL + tCL.
	loc2 := loc
	loc2.Row = 9
	start = sim.Cycle(2000)
	done, err = d.Access(start, loc2, 32, false, ModeCoalesced)
	if err != nil {
		t.Fatalf("Access: %v", err)
	}
	wantConf := start + sim.Cycle(cfg.TRP+cfg.TRCD+cfg.TBL+cfg.TCL)
	if done != wantConf {
		t.Errorf("conflict latency = %d, want %d", done-start, wantConf-start)
	}

	s := d.Stats()
	if s.RowMisses != 1 || s.RowHits != 1 || s.RowConflicts != 1 {
		t.Errorf("stats misses/hits/conflicts = %d/%d/%d, want 1/1/1",
			s.RowMisses, s.RowHits, s.RowConflicts)
	}
}

func TestPerChipModeUsesOneChip(t *testing.T) {
	d := testDIMM(t, 8)
	if _, err := d.Access(0, Loc{Chip: 3, Row: 1}, 32, false, ModePerChip); err != nil {
		t.Fatalf("Access: %v", err)
	}
	s := d.Stats()
	// 32 B through one x4 chip = 8 bursts on chip 3 only.
	for ch, n := range s.PerChipAccesses {
		want := uint64(0)
		if ch == 3 {
			want = 8
		}
		if n != want {
			t.Errorf("chip %d bursts = %d, want %d", ch, n, want)
		}
	}
	if s.TransferredBytes != 32 {
		t.Errorf("transferred = %d, want 32 (no waste)", s.TransferredBytes)
	}
}

func TestLockstepWastesBytes(t *testing.T) {
	d := testDIMM(t, 8)
	if _, err := d.Access(0, Loc{Row: 1}, 32, false, ModeLockstep); err != nil {
		t.Fatalf("Access: %v", err)
	}
	s := d.Stats()
	if s.TransferredBytes != 64 {
		t.Errorf("lockstep transferred %d bytes for a 32 B request, want 64", s.TransferredBytes)
	}
	if s.UsefulBytes != 32 {
		t.Errorf("useful = %d, want 32", s.UsefulBytes)
	}
}

func TestCoalescedSweetSpot(t *testing.T) {
	// With a group of 8 x4 chips, one burst moves exactly 32 B: no waste and
	// only one burst of occupancy.
	d := testDIMM(t, 8)
	if _, err := d.Access(0, Loc{Chip: 8, Row: 1}, 32, false, ModeCoalesced); err != nil {
		t.Fatalf("Access: %v", err)
	}
	s := d.Stats()
	if s.TransferredBytes != 32 || s.BurstsIssued != 1 {
		t.Errorf("coalesced: transferred=%d bursts=%d, want 32/1", s.TransferredBytes, s.BurstsIssued)
	}
	// Chips 8..15 each saw one burst.
	for ch, n := range s.PerChipAccesses {
		want := uint64(0)
		if ch >= 8 {
			want = 1
		}
		if n != want {
			t.Errorf("chip %d bursts = %d, want %d", ch, n, want)
		}
	}
}

func TestIndependentChipsServeInParallel(t *testing.T) {
	d := testDIMM(t, 1)
	// Two per-chip requests to different chips at the same instant must not
	// queue behind each other.
	d1, err := d.Access(0, Loc{Chip: 0, Bank: 0, Row: 1}, 32, false, ModePerChip)
	if err != nil {
		t.Fatalf("Access: %v", err)
	}
	d2, err := d.Access(0, Loc{Chip: 1, Bank: 0, Row: 1}, 32, false, ModePerChip)
	if err != nil {
		t.Fatalf("Access: %v", err)
	}
	if d1 != d2 {
		t.Errorf("parallel chips finished at %d and %d, want equal", d1, d2)
	}
	// Same chip: the second serializes.
	d3, _ := d.Access(0, Loc{Chip: 0, Bank: 0, Row: 1}, 32, false, ModePerChip)
	if d3 <= d1 {
		t.Errorf("same-chip request finished at %d, want after %d", d3, d1)
	}
}

func TestSameBankSerializes(t *testing.T) {
	d := testDIMM(t, 8)
	loc := Loc{Rank: 1, Chip: 0, Bank: 5, Row: 2}
	a, _ := d.Access(0, loc, 32, false, ModeCoalesced)
	b, _ := d.Access(0, loc, 32, false, ModeCoalesced)
	if b <= a {
		t.Errorf("same-bank accesses overlapped: %d then %d", a, b)
	}
	// Different banks on different chips proceed in parallel.
	c1, _ := d.Access(0, Loc{Rank: 2, Chip: 0, Bank: 1, Row: 2}, 32, false, ModeCoalesced)
	c2, _ := d.Access(0, Loc{Rank: 2, Chip: 8, Bank: 2, Row: 2}, 32, false, ModeCoalesced)
	if c1 != c2 {
		t.Errorf("independent banks finished at %d and %d, want equal", c1, c2)
	}
}

func TestAccessValidation(t *testing.T) {
	d := testDIMM(t, 8)
	cases := []struct {
		loc  Loc
		size int
		mode AccessMode
	}{
		{Loc{Rank: 99}, 32, ModeLockstep},
		{Loc{Bank: 99}, 32, ModeLockstep},
		{Loc{Row: -1}, 32, ModeLockstep},
		{Loc{}, 0, ModeLockstep},
		{Loc{Chip: 99}, 32, ModePerChip},
		{Loc{}, 32, AccessMode(9)},
	}
	for i, c := range cases {
		if _, err := d.Access(0, c.loc, c.size, false, c.mode); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestChipImbalanceMetric(t *testing.T) {
	d := testDIMM(t, 1)
	if d.ChipImbalance() != 0 {
		t.Error("imbalance of untouched DIMM should be 0")
	}
	// Hammer one chip: imbalance should be high.
	for i := 0; i < 64; i++ {
		if _, err := d.Access(sim.Cycle(i*100), Loc{Chip: 0, Row: int32(i)}, 32, false, ModePerChip); err != nil {
			t.Fatalf("Access: %v", err)
		}
	}
	skew := d.ChipImbalance()
	if skew < 1 {
		t.Errorf("single-chip hammering imbalance = %g, want >= 1", skew)
	}
	// Balanced round-robin: near zero.
	d2 := testDIMM(t, 1)
	for i := 0; i < 64; i++ {
		if _, err := d2.Access(sim.Cycle(i*100), Loc{Chip: int32(i % 16), Row: int32(i)}, 32, false, ModePerChip); err != nil {
			t.Fatalf("Access: %v", err)
		}
	}
	if got := d2.ChipImbalance(); got != 0 {
		t.Errorf("round-robin imbalance = %g, want 0", got)
	}
}

func TestWritesCounted(t *testing.T) {
	d := testDIMM(t, 8)
	if _, err := d.Access(0, Loc{Row: 0}, 16, true, ModeLockstep); err != nil {
		t.Fatalf("Access: %v", err)
	}
	s := d.Stats()
	if s.Writes != 1 || s.Reads != 0 {
		t.Errorf("writes/reads = %d/%d, want 1/0", s.Writes, s.Reads)
	}
}

// Property: completion time is always strictly after the request time and
// never regresses relative to prior completions on the same bank.
func TestAccessMonotonicProperty(t *testing.T) {
	f := func(rows []uint8) bool {
		d, err := NewDIMM("p", DefaultConfig(), 8)
		if err != nil {
			return false
		}
		now := sim.Cycle(0)
		var lastDone sim.Cycle
		for _, r := range rows {
			done, err := d.Access(now, Loc{Bank: int32(r % 16), Row: int32(r)}, 32, false, ModeCoalesced)
			if err != nil || done <= now {
				return false
			}
			if done < lastDone && int(r)%16 == 0 {
				return false
			}
			lastDone = done
			now += 3
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEnergyModel(t *testing.T) {
	m := DefaultEnergyModel()
	d := testDIMM(t, 8)
	for i := 0; i < 10; i++ {
		if _, err := d.Access(sim.Cycle(i*200), Loc{Row: int32(i)}, 32, false, ModeCoalesced); err != nil {
			t.Fatalf("Access: %v", err)
		}
	}
	e := m.AccessEnergyPJ(d.Stats(), 8)
	if e <= 0 {
		t.Errorf("access energy = %g, want positive", e)
	}
	// 10 activations dominate: energy must exceed 10 * ActPJ.
	if e < 10*m.ActPJ {
		t.Errorf("energy %g below activation floor %g", e, 10*m.ActPJ)
	}
	if bg := m.BackgroundEnergyPJ(1000, 4); bg <= 0 {
		t.Error("background energy must be positive")
	}
}

func TestRefreshCharged(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TFAW = 0
	d, err := NewDIMM("r", cfg, 8)
	if err != nil {
		t.Fatalf("NewDIMM: %v", err)
	}
	loc := Loc{Row: 1}
	// First access in window 0: no refresh due yet.
	d1, _ := d.Access(0, loc, 32, false, ModeCoalesced)
	base := d1 // tRCD + tBL + tCL
	// Next access far into window 2: one tRFC charged.
	start := sim.Cycle(2*cfg.TREFI + 100)
	d2, _ := d.Access(start, loc, 32, false, ModeCoalesced)
	// Row hit + refresh: tRFC + tBL + tCL.
	want := start + sim.Cycle(cfg.TRFC+cfg.TBL+cfg.TCL)
	if d2 != want {
		t.Errorf("refresh-window access done at %d, want %d", d2, want)
	}
	if got := d.Stats().Refreshes; got != 1 {
		t.Errorf("refreshes = %d, want 1", got)
	}
	_ = base
	// Refresh disabled: no charge.
	cfg.TREFI = 0
	d0, _ := NewDIMM("r0", cfg, 8)
	d0.Access(0, loc, 32, false, ModeCoalesced)
	d3, _ := d0.Access(start, loc, 32, false, ModeCoalesced)
	if d3 != start+sim.Cycle(cfg.TBL+cfg.TCL) {
		t.Errorf("disabled refresh still charged: %d", d3-start)
	}
}

func TestFAWThrottlesActivationBursts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TREFI = 0
	d, err := NewDIMM("f", cfg, 1)
	if err != nil {
		t.Fatalf("NewDIMM: %v", err)
	}
	// Five activations on the same chip, different banks, all at t=0: the
	// fifth must wait for the tFAW window.
	var done [5]sim.Cycle
	for i := 0; i < 5; i++ {
		done[i], _ = d.Access(0, Loc{Chip: 0, Bank: int32(i), Row: 1}, 4, false, ModePerChip)
	}
	if d.Stats().FAWStalls == 0 {
		t.Error("no FAW stalls recorded")
	}
	if done[4] <= done[3] {
		t.Errorf("fifth activation (%d) not delayed past fourth (%d)", done[4], done[3])
	}
	// A different chip is unaffected.
	other, _ := d.Access(0, Loc{Chip: 1, Bank: 0, Row: 1}, 4, false, ModePerChip)
	if other != done[0] {
		t.Errorf("other chip delayed: %d vs %d", other, done[0])
	}
}

func TestConfigRejectsBadRefresh(t *testing.T) {
	c := DefaultConfig()
	c.TRFC = -1
	if c.Validate() == nil {
		t.Error("negative tRFC accepted")
	}
	c = DefaultConfig()
	c.TRFC = c.TREFI
	if c.Validate() == nil {
		t.Error("tRFC >= tREFI accepted")
	}
}

func TestClosedPagePolicy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ClosedPage = true
	cfg.TREFI = 0
	cfg.TFAW = 0
	d, err := NewDIMM("cp", cfg, 8)
	if err != nil {
		t.Fatalf("NewDIMM: %v", err)
	}
	loc := Loc{Row: 5}
	// Every access is a miss (tRCD) — never a hit, never a conflict.
	for i := 0; i < 3; i++ {
		start := sim.Cycle(i * 1000)
		row := loc
		row.Row = int32(5 + i%2) // alternate rows: open page would conflict
		done, err := d.Access(start, row, 32, false, ModeCoalesced)
		if err != nil {
			t.Fatalf("Access: %v", err)
		}
		want := start + sim.Cycle(cfg.TRCD+cfg.TBL+cfg.TCL)
		if done != want {
			t.Errorf("access %d done at %d, want %d", i, done, want)
		}
	}
	s := d.Stats()
	if s.RowHits != 0 || s.RowConflicts != 0 || s.RowMisses != 3 {
		t.Errorf("hits/conflicts/misses = %d/%d/%d, want 0/0/3",
			s.RowHits, s.RowConflicts, s.RowMisses)
	}
}

// TestBankRecordSize pins the bank record at 16 bytes (int32 open and
// refreshed rows beside the int64 free time), on 32-bit platforms too: a
// Table I pool holds 8,192 of them.
func TestBankRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(bank{}); size > 16 {
		t.Errorf("bank is %d bytes, want at most 16", size)
	}
}

// TestRankStateAllocatedOnFirstAccess checks that a DIMM holds bank and
// chip state only for the ranks accessed so far, and that a rank's state
// starts precharged with an unthrottled tFAW history.
func TestRankStateAllocatedOnFirstAccess(t *testing.T) {
	d := testDIMM(t, 4)
	cfg := d.Config()
	for r, rs := range d.ranks {
		if rs.banks != nil || rs.chips != nil {
			t.Fatalf("new DIMM holds state for rank %d", r)
		}
	}
	// Four activations back to back on one chip: none may wait for tFAW.
	for b := 0; b < 4; b++ {
		if _, err := d.Access(0, Loc{Rank: 2, Chip: 5, Bank: int32(b), Row: 9}, 16, false, ModeCoalesced); err != nil {
			t.Fatal(err)
		}
	}
	for r, rs := range d.ranks {
		allocated := rs.banks != nil || rs.chips != nil
		if allocated != (r == 2) {
			t.Errorf("rank %d: state allocated = %v after accesses to rank 2 alone", r, allocated)
		}
	}
	rs := d.ranks[2]
	if len(rs.banks) != cfg.ChipsPerRank*cfg.Banks() || len(rs.chips) != cfg.ChipsPerRank {
		t.Errorf("rank 2 holds %d banks and %d chips, want %d and %d",
			len(rs.banks), len(rs.chips), cfg.ChipsPerRank*cfg.Banks(), cfg.ChipsPerRank)
	}
	st := d.Stats()
	if st.RowMisses != 4 || st.RowConflicts != 0 || st.FAWStalls != 0 {
		t.Errorf("first accesses: %d misses, %d conflicts, %d tFAW stalls; want 4, 0, 0",
			st.RowMisses, st.RowConflicts, st.FAWStalls)
	}
	if b := rs.banks[4*cfg.Banks()+4]; b.open != -1 {
		t.Errorf("untouched bank of rank 2 has row %d open, want precharged", b.open)
	}
}

// TestAccessRejectsInt32Overflow checks the bounds of the 16-byte bank
// record: a refresh window past the int32 range is an error, not a
// wrapped value, and the rejected access leaves no state behind. The
// highest row a Loc can carry is served; a row past it cannot be
// expressed in a Loc, and the address mapper rejects it (memmgmt's
// TestMapRejectsRowPastInt32).
func TestAccessRejectsInt32Overflow(t *testing.T) {
	d := testDIMM(t, 4)
	cfg := d.Config()
	if _, err := d.Access(0, Loc{Row: math.MaxInt32}, 16, false, ModeCoalesced); err != nil {
		t.Errorf("row MaxInt32: %v", err)
	}
	last := sim.Cycle(math.MaxInt32) * sim.Cycle(cfg.TREFI)
	if _, err := d.Access(last, Loc{Rank: 1, Row: 1}, 16, false, ModeCoalesced); err != nil {
		t.Errorf("refresh window MaxInt32: %v", err)
	}
	if _, err := d.Access(last+sim.Cycle(cfg.TREFI), Loc{Rank: 3, Row: 1}, 16, false, ModeCoalesced); err == nil {
		t.Error("refresh window past MaxInt32 accepted")
	}
	if st := d.Stats(); st.Reads != 2 || st.Refreshes != 1 {
		t.Errorf("after a rejected access: %d reads, %d refreshes; want 2, 1", st.Reads, st.Refreshes)
	}
	if d.ranks[3].banks != nil {
		t.Error("rejected access allocated state for its rank")
	}
}
