// Package dram models DDR4 DIMMs at request granularity with bank-state
// timing: row activate/precharge latencies, per-bank serialization, data-bus
// occupancy, and — the feature the genomics accelerators depend on —
// per-chip chip-select so that individual chips (or coalesced chip groups)
// serve independent fine-grained requests instead of the whole rank reading
// in lock-step.
//
// It plays the role Ramulator plays in the paper (§VI-A): the same timing
// parameters (DDR4-1600 22-22-22, 4 ranks, 16 x4 chips per rank, 4 bank
// groups x 4 banks) drive bandwidth, latency and row-locality behaviour.
// Commands are not replayed cycle-by-cycle; each request reserves its bank
// and chip calendars (granted by the internal/sim Resource rule), which
// preserves the queueing behaviour the evaluation depends on at a fraction
// of the cost.
package dram

import (
	"fmt"
	"math"
)

// Config describes one DIMM. The defaults (DefaultConfig) reproduce Table I:
// 64 GB DIMMs of 8 Gb x4 chips, 4 ranks of 16 chips, 4 bank groups x 4
// banks, DDR4-1600 22-22-22.
type Config struct {
	// Ranks per DIMM.
	Ranks int
	// ChipsPerRank is the number of DRAM chips sharing a rank's bus.
	ChipsPerRank int
	// ChipIOBytes is the number of bytes one chip contributes per burst
	// (x4 chips with BL8 deliver 4 bytes).
	ChipIOBytes int
	// BankGroups and BanksPerGroup give the per-chip bank organization.
	BankGroups, BanksPerGroup int
	// RowBytes is the row-buffer (page) size per chip.
	RowBytes int
	// CapacityBytes is the DIMM capacity.
	CapacityBytes uint64

	// Timing in DRAM bus cycles (tCK = 1.25 ns at DDR4-1600).
	TRCD, TRP, TCL, TBL int
	// TREFI is the refresh interval (7.8 us = 6240 cycles); every TREFI a
	// rank's banks are blocked for TRFC (8 Gb: ~350 ns = 280 cycles).
	// TREFI = 0 disables refresh modeling.
	TREFI, TRFC int
	// TFAW is the four-activate window per chip (rolling limit of 4 row
	// activations). 0 disables it.
	TFAW int
	// ClosedPage selects the closed-page row policy: every access auto-
	// precharges, so no access ever pays a row conflict (tRP+tRCD) but none
	// ever row-hits either. Open page (default) favors locality-rich
	// streams; closed page favors random fine-grained traffic.
	ClosedPage bool
}

// DefaultConfig returns the Table I DIMM.
func DefaultConfig() Config {
	return Config{
		Ranks:         4,
		ChipsPerRank:  16,
		ChipIOBytes:   4,
		BankGroups:    4,
		BanksPerGroup: 4,
		RowBytes:      1024,
		CapacityBytes: 64 << 30,
		TRCD:          22,
		TRP:           22,
		TCL:           22,
		TBL:           4,
		TREFI:         6240,
		TRFC:          280,
		TFAW:          20,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Ranks <= 0:
		return fmt.Errorf("dram: ranks must be positive, got %d", c.Ranks)
	case c.ChipsPerRank <= 0:
		return fmt.Errorf("dram: chips per rank must be positive, got %d", c.ChipsPerRank)
	case c.ChipIOBytes <= 0:
		return fmt.Errorf("dram: chip IO bytes must be positive, got %d", c.ChipIOBytes)
	case c.BankGroups <= 0 || c.BanksPerGroup <= 0:
		return fmt.Errorf("dram: bank organization %dx%d invalid", c.BankGroups, c.BanksPerGroup)
	case c.RowBytes <= 0:
		return fmt.Errorf("dram: row bytes must be positive, got %d", c.RowBytes)
	case uint64(c.Ranks) > math.MaxInt32 || uint64(c.ChipsPerRank) > math.MaxInt32 ||
		uint64(c.BankGroups)*uint64(c.BanksPerGroup) > math.MaxInt32:
		return fmt.Errorf("dram: geometry %d ranks x %d chips x %d banks past the int32 range of a Loc",
			c.Ranks, c.ChipsPerRank, c.Banks())
	case c.CapacityBytes == 0:
		return fmt.Errorf("dram: zero capacity")
	case c.TRCD <= 0 || c.TRP <= 0 || c.TCL <= 0 || c.TBL <= 0:
		return fmt.Errorf("dram: timings must be positive (tRCD=%d tRP=%d tCL=%d tBL=%d)",
			c.TRCD, c.TRP, c.TCL, c.TBL)
	case c.TREFI < 0 || c.TRFC < 0 || c.TFAW < 0:
		return fmt.Errorf("dram: refresh/FAW timings must be non-negative")
	case c.TREFI > 0 && c.TRFC >= c.TREFI:
		return fmt.Errorf("dram: tRFC (%d) must be below tREFI (%d)", c.TRFC, c.TREFI)
	}
	return nil
}

// Banks returns banks per chip. Its pointer receiver keeps the per-access
// callers from copying the whole Config.
func (c *Config) Banks() int { return c.BankGroups * c.BanksPerGroup }

// RankBurstBytes returns the bytes a full-rank (lock-step) burst delivers:
// every chip contributes ChipIOBytes per BL8 burst (64 B for 16 x4 chips).
func (c Config) RankBurstBytes() int { return c.ChipsPerRank * c.ChipIOBytes }

// PeakBytesPerCycle returns the DIMM's aggregate internal bandwidth in bytes
// per DRAM cycle with all ranks and chips streaming: each chip delivers
// ChipIOBytes per TBL-cycle burst window. With the defaults this is
// 4*16*4/4 = 64 B/cycle, i.e. 51.2 GB/s at the 800 MHz DDR4-1600 bus —
// 4x the 12.8 GB/s a single rank (or the external DDR channel) provides,
// which is the intra-DIMM bandwidth MEDAL exploits.
func (c Config) PeakBytesPerCycle() float64 {
	return float64(c.Ranks*c.ChipsPerRank*c.ChipIOBytes) / float64(c.TBL)
}
