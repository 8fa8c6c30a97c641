package dram

import (
	"fmt"

	"beacon/internal/fault"
	"beacon/internal/obs"
	"beacon/internal/sim"
)

// AccessMode selects how chips within a rank serve a request (Fig. 11).
type AccessMode uint8

// Access modes.
const (
	// ModeLockstep reads all chips of the rank together — the conventional
	// DIMM: every burst delivers RankBurstBytes whether useful or not.
	ModeLockstep AccessMode = iota
	// ModePerChip addresses one chip at a time (MEDAL-style individual chip
	// select): no useless data, but a fine-grained request occupies one chip
	// for many bursts while its 15 siblings idle unless other requests
	// target them.
	ModePerChip
	// ModeCoalesced reads a group of chips together (BEACON's multi-chip
	// coalescing): the group size is tuned so one request's useful bytes
	// fill exactly one group burst.
	ModeCoalesced
)

// String names the mode.
func (m AccessMode) String() string {
	switch m {
	case ModeLockstep:
		return "lockstep"
	case ModePerChip:
		return "per-chip"
	case ModeCoalesced:
		return "coalesced"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Loc pinpoints a request inside a DIMM after address mapping.
type Loc struct {
	// Rank within the DIMM.
	Rank int
	// Chip is the first chip serving the request (ModePerChip/ModeCoalesced;
	// ignored for lock-step).
	Chip int
	// Bank is the flat bank index within a chip (group*BanksPerGroup+bank).
	Bank int
	// Row is the DRAM row.
	Row int64
}

// Stats aggregates a DIMM's activity counters.
type Stats struct {
	Reads, Writes    uint64
	RowHits          uint64
	RowMisses        uint64 // activation on an idle (precharged) bank
	RowConflicts     uint64 // activation requiring a precharge first
	Activations      uint64
	Refreshes        uint64
	FAWStalls        uint64 // accesses delayed by the tFAW window
	BurstsIssued     uint64
	UsefulBytes      uint64
	TransferredBytes uint64 // includes useless lock-step bytes
	PerChipAccesses  []uint64
	// BusyCyclesByChips is the aggregate chip data-bus busy time: burst
	// cycles summed over every chip that served each access. This is the
	// DIMM's "busy" series in cycle accounting (see obs.Meter).
	BusyCyclesByChips sim.Cycles
	// FAWStallCycles is the total delay tFAW imposed on access starts;
	// RefreshStallCycles the total tRFC charged by lazy refresh
	// accounting. Together they are the DIMM's "stalled" series.
	FAWStallCycles     sim.Cycles
	RefreshStallCycles sim.Cycles
}

// RowHitRate returns the fraction of row-buffer decisions that hit an open
// row: hits / (hits + misses + conflicts). A DIMM with no accesses yet
// reports 0 (never NaN — the ratio feeds JSON artifacts directly).
func (s Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses + s.RowConflicts
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// DIMM is one simulated module. All methods are single-goroutine, in keeping
// with the deterministic event kernel.
//
// Bank and chip state live in two flat value slices, so building a DIMM is
// a handful of allocations however many banks it has. Banks and chip data
// buses are single-server calendars granted by the sim.Resource rule — a
// request at t for d cycles gets [max(t, free), max(t, free)+d) — kept
// inline because the timing model reads nothing else of a Resource.
type DIMM struct {
	cfg  Config
	name string
	// banks[(rank*ChipsPerRank+chip)*Banks()+bank] holds per-bank state:
	// because chips may be addressed individually, each chip's banks track
	// their own open row.
	// In lock-step or coalesced mode the participating chips advance
	// together (their rows always match because requests address them
	// together).
	banks []bank
	// chips[rank*ChipsPerRank+chip] holds each chip's data-bus calendar
	// and tFAW history.
	chips    []chip
	stats    Stats
	coalesce int // group size for ModeCoalesced
	// tr, when non-nil, records every access as a span on the DIMM's track.
	tr      *obs.Tracer
	trTrack obs.Track
	// flt, when enabled, rolls on-die-ECC media errors per access.
	flt fault.Component
}

// bank is one bank's row-buffer, refresh and occupancy state.
type bank struct {
	// open is the open row; -1 = precharged.
	open int64
	// refreshed is the index of the last refresh window the bank has paid
	// for (lazy refresh accounting).
	refreshed int64
	// free is when the bank can start its next operation.
	free sim.Cycle
}

// chip is one chip's data-bus calendar and activation history.
type chip struct {
	// free is when the data bus can start its next burst run; waited sums
	// the queueing delay requests spent behind it.
	free   sim.Cycle
	waited sim.Cycles
	// acts is a ring of the last 4 activation start times, enforcing tFAW;
	// actIdx indexes its oldest entry.
	acts   [4]sim.Cycle
	actIdx int
}

// NewDIMM builds a DIMM; coalesce is the multi-chip-coalescing group size
// (chips per group) used by ModeCoalesced accesses.
func NewDIMM(name string, cfg Config, coalesce int) (*DIMM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if coalesce <= 0 || coalesce > cfg.ChipsPerRank || cfg.ChipsPerRank%coalesce != 0 {
		return nil, fmt.Errorf("dram: coalesce group %d must divide chips per rank %d",
			coalesce, cfg.ChipsPerRank)
	}
	d := &DIMM{cfg: cfg, name: name, coalesce: coalesce}
	d.chips = make([]chip, cfg.Ranks*cfg.ChipsPerRank)
	for i := range d.chips {
		// Far past, so the first four activations are unthrottled.
		for j := range d.chips[i].acts {
			d.chips[i].acts[j] = -sim.Cycle(1) << 40
		}
	}
	d.banks = make([]bank, len(d.chips)*cfg.Banks())
	for i := range d.banks {
		d.banks[i].open = -1
	}
	d.stats.PerChipAccesses = make([]uint64, cfg.ChipsPerRank)
	return d, nil
}

// Name returns the DIMM's diagnostic name.
func (d *DIMM) Name() string { return d.name }

// Config returns the DIMM configuration.
func (d *DIMM) Config() Config { return d.cfg }

// CoalesceGroup returns the configured multi-chip-coalescing group size.
func (d *DIMM) CoalesceGroup() int { return d.coalesce }

// SetInjector enables media-error injection on this DIMM.
func (d *DIMM) SetInjector(in *fault.Injector) {
	if in != nil {
		d.flt = in.Component("dram/" + d.name)
	}
}

// Instrument attaches observability: every access is recorded as a span on
// a per-DIMM trace track, and the activity counters become polled gauges
// under "dram.<name>.". Gauges are read from the engine's snapshot hook on
// the simulation's own goroutine. Observation-only.
func (d *DIMM) Instrument(ob *obs.Obs) {
	if ob == nil {
		return
	}
	if tr := ob.Tracer(); tr != nil {
		d.tr = tr
		d.trTrack = tr.Track("dram/" + d.name)
	}
	reg := ob.Registry()
	prefix := "dram." + d.name + "."
	for _, g := range []struct {
		name string
		v    *uint64
	}{
		{"reads", &d.stats.Reads},
		{"writes", &d.stats.Writes},
		{"row_hits", &d.stats.RowHits},
		{"row_misses", &d.stats.RowMisses},
		{"row_conflicts", &d.stats.RowConflicts},
		{"activations", &d.stats.Activations},
		{"refreshes", &d.stats.Refreshes},
		{"faw_stalls", &d.stats.FAWStalls},
		{"bursts", &d.stats.BurstsIssued},
		{"useful_bytes", &d.stats.UsefulBytes},
		{"transferred_bytes", &d.stats.TransferredBytes},
	} {
		v := g.v
		reg.Gauge(prefix+g.name, func() float64 { return float64(*v) })
	}
	for _, g := range []struct {
		name string
		v    *sim.Cycles
	}{
		{"busy_cycles_by_chips", &d.stats.BusyCyclesByChips},
		{"faw_stall_cycles", &d.stats.FAWStallCycles},
		{"refresh_stall_cycles", &d.stats.RefreshStallCycles},
	} {
		v := g.v
		reg.Gauge(prefix+g.name, func() float64 { return float64(*v) })
	}
	reg.Gauge(prefix+"chip_imbalance", d.ChipImbalance)
	// Cycle accounting: the chip data buses are the DIMM's capacity. Busy
	// and stall poll the stats counters above — one source of truth — and
	// wait sums the queueing delay behind every chip calendar.
	ob.Track(obs.Meter{
		Class: obs.ClassDIMM,
		Name:  d.name,
		Width: d.cfg.Ranks * d.cfg.ChipsPerRank,
		Busy:  func() int64 { return int64(d.stats.BusyCyclesByChips) },
		Stall: func() int64 { return int64(d.stats.FAWStallCycles + d.stats.RefreshStallCycles) },
		Wait:  d.chipWaitCycles,
	})
}

// chipWaitCycles sums the queueing delay accumulated behind every chip
// data bus (polled at snapshot time only).
func (d *DIMM) chipWaitCycles() int64 {
	var w sim.Cycles
	for i := range d.chips {
		w += d.chips[i].waited
	}
	return int64(w)
}

// Stats returns a copy of the activity counters.
func (d *DIMM) Stats() Stats {
	s := d.stats
	s.PerChipAccesses = append([]uint64(nil), d.stats.PerChipAccesses...)
	return s
}

// Access serves one request of `bytes` useful bytes at time now and returns
// the completion time. The caller (the memory controller / address mapper)
// has already resolved loc and chosen the mode.
func (d *DIMM) Access(now sim.Cycle, loc Loc, bytes int, write bool, mode AccessMode) (sim.Cycle, error) {
	if bytes <= 0 {
		return 0, fmt.Errorf("dram: %s: non-positive access size %d", d.name, bytes)
	}
	if loc.Rank < 0 || loc.Rank >= d.cfg.Ranks {
		return 0, fmt.Errorf("dram: %s: rank %d out of range", d.name, loc.Rank)
	}
	if loc.Bank < 0 || loc.Bank >= d.cfg.Banks() {
		return 0, fmt.Errorf("dram: %s: bank %d out of range", d.name, loc.Bank)
	}
	if loc.Row < 0 {
		return 0, fmt.Errorf("dram: %s: negative row", d.name)
	}

	// Media errors roll before any bank state mutates, so a failed access
	// leaves the row/refresh bookkeeping exactly as it found it and the
	// controller's re-read replays a clean request.
	eccPrep := 0
	if d.flt.Enabled() {
		switch kind, extra := d.flt.DRAMFault(now); kind {
		case fault.DRAMUncorrectable:
			return 0, fmt.Errorf("dram: %s: rank %d bank %d row %d: %w",
				d.name, loc.Rank, loc.Bank, loc.Row, fault.ErrUncorrectable)
		case fault.DRAMCorrectable:
			eccPrep = extra
		}
	}

	// Resolve the chip set serving this request.
	var first, width int
	switch mode {
	case ModeLockstep:
		first, width = 0, d.cfg.ChipsPerRank
	case ModePerChip:
		first, width = loc.Chip, 1
	case ModeCoalesced:
		first, width = loc.Chip-loc.Chip%d.coalesce, d.coalesce
	default:
		return 0, fmt.Errorf("dram: %s: unknown access mode %d", d.name, mode)
	}
	if first < 0 || first+width > d.cfg.ChipsPerRank {
		return 0, fmt.Errorf("dram: %s: chip %d (+%d) out of range", d.name, first, width)
	}

	// Bank timing on the leading chip decides the row state; all chips in
	// the set advance together.
	rankChip := loc.Rank * d.cfg.ChipsPerRank
	banks := d.cfg.Banks()
	lead := &d.banks[(rankChip+first)*banks+loc.Bank]
	prep := 0
	activates := false
	switch {
	case lead.open == loc.Row:
		d.stats.RowHits++
	case lead.open < 0:
		prep = d.cfg.TRCD
		d.stats.RowMisses++
		d.stats.Activations++
		activates = true
	default:
		prep = d.cfg.TRP + d.cfg.TRCD
		d.stats.RowConflicts++
		d.stats.Activations++
		activates = true
	}
	// ECC correction stretches the preamble like any other prep work.
	prep += eccPrep
	nextRow := loc.Row
	if d.cfg.ClosedPage {
		// Auto-precharge: the bank returns to idle after the access.
		nextRow = -1
	}
	for ch := first; ch < first+width; ch++ {
		d.banks[(rankChip+ch)*banks+loc.Bank].open = nextRow
	}

	// Lazy refresh accounting: if a refresh window elapsed since the bank
	// last paid one, charge tRFC now (the auto-refresh blocked the bank at
	// some point during the window).
	if d.cfg.TREFI > 0 {
		if window := int64(now) / int64(d.cfg.TREFI); window > lead.refreshed {
			prep += d.cfg.TRFC
			lead.refreshed = window
			d.stats.Refreshes++
			d.stats.RefreshStallCycles += sim.Cycles(d.cfg.TRFC)
		}
	}

	// Bursts needed to move the useful bytes through `width` chips.
	perBurst := width * d.cfg.ChipIOBytes
	bursts := (bytes + perBurst - 1) / perBurst
	burstCycles := sim.Cycles(bursts * d.cfg.TBL)
	occupancy := sim.Cycles(prep) + burstCycles
	d.stats.BusyCyclesByChips += sim.Cycles(width) * burstCycles

	// tFAW: at most four activations per chip per rolling window. The
	// leading chip's history gates the whole set (they activate together).
	leadChip := &d.chips[rankChip+first]
	earliest := now
	if activates && d.cfg.TFAW > 0 {
		oldest := leadChip.acts[leadChip.actIdx]
		if lim := oldest + sim.Cycles(d.cfg.TFAW); lim > earliest {
			d.stats.FAWStallCycles += sim.Cycles(lim - earliest)
			earliest = lim
			d.stats.FAWStalls++
		}
	}

	// The bank is busy for the whole operation; the chip data buses are busy
	// for the burst portion. Reserve the bank first (it gates issue), then
	// the chips from the bank-ready time.
	start := max(earliest, lead.free)
	end := start + occupancy
	lead.free = end
	if activates && d.cfg.TFAW > 0 {
		leadChip.acts[leadChip.actIdx] = start
		leadChip.actIdx = (leadChip.actIdx + 1) % 4
	}
	burstStart := start + sim.Cycles(prep)
	for ch := first; ch < first+width; ch++ {
		c := &d.chips[rankChip+ch]
		chStart := max(burstStart, c.free)
		c.waited += chStart - burstStart
		c.free = chStart + burstCycles
		end = max(end, c.free)
		d.stats.PerChipAccesses[ch] += uint64(bursts)
	}
	// Data is available TCL after the column command completes issue; fold
	// CAS latency into the completion time.
	done := end + sim.Cycles(d.cfg.TCL)

	if d.tr != nil {
		name := "read"
		if write {
			name = "write"
		}
		d.tr.Span(d.trTrack, name, int64(start), int64(done))
	}
	if write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}
	d.stats.BurstsIssued += uint64(bursts)
	d.stats.UsefulBytes += uint64(bytes)
	d.stats.TransferredBytes += uint64(bursts * perBurst)
	return done, nil
}

// ChipImbalance returns the coefficient of variation (stddev/mean) of
// per-chip burst counts — Fig. 13's balance metric. It returns 0 when the
// DIMM is untouched.
func (d *DIMM) ChipImbalance() float64 {
	var sum float64
	for _, c := range d.stats.PerChipAccesses {
		sum += float64(c)
	}
	n := float64(len(d.stats.PerChipAccesses))
	if sum == 0 {
		return 0
	}
	mean := sum / n
	var varsum float64
	for _, c := range d.stats.PerChipAccesses {
		dlt := float64(c) - mean
		varsum += dlt * dlt
	}
	return sqrt(varsum/n) / mean
}

// sqrt avoids importing math for one call site (keeps the package's
// dependency footprint to sim only).
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}
