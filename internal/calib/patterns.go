package calib

import (
	"beacon/internal/dram"
	"beacon/internal/sim"
)

// rowWindow bounds the row index range patterns address. It keeps the
// generated footprint small (a few thousand rows per bank) without
// changing any timing: row numbers only matter for open-row equality.
const rowWindow = 4096

// geom is the address-generation view of a platform: the DIMM organization
// plus the chip-group width the access mode uses per request.
type geom struct {
	ranks, banks int
	chipsPerRank int
	rowBytes     int
	// width is the number of chips serving one request; groups is
	// chipsPerRank/width, the number of independent chip groups a rank
	// offers at that width.
	width, groups int
}

// newGeom derives the generation geometry for one platform.
func newGeom(cfg Config, plat PlatformSpec) geom {
	g := geom{
		ranks:        cfg.DIMM.Ranks,
		banks:        cfg.DIMM.Banks(),
		chipsPerRank: cfg.DIMM.ChipsPerRank,
		rowBytes:     cfg.DIMM.RowBytes,
	}
	switch plat.Mode {
	case dram.ModePerChip:
		g.width = 1
	case dram.ModeCoalesced:
		g.width = cfg.Coalesce
	default: // lock-step
		g.width = cfg.DIMM.ChipsPerRank
	}
	g.groups = g.chipsPerRank / g.width
	if g.groups < 1 {
		g.groups = 1
	}
	return g
}

// generator produces the next request location for a pattern. slot is the
// queue-depth slot issuing the request; only pointer-chase uses it (each
// slot is an independent dependency chain).
type generator interface {
	next(slot int) dram.Loc
}

// newGenerator builds the deterministic location stream for one sweep
// point. rng is already forked per point, so patterns never share random
// state across curves.
func newGenerator(p Pattern, g geom, size, depth int, rng *sim.RNG) generator {
	switch p {
	case PatternStreaming:
		return &streamGen{g: g, reqsPerRow: reqsPerRow(g, size)}
	case PatternRandom:
		return &randomGen{g: g, rng: rng}
	case PatternPointerChase:
		// One independent RNG per chain: a chain's address walk depends
		// only on its own history, like dependent loads through memory.
		chains := make([]*sim.RNG, depth)
		for i := range chains {
			chains[i] = rng.Fork()
		}
		return &chaseGen{g: g, chains: chains}
	case PatternRowFriendly:
		return &rowFriendlyGen{g: g}
	case PatternBankAdversarial:
		return &adversarialGen{}
	}
	panic("calib: unknown pattern " + string(p))
}

// reqsPerRow is the number of size-byte requests one open row serves for a
// chip group of the geometry's width.
func reqsPerRow(g geom, size int) int {
	n := g.width * g.rowBytes / size
	if n < 1 {
		n = 1
	}
	return n
}

// streamGen models one sequential stream per (rank, chip group),
// interleaved round-robin (multi-stream STREAM-style): request i belongs to
// stream i%(ranks*groups), and each stream drains its current row before
// advancing bank- and finally row-major. Row-hit-rich within every bank
// visit AND parallel across every independently-selectable chip group at
// any instant — the pattern that saturates the DIMM's aggregate pin
// bandwidth at sufficient queue depth in lock-step, per-chip and coalesced
// modes alike.
type streamGen struct {
	g          geom
	reqsPerRow int
	i          int
}

func (s *streamGen) next(int) dram.Loc {
	g := s.g
	streams := g.ranks * g.groups
	stream := s.i % streams
	visit := (s.i / streams) / s.reqsPerRow
	s.i++
	bank := visit % g.banks
	return dram.Loc{
		Rank: int32(stream % g.ranks),
		Chip: int32((stream / g.ranks) * g.width),
		Bank: int32(bank),
		Row:  int32((visit / g.banks) % rowWindow),
	}
}

// randomGen draws every coordinate uniformly per request.
type randomGen struct {
	g   geom
	rng *sim.RNG
}

func (r *randomGen) next(int) dram.Loc {
	g := r.g
	return dram.Loc{
		Rank: int32(r.rng.Intn(g.ranks)),
		Chip: int32(r.rng.Intn(g.groups) * g.width),
		Bank: int32(r.rng.Intn(g.banks)),
		Row:  int32(r.rng.Int63n(rowWindow)),
	}
}

// chaseGen is a dependent-load walk: each slot (chain) owns an RNG whose
// state is that chain's "pointer", advanced once per completed load.
type chaseGen struct {
	g      geom
	chains []*sim.RNG
}

func (c *chaseGen) next(slot int) dram.Loc {
	g := c.g
	rng := c.chains[slot]
	return dram.Loc{
		Rank: int32(rng.Intn(g.ranks)),
		Chip: int32(rng.Intn(g.groups) * g.width),
		Bank: int32(rng.Intn(g.banks)),
		Row:  int32(rng.Int63n(rowWindow)),
	}
}

// rowFriendlyBanks is the bank-set size the row-friendly pattern cycles
// over. Small, so the activation cost of opening each bank's row amortizes
// to a near-100% hit rate within even a short replay.
const rowFriendlyBanks = 4

// rowFriendlyGen rotates over a fixed small bank set with every bank's row
// pinned to 0: after one activation per bank, every access hits.
type rowFriendlyGen struct {
	g geom
	i int
}

func (r *rowFriendlyGen) next(int) dram.Loc {
	banks := rowFriendlyBanks
	if banks > r.g.banks {
		banks = r.g.banks
	}
	bank := r.i % banks
	r.i++
	return dram.Loc{Rank: 0, Chip: 0, Bank: int32(bank), Row: 0}
}

// adversarialGen walks a fresh row of a single bank on every access: every
// access (after the first) precharges and re-activates, and the activation
// stream concentrates on a single chip's tFAW window. A strictly advancing
// row — rather than a two-row ping-pong — keeps the conflict guarantee
// under out-of-order bank service at depth: reordered requests can only be
// adjacent when they were issued within the queue depth of each other, and
// those always carry distinct rows.
type adversarialGen struct {
	i int
}

func (a *adversarialGen) next(int) dram.Loc {
	row := int32(a.i % rowWindow)
	a.i++
	return dram.Loc{Rank: 0, Chip: 0, Bank: 0, Row: row}
}

// writeAt reports whether request i is a write under an integer write
// percentage: the cumulative write count tracks i*pct/100 exactly, so the
// mix is deterministic and independent of the pattern's address stream.
func writeAt(i, pct int) bool {
	return (i+1)*pct/100 > i*pct/100
}
