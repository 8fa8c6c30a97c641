// Package memmgmt implements BEACON's memory-management framework (§IV-C):
// DIMM-granularity allocation with proximity-aware placement, and the
// architecture-and-data-aware address mapping scheme that decides, for every
// logical access, which DIMM serves it, which rank/chip-group/bank/row it
// lands in, and which DRAM access mode (lock-step, per-chip, coalesced) the
// controller uses.
//
// Two schemes are provided:
//
//   - SchemeFixed — the previous work's fixed mapping: 64 B units
//     interleaved across banks and ranks, identical for every data type,
//     lock-step chip access only.
//   - SchemeArchData — BEACON's mapping: chip-level interleaving on
//     CXLG-DIMMs (they have per-chip chip select), rank-level on unmodified
//     CXL-DIMMs, and row-major placement for data tagged with spatial
//     locality so candidate lists stay within one DRAM row.
//
// Placement (the data-migration half of the framework) is modeled as the
// choice of DIMM set: with the placement optimization on, a compute node's
// accesses stripe across the DIMMs of its own switch (hot data migrated near
// the NDP modules); off, they stripe across the whole pool.
package memmgmt

import (
	"fmt"
	"math"

	"beacon/internal/cxl"
	"beacon/internal/dram"
	"beacon/internal/trace"
)

// Scheme selects the address-mapping scheme.
type Scheme uint8

// Mapping schemes.
const (
	// SchemeFixed is the previous work's data-type-oblivious mapping.
	SchemeFixed Scheme = iota
	// SchemeArchData is BEACON's architecture-and-data-aware mapping.
	SchemeArchData
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeFixed:
		return "fixed"
	case SchemeArchData:
		return "arch-data"
	}
	return fmt.Sprintf("scheme(%d)", uint8(s))
}

// PoolLayout describes the DIMM population of the memory pool.
type PoolLayout struct {
	// Switches and DIMMsPerSwitch give the fabric shape.
	Switches, DIMMsPerSwitch int
	// CXLGSlots is the number of slots per switch occupied by CXLG-DIMMs
	// (computation + fine-grained access enabled); they occupy the lowest
	// slot indices. Zero for BEACON-S (no modified DIMMs).
	CXLGSlots int
}

// Validate checks the layout.
func (p PoolLayout) Validate() error {
	if p.Switches <= 0 || p.DIMMsPerSwitch <= 0 {
		return fmt.Errorf("memmgmt: pool %dx%d invalid", p.Switches, p.DIMMsPerSwitch)
	}
	if p.CXLGSlots < 0 || p.CXLGSlots > p.DIMMsPerSwitch {
		return fmt.Errorf("memmgmt: %d CXLG slots with %d slots per switch", p.CXLGSlots, p.DIMMsPerSwitch)
	}
	return nil
}

// IsCXLG reports whether the slot holds a CXLG-DIMM.
func (p PoolLayout) IsCXLG(node cxl.NodeID) bool {
	return node.Kind == cxl.NodeDIMM && int(node.Slot) < p.CXLGSlots
}

// TotalDIMMs returns the pool's DIMM count.
func (p PoolLayout) TotalDIMMs() int { return p.Switches * p.DIMMsPerSwitch }

// Config parameterizes the framework.
type Config struct {
	Pool PoolLayout
	// DIMM is the module geometry (shared by every DIMM, per Table I).
	DIMM dram.Config
	// Scheme selects the address mapping.
	Scheme Scheme
	// PlacementLocal enables the proximity placement / data-migration
	// optimization.
	PlacementLocal bool
	// CoalesceGroup is the multi-chip-coalescing group size used for
	// fine-grained accesses on CXLG-DIMMs; 1 means per-chip access
	// (coalescing off, MEDAL-style: a fine-grained object lives entirely in
	// one chip and is read with multiple bursts — Fig. 11 (b)).
	CoalesceGroup int
	// StripeBytes is the granularity at which a space is striped across its
	// DIMM set.
	StripeBytes uint64
	// FineUnitBytes is the fine-grained placement granule on CXLG-DIMMs:
	// one object of this size lives within one chip group. 32 B matches the
	// FM-index Occ block.
	FineUnitBytes uint64
	// HotLocal migrates each compute node's hot (non-spatial) working set
	// entirely into the node's own DIMM — BEACON-D's data-migration
	// behaviour when the placement optimization is on. Only meaningful for
	// DIMM-homed mappers.
	HotLocal bool
}

// DefaultConfig returns a BEACON-D-like pool shape: 2 switches x 4 DIMMs,
// one CXLG-DIMM per switch (internal/core configures the Table I machine's
// actual CXLG population).
func DefaultConfig() Config {
	return Config{
		Pool:           PoolLayout{Switches: 2, DIMMsPerSwitch: 4, CXLGSlots: 1},
		DIMM:           dram.DefaultConfig(),
		Scheme:         SchemeArchData,
		PlacementLocal: true,
		CoalesceGroup:  8,
		StripeBytes:    4096,
		FineUnitBytes:  32,
		HotLocal:       true,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Pool.Validate(); err != nil {
		return err
	}
	if err := c.DIMM.Validate(); err != nil {
		return err
	}
	if c.CoalesceGroup <= 0 || c.CoalesceGroup > c.DIMM.ChipsPerRank ||
		c.DIMM.ChipsPerRank%c.CoalesceGroup != 0 {
		return fmt.Errorf("memmgmt: coalesce group %d must divide chips per rank %d",
			c.CoalesceGroup, c.DIMM.ChipsPerRank)
	}
	if c.StripeBytes == 0 {
		return fmt.Errorf("memmgmt: zero stripe bytes")
	}
	if c.FineUnitBytes == 0 {
		return fmt.Errorf("memmgmt: zero fine unit bytes")
	}
	// A piece is at most one interleaving unit or one row segment, and
	// PlacedAccess.Bytes is int32.
	widest := uint64(c.DIMM.ChipsPerRank) * uint64(max(c.DIMM.RowBytes, c.DIMM.ChipIOBytes))
	if c.FineUnitBytes > math.MaxInt32 || widest > math.MaxInt32 {
		return fmt.Errorf("memmgmt: fine unit %d B or rank-wide row %d B past the int32 range of a piece", c.FineUnitBytes, widest)
	}
	return nil
}

// PlacedAccess is one physical DRAM access produced by mapping a logical
// step (a step can split across mapping units). It is 36 bytes, carried in
// every piece in flight.
type PlacedAccess struct {
	// Node is the DIMM that services the access.
	Node cxl.NodeID
	// Loc is the position within that DIMM.
	Loc dram.Loc
	// Bytes is this piece's payload.
	Bytes int32
	// Mode is the DRAM access mode the controller uses.
	Mode dram.AccessMode
}

// Mapper resolves logical addresses for one compute node ("home"): a
// CXLG-DIMM in BEACON-D, a switch in BEACON-S, or the host for CPU-side
// reasoning. Mappers derived from the same Config share the placement
// policy; the home only determines which DIMMs count as near.
type Mapper struct {
	cfg  Config
	home cxl.NodeID
	// dimmSet is the preference-ordered DIMM set this node's accesses
	// stripe across.
	dimmSet []cxl.NodeID
	// localSet is the set used for spaces pinned local
	// (trace.Workload.LocalSpaces).
	localSet []cxl.NodeID
	// poolSet is every DIMM in the pool, used for shared data whose
	// placement must be identical from every home.
	poolSet []cxl.NodeID
}

// NewMapper builds the mapper for a compute node.
func NewMapper(cfg Config, home cxl.NodeID) (*Mapper, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch home.Kind {
	case cxl.NodeDIMM:
		if int(home.Switch) >= cfg.Pool.Switches || int(home.Slot) >= cfg.Pool.DIMMsPerSwitch {
			return nil, fmt.Errorf("memmgmt: home %v outside pool", home)
		}
	case cxl.NodeSwitch:
		if int(home.Switch) >= cfg.Pool.Switches {
			return nil, fmt.Errorf("memmgmt: home %v outside pool", home)
		}
	case cxl.NodeHost:
		// allowed: host-centric mapping for baselines
	default:
		return nil, fmt.Errorf("memmgmt: invalid home %v", home)
	}
	m := &Mapper{cfg: cfg, home: home}

	// Build the striping set. PlacementLocal keeps a node's data under its
	// own switch (data migration put it there); otherwise data is wherever
	// the pool-wide allocator left it — striped across every DIMM.
	if cfg.PlacementLocal && home.Kind != cxl.NodeHost {
		for d := 0; d < cfg.Pool.DIMMsPerSwitch; d++ {
			m.dimmSet = append(m.dimmSet, cxl.DIMM(int(home.Switch), d))
		}
	} else {
		for s := 0; s < cfg.Pool.Switches; s++ {
			for d := 0; d < cfg.Pool.DIMMsPerSwitch; d++ {
				m.dimmSet = append(m.dimmSet, cxl.DIMM(s, d))
			}
		}
	}
	for sw := 0; sw < cfg.Pool.Switches; sw++ {
		for d := 0; d < cfg.Pool.DIMMsPerSwitch; d++ {
			m.poolSet = append(m.poolSet, cxl.DIMM(sw, d))
		}
	}
	// Local (replicated/partitioned) spaces: the home DIMM itself when home
	// is a CXLG-DIMM, else the home switch's DIMMs.
	switch home.Kind {
	case cxl.NodeDIMM:
		m.localSet = []cxl.NodeID{home}
	case cxl.NodeSwitch:
		for d := 0; d < cfg.Pool.DIMMsPerSwitch; d++ {
			m.localSet = append(m.localSet, cxl.DIMM(int(home.Switch), d))
		}
	default:
		m.localSet = m.dimmSet
	}
	return m, nil
}

// Granules folds this mapper's placement granules into g for a workload
// whose pinned-local spaces are local: each entry becomes the common
// granule of what it held (0 holds nothing) and the largest block size
// every split point of such a step's placement is a multiple of. That is
// taken over the DIMM kinds of the set the step maps into (setFor): the
// stripe and the interleaving units for non-spatial steps, the stripe and
// the row segments for row-major spatial ones. A step therefore maps to
// at most as many pieces as the blocks of its entry that its bytes touch.
func (m *Mapper) Granules(g *trace.Granules, local *[trace.NumSpaces]bool) {
	for sp := range g {
		for atomic := range g[sp] {
			shared := atomic == 1 && !local[sp]
			for spatial := range g[sp][atomic] {
				for _, n := range m.setFor(spatial == 1, local[sp], shared) {
					e := &g[sp][atomic][spatial]
					*e = CommonGranule(*e, m.granule(m.cfg.Pool.IsCXLG(n), spatial == 1))
				}
			}
		}
	}
}

// granule is the largest block size every split point of a piece on one
// DIMM kind is a multiple of (see placeWithin).
func (m *Mapper) granule(cxlg, spatial bool) uint64 {
	c := &m.cfg
	unit := uint64(64) // the fixed scheme's unit, and lock-step interleaving
	switch {
	case c.Scheme != SchemeArchData:
	case spatial && cxlg:
		unit = uint64(c.CoalesceGroup) * uint64(c.DIMM.RowBytes)
	case spatial:
		unit = uint64(c.DIMM.ChipsPerRank) * uint64(c.DIMM.RowBytes)
	case cxlg:
		unit = max(c.FineUnitBytes, uint64(c.CoalesceGroup*c.DIMM.ChipIOBytes))
	}
	return CommonGranule(c.StripeBytes, unit)
}

// CommonGranule returns the largest block size that both a and b are
// multiples of (their greatest common divisor); 0 acts as the identity.
func CommonGranule(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// MapShared resolves one logical step into physical accesses and appends
// them to dst, returning the extended slice; callers on the request path
// pass a reused slice truncated to zero length, so mapping allocates
// nothing once it has grown. local pins the access to the node's local set
// (trace.Workload.LocalSpaces semantics).
//
// With HotLocal set and a CXLG-DIMM home, non-spatial (hot, fine-grained)
// data maps into the home DIMM itself: the data-migration half of the
// framework moved each node's working shard next to its NDP module
// ("BEACON always tries to put the more frequently accessed data to memory
// locations in proximity to the NDP modules", §IV-C), and task affinity
// sends each task to the node owning its shard. Spatial/streaming data
// stripes across the set — that is the memory-expansion story: bulk data
// lives in unmodified CXL-DIMMs.
//
// shared marks data that is logically one copy across every compute node
// (a single-pass global Bloom filter, a shared counter table). Shared data
// must map identically from every home, so it stripes pool-wide regardless
// of placement locality — two switches atomically updating "counter 0"
// must serialize at one physical bank.
func (m *Mapper) MapShared(dst []PlacedAccess, space trace.Space, addr uint64, size uint32, spatial, local, shared bool) ([]PlacedAccess, error) {
	if size == 0 {
		return dst, fmt.Errorf("memmgmt: zero-size access")
	}
	set := m.setFor(spatial, local, shared)
	// Salt the stripe by space so different spaces don't align.
	salt := uint64(space) * 0x9E3779B9
	// Split across stripe boundaries first.
	for size > 0 {
		within := addr % m.cfg.StripeBytes
		chunk := m.cfg.StripeBytes - within
		if uint64(size) < chunk {
			chunk = uint64(size)
		}
		stripe := addr/m.cfg.StripeBytes + salt
		node := set[stripe%uint64(len(set))]
		var err error
		if dst, err = m.placeWithin(dst, node, addr, int(chunk), spatial); err != nil {
			return dst, err
		}
		addr += chunk
		size -= uint32(chunk)
	}
	return dst, nil
}

// setFor returns the DIMM set a step with the given flags stripes across
// (see MapShared).
func (m *Mapper) setFor(spatial, local, shared bool) []cxl.NodeID {
	switch {
	case local:
		return m.localSet
	case shared:
		return m.poolSet
	case m.cfg.HotLocal && m.home.Kind == cxl.NodeDIMM && !spatial:
		return m.localSet
	}
	return m.dimmSet
}

// placeWithin maps a chunk inside one DIMM, appending its pieces to dst.
// A row past the int32 range of a dram.Loc is an error, never wrapped.
//
// Chip-group width is a *hardware* property: CXLG-DIMMs have per-chip chip
// select, so their accesses use the configured coalescing group (1 =
// per-chip, MEDAL-style); unmodified CXL-DIMMs always read the whole rank in
// lock-step. The *scheme* decides layout: SchemeArchData interleaves
// fine-grained objects at the FineUnitBytes granule and lays spatial data
// row-major; SchemeFixed interleaves everything at 64 B units regardless of
// data type.
func (m *Mapper) placeWithin(dst []PlacedAccess, node cxl.NodeID, addr uint64, size int, spatial bool) ([]PlacedAccess, error) {
	cfgD := &m.cfg.DIMM
	cxlg := m.cfg.Pool.IsCXLG(node)
	banks := cfgD.Banks()

	group := cfgD.ChipsPerRank // lock-step (unmodified DIMMs)
	mode := dram.ModeLockstep
	if cxlg {
		group = m.cfg.CoalesceGroup
		switch {
		case group == cfgD.ChipsPerRank:
			mode = dram.ModeLockstep
		case group == 1:
			mode = dram.ModePerChip
		default:
			mode = dram.ModeCoalesced
		}
	}
	groupsPerRank := cfgD.ChipsPerRank / group
	rowSegBytes := uint64(group * cfgD.RowBytes)

	if m.cfg.Scheme == SchemeArchData && spatial {
		// Row-major placement: consecutive bytes fill one chip-group's row,
		// then advance bank -> rank -> group. A spatial burst therefore
		// touches the minimum number of rows (§IV-C principle 2).
		for size > 0 {
			seg := addr / rowSegBytes
			within := addr % rowSegBytes
			chunk := rowSegBytes - within
			if uint64(size) < chunk {
				chunk = uint64(size)
			}
			g := int(seg % uint64(groupsPerRank))
			bank := int(seg / uint64(groupsPerRank) % uint64(banks))
			rank := int(seg / uint64(groupsPerRank) / uint64(banks) % uint64(cfgD.Ranks))
			row := seg / uint64(groupsPerRank) / uint64(banks) / uint64(cfgD.Ranks)
			if row > math.MaxInt32 {
				return dst, rowRangeError(node, addr, row)
			}
			dst = append(dst, PlacedAccess{
				Node:  node,
				Loc:   dram.Loc{Rank: int32(rank), Chip: int32(g * group), Bank: int32(bank), Row: int32(row)},
				Bytes: int32(chunk),
				Mode:  mode,
			})
			addr += chunk
			size -= int(chunk)
		}
		return dst, nil
	}

	// Interleaved mapping. The unit is the granule at which one object lives
	// within one chip group: with arch-aware mapping it is FineUnitBytes on
	// CXLG-DIMMs (so a 32 B Occ block is one access — one burst when the
	// group is sized to match, several bursts of a single chip when
	// per-chip); the fixed scheme uses 64 B units for everything.
	unit := uint64(64)
	if m.cfg.Scheme == SchemeArchData && cxlg {
		unit = m.cfg.FineUnitBytes
		if min := uint64(group * cfgD.ChipIOBytes); unit < min {
			unit = min
		}
	}
	for size > 0 {
		u := addr / unit
		within := addr % unit
		chunk := unit - within
		if uint64(size) < chunk {
			chunk = uint64(size)
		}
		g := int(u % uint64(groupsPerRank))
		bank := int(u / uint64(groupsPerRank) % uint64(banks))
		rank := int(u / uint64(groupsPerRank) / uint64(banks) % uint64(cfgD.Ranks))
		// Rows advance only after the full (group, bank, rank) sweep, and
		// nearby units that return to the same bank share a row.
		sweep := uint64(groupsPerRank) * uint64(banks) * uint64(cfgD.Ranks)
		colsPerRow := uint64(cfgD.RowBytes) * uint64(group) / unit
		if colsPerRow == 0 {
			colsPerRow = 1
		}
		row := u / sweep / colsPerRow
		if row > math.MaxInt32 {
			return dst, rowRangeError(node, addr, row)
		}
		dst = append(dst, PlacedAccess{
			Node:  node,
			Loc:   dram.Loc{Rank: int32(rank), Chip: int32(g * group), Bank: int32(bank), Row: int32(row)},
			Bytes: int32(chunk),
			Mode:  mode,
		})
		addr += chunk
		size -= int(chunk)
	}
	return dst, nil
}

func rowRangeError(node cxl.NodeID, addr, row uint64) error {
	return fmt.Errorf("memmgmt: %v address %#x maps to row %d, past the int32 range", node, addr, row)
}
