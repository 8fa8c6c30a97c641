package memmgmt

import (
	"reflect"
	"testing"
	"testing/quick"

	"beacon/internal/cxl"
	"beacon/internal/dram"
	"beacon/internal/trace"
)

func mapperFor(t *testing.T, mut func(*Config), home cxl.NodeID) *Mapper {
	t.Helper()
	cfg := DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	m, err := NewMapper(cfg, home)
	if err != nil {
		t.Fatalf("NewMapper: %v", err)
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	mut := []func(*Config){
		func(c *Config) { c.Pool.Switches = 0 },
		func(c *Config) { c.Pool.CXLGSlots = 99 },
		func(c *Config) { c.Pool.CXLGSlots = -1 },
		func(c *Config) { c.DIMM.Ranks = 0 },
		func(c *Config) { c.CoalesceGroup = 0 },
		func(c *Config) { c.CoalesceGroup = 3 },
		func(c *Config) { c.StripeBytes = 0 },
	}
	for i, fn := range mut {
		c := DefaultConfig()
		fn(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNewMapperValidation(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := NewMapper(cfg, cxl.DIMM(9, 0)); err == nil {
		t.Error("out-of-pool DIMM home accepted")
	}
	if _, err := NewMapper(cfg, cxl.Switch(9)); err == nil {
		t.Error("out-of-pool switch home accepted")
	}
	if _, err := NewMapper(cfg, cxl.Host()); err != nil {
		t.Errorf("host home rejected: %v", err)
	}
}

func TestPlacementLocalKeepsTrafficOnOwnSwitch(t *testing.T) {
	m := mapperFor(t, nil, cxl.DIMM(1, 0))
	for addr := uint64(0); addr < 1<<20; addr += 4096 {
		accs, err := m.MapShared(nil, trace.SpaceOcc, addr, 32, false, false, false)
		if err != nil {
			t.Fatalf("MapShared: %v", err)
		}
		for _, a := range accs {
			if a.Node.Switch != 1 {
				t.Fatalf("placement-local access landed on switch %d", a.Node.Switch)
			}
		}
	}
}

func TestPlacementGlobalSpreadsAcrossPool(t *testing.T) {
	m := mapperFor(t, func(c *Config) { c.PlacementLocal = false; c.HotLocal = false }, cxl.DIMM(0, 0))
	seen := map[cxl.NodeID]int{}
	for addr := uint64(0); addr < 1<<20; addr += 4096 {
		accs, err := m.MapShared(nil, trace.SpaceOcc, addr, 32, false, false, false)
		if err != nil {
			t.Fatalf("MapShared: %v", err)
		}
		for _, a := range accs {
			seen[a.Node]++
		}
	}
	if len(seen) != 8 {
		t.Errorf("global placement used %d DIMMs, want 8", len(seen))
	}
}

func TestLocalSpacesPinToHome(t *testing.T) {
	home := cxl.DIMM(0, 0)
	m := mapperFor(t, nil, home)
	for addr := uint64(0); addr < 1<<18; addr += 999 {
		accs, err := m.MapShared(nil, trace.SpaceBloom, addr, 1, false, true, false)
		if err != nil {
			t.Fatalf("MapShared: %v", err)
		}
		for _, a := range accs {
			if a.Node != home {
				t.Fatalf("local access landed on %v, want %v", a.Node, home)
			}
		}
	}
	// Switch-homed mapper pins to its DIMM set instead.
	ms := mapperFor(t, nil, cxl.Switch(1))
	for addr := uint64(0); addr < 1<<18; addr += 997 {
		accs, err := ms.MapShared(nil, trace.SpaceBloom, addr, 1, false, true, false)
		if err != nil {
			t.Fatalf("MapShared: %v", err)
		}
		for _, a := range accs {
			if a.Node.Switch != 1 {
				t.Fatalf("switch-local access on switch %d", a.Node.Switch)
			}
		}
	}
}

func TestCXLGGetsFineGrainedModes(t *testing.T) {
	m := mapperFor(t, nil, cxl.DIMM(0, 0))
	// Slot 0 is CXLG: fine-grained access must be coalesced with group 8.
	accs, err := m.MapShared(nil, trace.SpaceBloom, 64, 1, false, true, false) // pinned to home = slot 0
	if err != nil {
		t.Fatalf("MapShared: %v", err)
	}
	for _, a := range accs {
		if a.Mode != dram.ModeCoalesced {
			t.Errorf("CXLG access mode %v, want coalesced", a.Mode)
		}
	}
	// With group 1, mode is per-chip.
	m1 := mapperFor(t, func(c *Config) { c.CoalesceGroup = 1 }, cxl.DIMM(0, 0))
	accs, err = m1.MapShared(nil, trace.SpaceBloom, 64, 1, false, true, false)
	if err != nil {
		t.Fatalf("MapShared: %v", err)
	}
	for _, a := range accs {
		if a.Mode != dram.ModePerChip {
			t.Errorf("group-1 access mode %v, want per-chip", a.Mode)
		}
	}
}

func TestUnmodifiedDIMMsAreLockstep(t *testing.T) {
	// BEACON-S pool: no CXLG slots; every access is lock-step regardless of
	// scheme (no per-chip CS on unmodified DIMMs).
	m := mapperFor(t, func(c *Config) { c.Pool.CXLGSlots = 0 }, cxl.Switch(0))
	for addr := uint64(0); addr < 1<<16; addr += 1024 {
		accs, err := m.MapShared(nil, trace.SpaceOcc, addr, 32, false, false, false)
		if err != nil {
			t.Fatalf("MapShared: %v", err)
		}
		for _, a := range accs {
			if a.Mode != dram.ModeLockstep {
				t.Fatalf("unmodified DIMM mode %v", a.Mode)
			}
		}
	}
}

func TestSpatialRowMajorMinimizesRowSpan(t *testing.T) {
	cfg := DefaultConfig()
	m := mapperFor(t, nil, cxl.DIMM(0, 0))
	// A 512 B spatial read under arch-data mapping must touch exactly one
	// (node, rank, bank, row) tuple when it fits a row segment.
	accs, err := m.MapShared(nil, trace.SpaceCandidates, 8192, 512, true, true, false)
	if err != nil {
		t.Fatalf("MapShared: %v", err)
	}
	if len(accs) != 1 {
		t.Fatalf("spatial 512 B mapped to %d accesses, want 1 (got %+v)", len(accs), accs)
	}
	// The fixed scheme splits the same read into 64 B units across banks.
	mf := mapperFor(t, func(c *Config) { c.Scheme = SchemeFixed }, cxl.DIMM(0, 0))
	accsF, err := mf.MapShared(nil, trace.SpaceCandidates, 8192, 512, true, true, false)
	if err != nil {
		t.Fatalf("MapShared: %v", err)
	}
	if len(accsF) != 512/64 {
		t.Fatalf("fixed spatial mapped to %d accesses, want %d", len(accsF), 512/64)
	}
	banks := map[[3]int]bool{}
	for _, a := range accsF {
		banks[[3]int{a.Loc.Rank, a.Loc.Bank, int(a.Loc.Row)}] = true
	}
	if len(banks) < 2 {
		t.Error("fixed mapping did not spread a spatial read across banks")
	}
	_ = cfg
}

func TestFineGrainedInterleaveSpreadsBanks(t *testing.T) {
	m := mapperFor(t, nil, cxl.DIMM(0, 0))
	seen := map[[3]int]bool{}
	for i := 0; i < 256; i++ {
		accs, err := m.MapShared(nil, trace.SpaceOcc, uint64(i)*32, 32, false, true, false)
		if err != nil {
			t.Fatalf("MapShared: %v", err)
		}
		for _, a := range accs {
			seen[[3]int{a.Loc.Rank, a.Loc.Chip, a.Loc.Bank}] = true
		}
	}
	// 2 groups x 16 banks x 4 ranks = 128 distinct slots; sequential blocks
	// must use a large fraction.
	if len(seen) < 64 {
		t.Errorf("fine-grained interleave used only %d bank slots", len(seen))
	}
}

func TestMapSplitsStripeBoundary(t *testing.T) {
	m := mapperFor(t, func(c *Config) { c.StripeBytes = 128 }, cxl.DIMM(0, 0))
	accs, err := m.MapShared(nil, trace.SpaceCandidates, 100, 100, true, false, false)
	if err != nil {
		t.Fatalf("MapShared: %v", err)
	}
	var total int
	for _, a := range accs {
		total += a.Bytes
	}
	if total != 100 {
		t.Errorf("split pieces sum to %d, want 100", total)
	}
	if len(accs) < 2 {
		t.Errorf("stripe-crossing access produced %d pieces, want >= 2", len(accs))
	}
}

func TestMapZeroSizeRejected(t *testing.T) {
	m := mapperFor(t, nil, cxl.DIMM(0, 0))
	if _, err := m.MapShared(nil, trace.SpaceOcc, 0, 0, false, false, false); err == nil {
		t.Error("zero-size access accepted")
	}
}

// Property: mapping conserves bytes and produces in-range locations.
func TestMapConservationProperty(t *testing.T) {
	cfg := DefaultConfig()
	m, err := NewMapper(cfg, cxl.DIMM(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	f := func(addr uint32, size uint16, spatial, local bool) bool {
		sz := uint32(size)%2048 + 1
		accs, err := m.MapShared(nil, trace.SpaceOcc, uint64(addr), sz, spatial, local, false)
		if err != nil {
			return false
		}
		total := 0
		for _, a := range accs {
			total += a.Bytes
			if a.Loc.Rank < 0 || a.Loc.Rank >= cfg.DIMM.Ranks ||
				a.Loc.Bank < 0 || a.Loc.Bank >= cfg.DIMM.Banks() ||
				a.Loc.Chip < 0 || a.Loc.Chip >= cfg.DIMM.ChipsPerRank ||
				a.Loc.Row < 0 {
				return false
			}
		}
		return total == int(sz)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: mapping is deterministic — a pure function of its arguments.
func TestMapDeterministicProperty(t *testing.T) {
	m, err := NewMapper(DefaultConfig(), cxl.Switch(0))
	if err != nil {
		t.Fatal(err)
	}
	f := func(addr uint32, size uint8, spatial bool) bool {
		sz := uint32(size) + 1
		a, err1 := m.MapShared(nil, trace.SpaceCandidates, uint64(addr), sz, spatial, false, false)
		b, err2 := m.MapShared(nil, trace.SpaceCandidates, uint64(addr), sz, spatial, false, false)
		if err1 != nil || err2 != nil || len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: MapShared appends to the caller's slice — the prefix stays and
// the suffix equals a mapping into nil — and reusing a truncated slice
// allocates nothing.
func TestMapSharedAppendsProperty(t *testing.T) {
	m, err := NewMapper(DefaultConfig(), cxl.Switch(1))
	if err != nil {
		t.Fatal(err)
	}
	prefix := PlacedAccess{Node: cxl.DIMM(0, 3), Bytes: 7}
	f := func(addr uint32, size uint16, spatial bool) bool {
		sz := uint32(size)%9000 + 1
		want, err1 := m.MapShared(nil, trace.SpaceCandidates, uint64(addr), sz, spatial, false, false)
		got, err2 := m.MapShared([]PlacedAccess{prefix}, trace.SpaceCandidates, uint64(addr), sz, spatial, false, false)
		return err1 == nil && err2 == nil && reflect.DeepEqual(got, append([]PlacedAccess{prefix}, want...))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	buf, _ := m.MapShared(nil, trace.SpaceCandidates, 0, 9000, false, false, false)
	allocs := testing.AllocsPerRun(100, func() {
		buf, _ = m.MapShared(buf[:0], trace.SpaceCandidates, 4096, 9000, false, false, false)
	})
	if allocs != 0 {
		t.Errorf("mapping into a reused slice allocates %.1f times, want 0", allocs)
	}
}

func TestSchemeString(t *testing.T) {
	if SchemeFixed.String() != "fixed" || SchemeArchData.String() != "arch-data" {
		t.Error("scheme names broken")
	}
}

// Property: a step maps to at most as many pieces as the blocks of its
// kind's granule (Granules) that it touches, on every scheme, group width,
// pool shape and home, including stripe and unit sizes that are not powers
// of two.
func TestGranuleBoundsPieces(t *testing.T) {
	configs := []func(*Config){
		nil,
		func(c *Config) { c.Scheme = SchemeFixed },
		func(c *Config) { c.CoalesceGroup = 1 },
		func(c *Config) { c.Pool.CXLGSlots = 0 },
		func(c *Config) { c.StripeBytes, c.FineUnitBytes = 1000, 48 },
		func(c *Config) { c.DIMM.RowBytes = 24 },
	}
	homes := []cxl.NodeID{cxl.DIMM(0, 0), cxl.DIMM(1, 2), cxl.Switch(1), cxl.Host()}
	for ci, mut := range configs {
		for _, home := range homes {
			m := mapperFor(t, mut, home)
			hot, spatialG := m.Granules()
			prop := func(addr uint32, size uint16, space uint8, spatial, local, shared bool) bool {
				sz := uint32(size) + 1
				pieces, err := m.MapShared(nil, trace.Space(space%uint8(trace.NumSpaces)), uint64(addr), sz, spatial, local, shared)
				g := hot
				if spatial {
					g = spatialG
				}
				blocks := (uint64(addr)%g + uint64(sz) + g - 1) / g
				return err == nil && uint64(len(pieces)) <= blocks
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
				t.Errorf("config %d, home %v (granules %d, %d): %v", ci, home, hot, spatialG, err)
			}
		}
	}
}
