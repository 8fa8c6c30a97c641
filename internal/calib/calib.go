// Package calib is the timing-model calibration harness: it replays
// canonical synthetic access patterns through the DRAM and CXL timing
// models and distills the observed behaviour into deterministic
// latency/bandwidth curves.
//
// The Ramulator 2.0 re-evaluation literature shows that cycle-level memory
// simulators drift from real-system behaviour as they evolve. This package
// is the defence: five access patterns — streaming-sequential,
// uniform-random, pointer-chase (dependent loads), row-buffer-friendly and
// bank-conflict-adversarial — are swept over request size, queue depth and
// read/write mix on each platform path (raw DDR DIMM, switch-attached
// BEACON access, host access through the switch). Every sweep point yields
// one Curve: p50/p95/p99 latency, sustained GB/s, row-hit rate and stall
// accounting, all in integer DRAM bus cycles from the deterministic event
// kernel, so two runs of the same Config produce byte-identical artifacts.
//
// Curves are pinned as goldens (testdata/calib/ at the repository root) and
// validated against DDR4 first-principles envelopes (CheckEnvelopes):
// tCAS-bounded idle latency, bandwidth below the pin ceiling, tFAW-bounded
// random-access bandwidth, and the row-locality extremes the friendly and
// adversarial patterns construct. Run produces an Artifact, Compare diffs
// two of them under beaconprof-style per-metric tolerances, and
// `beaconbench -calibrate` wires both into CI.
package calib

import (
	"fmt"

	"beacon/internal/cxl"
	"beacon/internal/dram"
)

// Pattern names one canonical synthetic access pattern.
type Pattern string

// The five calibration patterns.
const (
	// PatternStreaming interleaves one sequential stream per rank and chip
	// group: each stream drains its open row with consecutive requests
	// before advancing bank- then row-major, so the pattern is
	// row-hit-rich and parallel across every chip group — the
	// bandwidth-maximal stream.
	PatternStreaming Pattern = "streaming"
	// PatternRandom draws rank, bank, chip and row uniformly per request.
	PatternRandom Pattern = "random"
	// PatternPointerChase issues dependent loads: each chain's next address
	// derives from the previous completion, so queue depth D means D
	// independent chains and latency, not bandwidth, bounds throughput.
	PatternPointerChase Pattern = "pointer-chase"
	// PatternRowFriendly revisits one open row per bank over a small bank
	// set, constructing a near-100% row-hit stream.
	PatternRowFriendly Pattern = "row-friendly"
	// PatternBankAdversarial walks a fresh row of a single bank on every
	// access: every access is a row conflict and the activation stream
	// hammers the tFAW window.
	PatternBankAdversarial Pattern = "bank-adversarial"
)

// AllPatterns returns the five patterns in their canonical order.
func AllPatterns() []Pattern {
	return []Pattern{
		PatternStreaming,
		PatternRandom,
		PatternPointerChase,
		PatternRowFriendly,
		PatternBankAdversarial,
	}
}

// knownPattern reports whether p is one of the five calibration patterns.
func knownPattern(p Pattern) bool {
	switch p {
	case PatternStreaming, PatternRandom, PatternPointerChase,
		PatternRowFriendly, PatternBankAdversarial:
		return true
	}
	return false
}

// Path selects how requests reach the DIMM.
type Path uint8

// Platform paths.
const (
	// PathDRAM issues requests straight to the DIMM — the raw DDR timing
	// model with no fabric in the way.
	PathDRAM Path = iota
	// PathSwitch issues from the switch logic to a DIMM under the same
	// switch: the BEACON-S direct-attach access (DIMM link + Switch-Bus,
	// no host crossing).
	PathSwitch
	// PathHost issues from the host through the switch to the DIMM — the
	// full pool path (host link + Switch-Bus + DIMM link each way).
	PathHost
)

// String names the path.
func (p Path) String() string {
	switch p {
	case PathDRAM:
		return "dram"
	case PathSwitch:
		return "switch"
	case PathHost:
		return "host"
	}
	return fmt.Sprintf("path(%d)", uint8(p))
}

// PlatformSpec names one calibration target: a request path and the DRAM
// access mode used on it.
type PlatformSpec struct {
	// Name labels the platform in curves and artifacts.
	Name string
	// Via is the request path to the DIMM.
	Via Path
	// Mode is the DRAM chip-select mode requests use.
	Mode dram.AccessMode
}

// DDRPlatform is the DDR baseline: raw DIMM access in conventional
// lock-step mode, the configuration Ramulator-style DDR4 envelopes apply
// to directly.
func DDRPlatform() PlatformSpec {
	return PlatformSpec{Name: "ddr", Via: PathDRAM, Mode: dram.ModeLockstep}
}

// BeaconDirectPlatform is the switch-attached BEACON access: requests
// originate at the switch logic (as BEACON-S PEs do) and use multi-chip
// coalescing on the DIMM.
func BeaconDirectPlatform() PlatformSpec {
	return PlatformSpec{Name: "beacon-direct", Via: PathSwitch, Mode: dram.ModeCoalesced}
}

// BeaconSwitchedPlatform is the full pool path: requests originate at the
// host and traverse host link, Switch-Bus and DIMM link each way.
func BeaconSwitchedPlatform() PlatformSpec {
	return PlatformSpec{Name: "beacon-switched", Via: PathHost, Mode: dram.ModeCoalesced}
}

// DefaultPlatforms returns the three calibration targets in canonical
// order: the DDR baseline and both BEACON paths.
func DefaultPlatforms() []PlatformSpec {
	return []PlatformSpec{DDRPlatform(), BeaconDirectPlatform(), BeaconSwitchedPlatform()}
}

// Config is one calibration suite: the timing models under test and the
// sweep axes. The cross product platforms x patterns x sizes x depths x
// write mixes defines the curve set; identical Configs produce
// byte-identical artifacts.
type Config struct {
	// DIMM is the DRAM timing model under calibration.
	DIMM dram.Config
	// Fabric is the CXL pool fabric for the switch/host paths.
	Fabric cxl.Config
	// Coalesce is the multi-chip-coalescing group size for
	// dram.ModeCoalesced platforms.
	Coalesce int

	// Platforms, Patterns, Sizes (request bytes), Depths (outstanding
	// requests; independent chains for pointer-chase) and WritePcts
	// (write percentage, 0..100) are the sweep axes.
	Platforms []PlatformSpec
	Patterns  []Pattern
	Sizes     []int
	Depths    []int
	WritePcts []int

	// Requests is the number of requests replayed per sweep point.
	Requests int
	// Seed feeds the deterministic RNG behind the stochastic patterns.
	Seed uint64
}

// QuickConfig returns the short calibration suite: the committed goldens
// and the CI calib-smoke job replay exactly this. Small enough to run in
// well under a second, wide enough to cover every pattern x platform pair
// at two sizes, two depths and two write mixes.
func QuickConfig() Config {
	return Config{
		DIMM:      dram.DefaultConfig(),
		Fabric:    cxl.DefaultConfig(),
		Coalesce:  4,
		Platforms: DefaultPlatforms(),
		Patterns:  AllPatterns(),
		Sizes:     []int{64, 512},
		Depths:    []int{1, 8},
		WritePcts: []int{0, 50},
		Requests:  256,
		Seed:      1,
	}
}

// FullConfig returns the wide sweep for offline characterization
// (beaconbench -calibrate -calib-full): more sizes, deeper queues, a full
// write-mix axis and longer replays per point.
func FullConfig() Config {
	cfg := QuickConfig()
	cfg.Sizes = []int{64, 256, 1024, 4096}
	cfg.Depths = []int{1, 4, 16, 64}
	cfg.WritePcts = []int{0, 50, 100}
	cfg.Requests = 1024
	return cfg
}

// Validate checks the suite definition.
func (c Config) Validate() error {
	if err := c.DIMM.Validate(); err != nil {
		return err
	}
	needFabric := false
	for _, p := range c.Platforms {
		if p.Via != PathDRAM {
			needFabric = true
		}
	}
	if needFabric {
		if err := c.Fabric.Validate(); err != nil {
			return err
		}
		if c.Fabric.Ideal {
			return fmt.Errorf("calib: an ideal fabric has no timing to calibrate")
		}
	}
	if len(c.Platforms) == 0 {
		return fmt.Errorf("calib: no platforms")
	}
	seen := map[string]bool{}
	for _, p := range c.Platforms {
		if p.Name == "" {
			return fmt.Errorf("calib: platform with empty name")
		}
		if seen[p.Name] {
			return fmt.Errorf("calib: duplicate platform %q", p.Name)
		}
		seen[p.Name] = true
		switch p.Via {
		case PathDRAM, PathSwitch, PathHost:
		default:
			return fmt.Errorf("calib: platform %q: unknown path %d", p.Name, p.Via)
		}
	}
	if len(c.Patterns) == 0 {
		return fmt.Errorf("calib: no patterns")
	}
	for _, p := range c.Patterns {
		if !knownPattern(p) {
			return fmt.Errorf("calib: unknown pattern %q", p)
		}
	}
	if len(c.Sizes) == 0 || len(c.Depths) == 0 || len(c.WritePcts) == 0 {
		return fmt.Errorf("calib: empty sweep axis (sizes/depths/write mixes)")
	}
	for _, s := range c.Sizes {
		if s <= 0 {
			return fmt.Errorf("calib: non-positive request size %d", s)
		}
	}
	for _, d := range c.Depths {
		if d <= 0 {
			return fmt.Errorf("calib: non-positive queue depth %d", d)
		}
	}
	for _, w := range c.WritePcts {
		if w < 0 || w > 100 {
			return fmt.Errorf("calib: write percentage %d outside [0,100]", w)
		}
	}
	if c.Requests <= 0 {
		return fmt.Errorf("calib: requests per point must be positive, got %d", c.Requests)
	}
	if c.Coalesce <= 0 {
		return fmt.Errorf("calib: coalesce group must be positive, got %d", c.Coalesce)
	}
	return nil
}
