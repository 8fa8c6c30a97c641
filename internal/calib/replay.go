package calib

import (
	"fmt"
	"sort"

	"beacon/internal/cxl"
	"beacon/internal/dram"
	"beacon/internal/obs"
	"beacon/internal/sim"
)

// Request/acknowledgement message sizes on the fabric paths. Reads send a
// small command down and the payload back; writes send the payload down
// and a completion token back.
const (
	reqHeaderBytes = 16
	ackBytes       = 4
)

// point is one sweep coordinate.
type point struct {
	plat     PlatformSpec
	pattern  Pattern
	size     int
	depth    int
	writePct int
}

// Run replays the whole calibration suite and returns its artifact. The
// replay is fully deterministic: identical Configs yield byte-identical
// encoded artifacts regardless of host machine.
func Run(cfg Config) (*Artifact, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	art := &Artifact{
		Version:  ArtifactVersion,
		Seed:     cfg.Seed,
		Requests: cfg.Requests,
	}
	// Every point forks its RNG off the suite seed and the point's own
	// coordinates, so curves are independent of sweep order and of each
	// other — adding a size to the axis cannot shift another curve.
	for _, plat := range cfg.Platforms {
		for _, pat := range cfg.Patterns {
			for _, size := range cfg.Sizes {
				for _, depth := range cfg.Depths {
					for _, wp := range cfg.WritePcts {
						p := point{plat: plat, pattern: pat, size: size, depth: depth, writePct: wp}
						c, err := runPoint(cfg, p)
						if err != nil {
							return nil, fmt.Errorf("calib: %s: %w", curveKey(p), err)
						}
						art.Curves = append(art.Curves, c)
					}
				}
			}
		}
	}
	return art, nil
}

// curveKey renders a point's canonical label.
func curveKey(p point) string {
	return fmt.Sprintf("%s/%s/s%d/d%d/w%d", p.plat.Name, p.pattern, p.size, p.depth, p.writePct)
}

// pointSeed derives the per-point RNG seed from the suite seed and the
// point coordinates (an order-independent mix, FNV-style).
func pointSeed(seed uint64, p point) uint64 {
	h := seed ^ 0x9E3779B97F4A7C15
	for _, b := range []byte(curveKey(p)) {
		h ^= uint64(b)
		h *= 0x100000001B3
	}
	return h
}

// runPoint replays one sweep point: a closed loop holding `depth` requests
// in flight through the platform's path, driven entirely by engine events
// so the scheduler-equivalence guarantees of internal/sim extend to these
// curves.
func runPoint(cfg Config, p point) (Curve, error) {
	eng := sim.NewEngine()
	// Livelock backstop: a request costs a bounded handful of events on
	// every path (two for raw DRAM, ~a dozen hops for the pool paths).
	eng.MaxEvents = uint64(cfg.Requests)*64 + 1024

	ob := obs.New(curveKey(p))
	dimm, err := dram.NewDIMM("calib", cfg.DIMM, cfg.Coalesce)
	if err != nil {
		return Curve{}, err
	}
	dimm.Instrument(ob)

	var fab *cxl.Fabric
	var origin cxl.NodeID
	dimmNode := cxl.DIMM(0, 0)
	if p.plat.Via != PathDRAM {
		fab, err = cxl.New(cfg.Fabric)
		if err != nil {
			return Curve{}, err
		}
		origin = cxl.Host()
		if p.plat.Via == PathSwitch {
			origin = cxl.Switch(0)
		}
	}

	gen := newGenerator(p.pattern, newGeom(cfg, p.plat), p.size, p.depth, sim.NewRNG(pointSeed(cfg.Seed, p)))

	var (
		issued    int
		lastDone  sim.Cycle
		totalData uint64
		lats      = make([]int64, 0, cfg.Requests)
		runErr    error
	)
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}

	// send walks a fabric path with the event-driven hop walker, a
	// cxl.Cursor: each hop in an event at the previous hop's delivery,
	// then calls then at the arrival.
	send := func(from, to cxl.NodeID, useful int, then func(sim.Cycle)) {
		hops, wire, err := fab.PathHops(from, to, useful, false, false)
		if err != nil {
			fail(err)
			return
		}
		c := cxl.NewCursor(hops, wire)
		var hop func(t sim.Cycle)
		hop = func(t sim.Cycle) {
			if d, ok := c.Next(t); ok {
				eng.ScheduleAtOrNow(d, func() { hop(d) })
				return
			}
			then(t)
		}
		hop(eng.Now())
	}

	// access performs the DRAM access entered at time t (an event time on
	// fabric paths, the issue time on the raw path) and calls after in an
	// event at its completion.
	access := func(t sim.Cycle, loc dram.Loc, write bool, after func(sim.Cycle)) {
		done, err := dimm.Access(t, loc, p.size, write, p.plat.Mode)
		if err != nil {
			fail(err)
			return
		}
		eng.ScheduleAt(done, func() { after(done) })
	}

	var issue func(slot int)
	issue = func(slot int) {
		if runErr != nil || issued >= cfg.Requests {
			return
		}
		i := issued
		issued++
		loc := gen.next(slot)
		write := writeAt(i, p.writePct)
		start := eng.Now()
		finish := func(done sim.Cycle) {
			lats = append(lats, int64(done-start))
			lastDone = max(lastDone, done)
			totalData += uint64(p.size)
			issue(slot)
		}

		if p.plat.Via == PathDRAM {
			access(start, loc, write, finish)
			return
		}
		// Pool paths: command down, DRAM access, payload/ack back.
		down, up := reqHeaderBytes, p.size
		if write {
			down, up = p.size, ackBytes
		}
		back := func(sim.Cycle) { send(dimmNode, origin, up, finish) }
		send(origin, dimmNode, down, func(t sim.Cycle) { access(t, loc, write, back) })
	}

	for s := 0; s < p.depth; s++ {
		slot := s
		eng.ScheduleAt(0, func() { issue(slot) })
	}
	if _, err := eng.Run(); err != nil {
		return Curve{}, err
	}
	if runErr != nil {
		return Curve{}, runErr
	}
	if len(lats) != cfg.Requests {
		return Curve{}, fmt.Errorf("replay completed %d of %d requests", len(lats), cfg.Requests)
	}

	// Final metrics come off the obs snapshot — the same dram.* gauge
	// accounting beaconprof artifacts carry — so curve numbers and metrics
	// artifacts can never disagree about what happened.
	ob.Sample(int64(lastDone))
	final := ob.Metrics.Dump().Final().Values

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum int64
	for _, l := range lats {
		sum += l
	}
	m := CurveMetrics{
		P50Cycles:          percentile(lats, 50),
		P95Cycles:          percentile(lats, 95),
		P99Cycles:          percentile(lats, 99),
		MeanCycles:         float64(sum) / float64(len(lats)),
		GBPerSec:           sim.GBPerSecond(totalData, lastDone),
		RowHitRate:         hitRate(final),
		FAWStallCycles:     int64(final["dram.calib.faw_stall_cycles"]),
		RefreshStallCycles: int64(final["dram.calib.refresh_stall_cycles"]),
	}
	if fab != nil {
		m.WireBytes = fab.Stats().WireBytes
	}
	return Curve{
		Platform: p.plat.Name,
		Pattern:  string(p.pattern),
		Size:     p.size,
		Depth:    p.depth,
		WritePct: p.writePct,
		Metrics:  m,
	}, nil
}

// hitRate computes the row-hit fraction from the DIMM's gauge snapshot.
func hitRate(final map[string]float64) float64 {
	hits := final["dram.calib.row_hits"]
	total := hits + final["dram.calib.row_misses"] + final["dram.calib.row_conflicts"]
	if total == 0 {
		return 0
	}
	return hits / total
}

// percentile returns the nearest-rank p-th percentile of sorted latencies.
func percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
