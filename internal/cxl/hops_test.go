package cxl

import (
	"reflect"
	"testing"

	"beacon/internal/sim"
)

// hopCount traverses a path synchronously and returns (hops, delivery).
func tracePath(t *testing.T, f *Fabric, from, to NodeID, useful int, packed, viaHost bool) (int, sim.Cycle) {
	t.Helper()
	hops, wire, err := f.PathHops(from, to, useful, packed, viaHost)
	if err != nil {
		t.Fatalf("PathHops(%v->%v): %v", from, to, err)
	}
	var now sim.Cycle
	for _, h := range hops {
		now = h.Traverse(now, wire)
	}
	return len(hops), now
}

func TestPathHopsTopology(t *testing.T) {
	f := testFabric(t)
	cases := []struct {
		from, to NodeID
		viaHost  bool
		wantHops int
	}{
		// same-switch DIMM->DIMM: up, bus, down
		{DIMM(0, 0), DIMM(0, 1), false, 3},
		// cross-switch DIMM->DIMM: up, bus, host.up, host.down, bus, down
		{DIMM(0, 0), DIMM(1, 1), false, 6},
		// DIMM -> own switch: up, bus
		{DIMM(0, 2), Switch(0), false, 2},
		// switch -> own DIMM: bus, down
		{Switch(1), DIMM(1, 3), false, 2},
		// switch -> other switch: bus, host.up, host.down, bus
		{Switch(0), Switch(1), false, 4},
		// host -> DIMM: host.down, bus, down
		{Host(), DIMM(0, 0), false, 3},
		// DIMM -> host: up, bus, host.up
		{DIMM(1, 2), Host(), false, 3},
		// via-host detour same-switch: up, bus, host.up, latency, host.down, bus, down
		{DIMM(0, 0), DIMM(0, 1), true, 7},
	}
	for _, c := range cases {
		got, _ := tracePath(t, f, c.from, c.to, 32, false, c.viaHost)
		if got != c.wantHops {
			t.Errorf("%v->%v (viaHost=%v): %d hops, want %d", c.from, c.to, c.viaHost, got, c.wantHops)
		}
	}
}

func TestPathHopsViaHostLatency(t *testing.T) {
	f := testFabric(t)
	_, direct := tracePath(t, f, DIMM(0, 0), DIMM(0, 1), 32, false, false)
	f2 := testFabric(t)
	_, detour := tracePath(t, f2, DIMM(0, 0), DIMM(0, 1), 32, false, true)
	cfg := f.Config()
	minExtra := sim.Cycle(cfg.HostLatencyCycles + 2*cfg.HostLink.LatencyCycles)
	if detour-direct < minExtra {
		t.Errorf("detour adds %d cycles, want >= %d", detour-direct, minExtra)
	}
	if f2.Stats().HostCrossings != 1 {
		t.Errorf("host crossings = %d", f2.Stats().HostCrossings)
	}
}

func TestPathHopsIdeal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ideal = true
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hops, wire, err := f.PathHops(DIMM(0, 0), DIMM(1, 1), 32, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 0 || wire != 0 {
		t.Errorf("ideal path has %d hops, wire %d", len(hops), wire)
	}
	if f.Stats().Messages != 1 {
		t.Error("ideal path not counted as a message")
	}
}

func TestPathHopsStatsCategories(t *testing.T) {
	f := testFabric(t)
	hops, wire, err := f.PathHops(DIMM(0, 0), DIMM(0, 1), 16, true, false)
	if err != nil {
		t.Fatal(err)
	}
	var now sim.Cycle
	for _, h := range hops {
		now = h.Traverse(now, wire)
	}
	st := f.Stats()
	// Packed 16 B -> 20 B wire; 2 link hops and 1 bus hop (packer hop is
	// internal and uncounted).
	if st.WireBytes != 2*20 {
		t.Errorf("wire bytes = %d, want 40", st.WireBytes)
	}
	if st.SwitchBusBytes != 20 {
		t.Errorf("bus bytes = %d, want 20", st.SwitchBusBytes)
	}
	if st.UsefulBytes != 16 {
		t.Errorf("useful bytes = %d, want 16", st.UsefulBytes)
	}
}

func TestRouteMatchesPathHops(t *testing.T) {
	// The synchronous Route wrapper and a manual hop walk must agree.
	f1, f2 := testFabric(t), testFabric(t)
	d1, err := f1.Route(0, DIMM(0, 0), DIMM(1, 2), 48, true, false)
	if err != nil {
		t.Fatal(err)
	}
	_, d2 := tracePath(t, f2, DIMM(0, 0), DIMM(1, 2), 48, true, false)
	if d1 != d2 {
		t.Errorf("Route = %d, hop walk = %d", d1, d2)
	}
}

// TestPathHopsMemoMatchesFreshPath checks the route memo on the Table I
// 2x4 pool and a 4x8 one: for every endpoint pair, packed and unpacked,
// 16 B and flit-sized payloads, with and without the host detour, the
// memoized hops equal a freshly built path (queried in two orders, so a
// key collision would surface), repeated calls share one slice, the wire
// bytes follow the call's payload, and every call counts the same
// message-level Stats delta.
func TestPathHopsMemoMatchesFreshPath(t *testing.T) {
	for _, shape := range [][2]int{{2, 4}, {4, 8}} {
		cfg := DefaultConfig()
		cfg.Switches, cfg.DIMMsPerSwitch = shape[0], shape[1]
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes := []NodeID{Host()}
		for s := 0; s < cfg.Switches; s++ {
			nodes = append(nodes, Switch(s))
		}
		for s := 0; s < cfg.Switches; s++ {
			for d := 0; d < cfg.DIMMsPerSwitch; d++ {
				nodes = append(nodes, DIMM(s, d))
			}
		}
		type call struct {
			from, to        NodeID
			useful          int
			packed, viaHost bool
		}
		var calls []call
		for _, from := range nodes {
			for _, to := range nodes {
				for _, useful := range []int{16, FlitBytes} {
					for _, packed := range []bool{false, true} {
						for _, viaHost := range []bool{false, true} {
							calls = append(calls, call{from, to, useful, packed, viaHost})
						}
					}
				}
			}
		}
		first := make([][]Hop, len(calls))
		check := func(i int, c call) {
			before := f.Stats()
			hops, wire, err := f.PathHops(c.from, c.to, c.useful, c.packed, c.viaHost)
			if err != nil {
				t.Fatalf("%dx%d %v->%v: %v", shape[0], shape[1], c.from, c.to, err)
			}
			after := f.Stats()
			delta := Stats{
				Messages:      after.Messages - before.Messages,
				UsefulBytes:   after.UsefulBytes - before.UsefulBytes,
				HostCrossings: after.HostCrossings - before.HostCrossings,
			}
			want := Stats{Messages: 1, UsefulBytes: uint64(c.useful)}
			if c.viaHost {
				want.HostCrossings = 1
			}
			if delta != want {
				t.Errorf("%dx%d %+v: stats delta %+v, want %+v", shape[0], shape[1], c, delta, want)
			}
			if c.from == c.to {
				if len(hops) != 0 || wire != 0 {
					t.Errorf("%+v: same-node path has %d hops, wire %d", c, len(hops), wire)
				}
				return
			}
			fresh := f.buildPath(c.from, c.to, c.packed && c.useful < FlitBytes, c.viaHost)
			if !reflect.DeepEqual(hops, fresh) {
				t.Errorf("%dx%d %+v: memoized hops %v, fresh path %v", shape[0], shape[1], c, hops, fresh)
			}
			if wire != WireBytesFor(c.useful, c.packed) {
				t.Errorf("%+v: wire %d, want %d", c, wire, WireBytesFor(c.useful, c.packed))
			}
			if first[i] == nil {
				first[i] = hops
			} else if &first[i][0] != &hops[0] {
				t.Errorf("%+v: repeated call built a new slice", c)
			}
		}
		for i, c := range calls {
			check(i, c)
		}
		for i := len(calls) - 1; i >= 0; i-- {
			check(i, calls[i])
		}
	}
}
