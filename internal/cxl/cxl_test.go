package cxl

import (
	"testing"
	"testing/quick"

	"beacon/internal/sim"
)

func testFabric(t *testing.T) *Fabric {
	t.Helper()
	f, err := New(DefaultConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	mut := []func(*Config){
		func(c *Config) { c.Switches = 0 },
		func(c *Config) { c.DIMMsPerSwitch = 0 },
		func(c *Config) { c.HostLink.BytesPerCycle = 0 },
		func(c *Config) { c.DIMMLink.LatencyCycles = -1 },
		func(c *Config) { c.SwitchBusBytesPerCycle = 0 },
		func(c *Config) { c.HostLatencyCycles = -1 },
	}
	for i, fn := range mut {
		c := DefaultConfig()
		fn(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	// Ideal fabric ignores link parameters.
	c := DefaultConfig()
	c.Ideal = true
	c.HostLink.BytesPerCycle = 0
	if err := c.Validate(); err != nil {
		t.Errorf("ideal config rejected: %v", err)
	}
}

func TestWireBytes(t *testing.T) {
	cases := []struct {
		useful int
		packed bool
		want   int
	}{
		{32, false, 64},
		{64, false, 64},
		{65, false, 128},
		{1, false, 64},
		{32, true, 36},
		{1, true, 5},
		{0, true, 0},
		{0, false, 0},
	}
	for _, c := range cases {
		if got := WireBytesFor(c.useful, c.packed); got != c.want {
			t.Errorf("WireBytesFor(%d, %v) = %d, want %d", c.useful, c.packed, got, c.want)
		}
	}
}

func TestRouteSameSwitchSkipsHost(t *testing.T) {
	f := testFabric(t)
	done, err := f.Route(0, DIMM(0, 0), DIMM(0, 1), 32, false, false)
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	cfg := f.Config()
	// Two DIMM link traversals + one bus hop; no host link involvement.
	minLat := sim.Cycle(2*cfg.DIMMLink.LatencyCycles + cfg.SwitchLatencyCycles)
	if done < minLat {
		t.Errorf("same-switch latency %d below physical floor %d", done, minLat)
	}
	if f.Stats().HostCrossings != 0 {
		t.Error("same-switch route crossed the host")
	}
	// Cross-switch is strictly slower (host tree traversal).
	f2 := testFabric(t)
	done2, err := f2.Route(0, DIMM(0, 0), DIMM(1, 0), 32, false, false)
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	if done2 <= done {
		t.Errorf("cross-switch (%d) not slower than same-switch (%d)", done2, done)
	}
}

func TestRouteViaHostSlower(t *testing.T) {
	direct := testFabric(t)
	viaHost := testFabric(t)
	d1, err := direct.Route(0, Switch(0), DIMM(0, 2), 64, false, false)
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	d2, err := viaHost.Route(0, Switch(0), DIMM(0, 2), 64, false, true)
	if err != nil {
		t.Fatalf("Route via host: %v", err)
	}
	if d2 <= d1 {
		t.Errorf("host detour (%d) not slower than direct (%d)", d2, d1)
	}
	if viaHost.Stats().HostCrossings != 1 {
		t.Errorf("host crossings = %d, want 1", viaHost.Stats().HostCrossings)
	}
}

func TestPackingSavesWireBytes(t *testing.T) {
	unpacked := testFabric(t)
	packed := testFabric(t)
	for i := 0; i < 100; i++ {
		if _, err := unpacked.Route(sim.Cycle(i*10), DIMM(0, 0), Switch(0), 8, false, false); err != nil {
			t.Fatalf("Route: %v", err)
		}
		if _, err := packed.Route(sim.Cycle(i*10), DIMM(0, 0), Switch(0), 8, true, false); err != nil {
			t.Fatalf("Route: %v", err)
		}
	}
	u, p := unpacked.Stats().WireBytes, packed.Stats().WireBytes
	if p*4 > u {
		t.Errorf("packing moved %d wire bytes vs %d unpacked; expected >= 4x saving for 8 B payloads", p, u)
	}
}

func TestPackingThroughputAdvantage(t *testing.T) {
	// Saturate a DIMM link with fine-grained messages; the packed stream
	// must drain sooner because each message occupies fewer link cycles.
	unpacked := testFabric(t)
	packed := testFabric(t)
	var lastU, lastP sim.Cycle
	for i := 0; i < 500; i++ {
		var err error
		lastU, err = unpacked.Route(0, DIMM(0, 0), Switch(0), 8, false, false)
		if err != nil {
			t.Fatalf("Route: %v", err)
		}
		lastP, err = packed.Route(0, DIMM(0, 0), Switch(0), 8, true, false)
		if err != nil {
			t.Fatalf("Route: %v", err)
		}
	}
	if lastP >= lastU {
		t.Errorf("packed stream drained at %d, unpacked at %d; want packed faster", lastP, lastU)
	}
}

func TestIdealFabricIsInstant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ideal = true
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	done, err := f.Route(123, DIMM(0, 0), DIMM(1, 3), 1<<20, false, false)
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	if done != 123 {
		t.Errorf("ideal route took %d cycles", done-123)
	}
	done, err = f.Route(50, DIMM(0, 0), Host(), 64, false, true)
	if err != nil {
		t.Fatalf("Route via host: %v", err)
	}
	if done != 50 {
		t.Errorf("ideal host route took %d cycles", done-50)
	}
}

func TestRouteValidation(t *testing.T) {
	f := testFabric(t)
	bad := []struct{ from, to NodeID }{
		{DIMM(9, 0), Host()},
		{DIMM(0, 9), Host()},
		{Switch(9), Host()},
		{Host(), DIMM(0, 99)},
		{NodeID{Kind: 99}, Host()},
	}
	for i, c := range bad {
		if _, err := f.Route(0, c.from, c.to, 8, false, false); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestRouteSelfIsFree(t *testing.T) {
	f := testFabric(t)
	done, err := f.Route(77, DIMM(1, 1), DIMM(1, 1), 64, false, false)
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	if done != 77 {
		t.Errorf("self route took %d cycles", done-77)
	}
	if f.Stats().WireBytes != 0 {
		t.Error("self route serialized bytes")
	}
}

func TestHostLinkContentionAcrossDIMMs(t *testing.T) {
	// All traffic from switch 0's DIMMs to switch 1 funnels through one
	// host link pair; the aggregate must serialize there.
	f := testFabric(t)
	var last sim.Cycle
	for i := 0; i < 50; i++ {
		d, err := f.Route(0, DIMM(0, i%4), DIMM(1, i%4), 4096, false, false)
		if err != nil {
			t.Fatalf("Route: %v", err)
		}
		if d > last {
			last = d
		}
	}
	// The stream must be bound by serializing 50 x 4096 B through one
	// host-link direction.
	bound := sim.Cycle(50 * 4096 / f.Config().HostLink.BytesPerCycle)
	if last < bound {
		t.Errorf("cross-switch stream drained at %d, want >= %d (host-link bound)", last, bound)
	}
}

func TestNodeStrings(t *testing.T) {
	if Host().String() != "host" || Switch(2).String() != "switch2" || DIMM(1, 3).String() != "dimm1.3" {
		t.Error("node naming broken")
	}
}

// Property: delivery time is monotone non-decreasing with request time on a
// contended path, and never precedes the request.
func TestRouteMonotoneProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		fab, err := New(DefaultConfig())
		if err != nil {
			return false
		}
		now := sim.Cycle(0)
		for _, s := range sizes {
			d, err := fab.Route(now, DIMM(0, 0), Switch(0), int(s)+1, false, false)
			if err != nil || d < now {
				return false
			}
			now += 2
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPinBytesPerCycle(t *testing.T) {
	c := DefaultConfig() // DIMM link 40 B/cyc, host link 80, Switch-Bus 160
	cases := []struct {
		name     string
		from, to NodeID
		want     float64
	}{
		{"host to dimm", Host(), DIMM(0, 0), c.DIMMLink.BytesPerCycle},
		{"dimm to host", DIMM(1, 2), Host(), c.DIMMLink.BytesPerCycle},
		{"same switch dimm pair", DIMM(0, 0), DIMM(0, 1), c.DIMMLink.BytesPerCycle},
		{"cross switch detours via host", DIMM(0, 0), DIMM(1, 0), c.DIMMLink.BytesPerCycle},
		{"host to switch", Host(), Switch(0), c.HostLink.BytesPerCycle},
		{"same node", DIMM(0, 0), DIMM(0, 0), 0},
	}
	for _, tc := range cases {
		if got := c.PinBytesPerCycle(tc.from, tc.to); got != tc.want {
			t.Errorf("%s: pin %.1f, want %.1f", tc.name, got, tc.want)
		}
	}

	// The answer is the tightest link on the path: squeeze the host link
	// below the DIMM link and a cross-switch path inherits it.
	narrow := c
	narrow.HostLink.BytesPerCycle = c.DIMMLink.BytesPerCycle / 2
	if got := narrow.PinBytesPerCycle(DIMM(0, 0), DIMM(1, 0)); got != narrow.HostLink.BytesPerCycle {
		t.Errorf("cross-switch pin %.1f, want narrowed host link %.1f", got, narrow.HostLink.BytesPerCycle)
	}
	// Same-switch traffic never touches the host link, so it keeps the
	// DIMM-link ceiling.
	if got := narrow.PinBytesPerCycle(DIMM(0, 0), DIMM(0, 1)); got != c.DIMMLink.BytesPerCycle {
		t.Errorf("same-switch pin %.1f, want DIMM link %.1f", got, c.DIMMLink.BytesPerCycle)
	}

	// Ideal fabrics have no wire: unbounded.
	ideal := c
	ideal.Ideal = true
	if got := ideal.PinBytesPerCycle(Host(), DIMM(0, 0)); got != 0 {
		t.Errorf("ideal pin %.1f, want 0", got)
	}
}
