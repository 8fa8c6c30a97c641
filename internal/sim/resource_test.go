package sim

import (
	"testing"
	"testing/quick"
)

func TestResourceSerializes(t *testing.T) {
	r := NewResource("bank", 1)
	s1, e1 := r.Acquire(0, 10)
	if s1 != 0 || e1 != 10 {
		t.Errorf("first grant [%d,%d), want [0,10)", s1, e1)
	}
	s2, e2 := r.Acquire(0, 10)
	if s2 != 10 || e2 != 20 {
		t.Errorf("second grant [%d,%d), want [10,20)", s2, e2)
	}
	// A request arriving after the backlog clears starts immediately.
	s3, _ := r.Acquire(50, 5)
	if s3 != 50 {
		t.Errorf("idle grant starts at %d, want 50", s3)
	}
}

func TestResourceWidthParallelism(t *testing.T) {
	r := NewResource("pes", 3)
	for i := 0; i < 3; i++ {
		s, _ := r.Acquire(0, 10)
		if s != 0 {
			t.Errorf("grant %d starts at %d, want 0 (parallel servers)", i, s)
		}
	}
	s, _ := r.Acquire(0, 10)
	if s != 10 {
		t.Errorf("fourth grant starts at %d, want 10", s)
	}
}

func TestResourceUtilization(t *testing.T) {
	r := NewResource("x", 2)
	r.Acquire(0, 50)
	r.Acquire(0, 50)
	if got := r.Utilization(100); got != 0.5 {
		t.Errorf("utilization = %g, want 0.5", got)
	}
	if r.Grants() != 2 {
		t.Errorf("grants = %d, want 2", r.Grants())
	}
}

// Property: grants on a single-server resource never overlap, and each grant
// starts no earlier than requested.
func TestResourceNoOverlapProperty(t *testing.T) {
	type req struct {
		At  uint16
		Dur uint8
	}
	f := func(reqs []req) bool {
		r := NewResource("p", 1)
		now := Cycle(0)
		prevEnd := Cycle(0)
		for _, q := range reqs {
			now += Cycle(q.At)
			s, e := r.Acquire(now, Cycles(q.Dur))
			if s < now || s < prevEnd || e != s+Cycles(q.Dur) {
				return false
			}
			prevEnd = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPipeBandwidthAndLatency(t *testing.T) {
	// 8 bytes/cycle, 5 cycles latency.
	p := NewPipe("link", 8, 5)
	d := p.Transfer(0, 64) // 8 cycles occupancy + 5 latency
	if d != 13 {
		t.Errorf("delivery = %d, want 13", d)
	}
	// Second transfer queues behind the first.
	d2 := p.Transfer(0, 64)
	if d2 != 21 {
		t.Errorf("second delivery = %d, want 21", d2)
	}
	if p.BytesMoved() != 128 {
		t.Errorf("bytes moved = %d, want 128", p.BytesMoved())
	}
}

func TestPipeZeroByteMessageSerializes(t *testing.T) {
	// Header-only messages still take one serialization cycle plus the
	// propagation latency (keeping per-lane delivery FIFO).
	p := NewPipe("ctl", 4, 9)
	if d := p.Transfer(100, 0); d != 110 {
		t.Errorf("delivery = %d, want 110", d)
	}
}

func TestPipeSubCycleTransferRoundsUp(t *testing.T) {
	p := NewPipe("link", 64, 0)
	if d := p.Transfer(0, 1); d != 1 {
		t.Errorf("1-byte transfer on wide pipe delivered at %d, want 1", d)
	}
}

// Property: pipe delivery time is monotone in the request stream — a later
// transfer is never delivered before an earlier one (single FIFO server).
func TestPipeFIFOProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		p := NewPipe("l", 3.5, 7)
		last := Cycle(0)
		for i, n := range sizes {
			d := p.Transfer(Cycle(i), int(n))
			if d < last {
				return false
			}
			last = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(9)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", f)
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(5)
	f1 := r.Fork()
	f2 := r.Fork()
	eq := 0
	for i := 0; i < 64; i++ {
		if f1.Uint64() == f2.Uint64() {
			eq++
		}
	}
	if eq > 2 {
		t.Errorf("forked streams look correlated: %d/64 equal draws", eq)
	}
}

// TestAcquireMatchesLinearScan replays random (now, d) request streams
// against a linear-scan reference model of a width-server calendar — the
// obvious "pick the earliest-free server" loop — and requires every grant
// and every accessor to agree after each call. Servers are identical, so
// only the multiset of free times matters; any server-selection structure
// that keeps that multiset exact grants the same intervals.
func TestAcquireMatchesLinearScan(t *testing.T) {
	for _, width := range []int{1, 2, 3, 64, 128, 256} {
		rng := NewRNG(uint64(0xAC0 + width))
		r := NewResource("ref", width)
		ref := make([]Cycle, width)
		var busy, waited Cycles
		now := Cycle(0)
		for i := 0; i < 20_000; i++ {
			// Mostly-forward time with occasional stale requests (a model
			// may reserve for an earlier cycle than the last grant's).
			switch rng.Intn(8) {
			case 0:
				now -= Cycle(rng.Intn(50))
				if now < 0 {
					now = 0
				}
			default:
				now += Cycle(rng.Intn(4))
			}
			d := Cycles(rng.Intn(3 * width))
			if rng.Intn(16) == 0 {
				d = 0
			}
			best := 0
			for j := 1; j < width; j++ {
				if ref[j] < ref[best] {
					best = j
				}
			}
			wantStart := max(now, ref[best])
			wantEnd := wantStart + d
			ref[best] = wantEnd
			busy += d
			waited += wantStart - now
			avail := ref[0]
			for _, f := range ref[1:] {
				avail = min(avail, f)
			}

			start, end := r.Acquire(now, d)
			if start != wantStart || end != wantEnd {
				t.Fatalf("width %d grant %d: Acquire(%d, %d) = [%d,%d), want [%d,%d)",
					width, i, now, d, start, end, wantStart, wantEnd)
			}
			if r.BusyCycles() != busy || r.WaitCycles() != waited || r.AvailableAt() != avail {
				t.Fatalf("width %d grant %d: busy/wait/avail = %d/%d/%d, want %d/%d/%d",
					width, i, r.BusyCycles(), r.WaitCycles(), r.AvailableAt(), busy, waited, avail)
			}
		}
	}
}
