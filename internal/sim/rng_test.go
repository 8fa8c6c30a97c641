package sim

import "testing"

// TestRNGKnownSequence pins the generator's output. Every synthesized genome,
// sampled read and workload digest descends from these streams, so a change
// to Uint64's arithmetic shows up here first.
func TestRNGKnownSequence(t *testing.T) {
	cases := []struct {
		seed  uint64
		u64   [8]uint64
		intn  [4]int // Intn(10), Intn(1000), Intn(1<<30), Intn(7)
		float [3]float64
	}{
		{
			seed: 0,
			u64: [8]uint64{
				0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c,
				0xbba5ad4a1f842e59, 0xffef8375d9ebcaca, 0x6c160deed2f54c98, 0x8920ad648fc30a3f,
			},
			intn:  [4]int{7, 797, 608119380, 2},
			float: [3]float64{0.10667465014124933, 0.6548331676545119, 0.49605814120183556},
		},
		{
			seed: 1,
			u64: [8]uint64{
				0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514, 0x642e1c7bc266a3a7,
				0xb27a48e29a233673, 0x24c123126ffda722, 0x123004ef8df510e6, 0x61954dcc47b1e89d,
			},
			intn:  [4]int{1, 208, 410134225, 1},
			float: [3]float64{0.9327727011134207, 0.6690967822694573, 0.5999334110742912},
		},
		{
			seed: 0xBEAC07,
			u64: [8]uint64{
				0x9758aca6b428ba32, 0x510b41d452e8a750, 0xfc6dd7d226cfecf1, 0x598100ee810fcb8f,
				0xcec2aee530b4cf60, 0x53b09d6edb10c657, 0x34bf826ebba433a1, 0x7ae94691acf63e15,
			},
			intn:  [4]int{8, 657, 196938438, 2},
			float: [3]float64{0.8073974625292588, 0.7820550526637963, 0.9919264624248051},
		},
	}
	for _, c := range cases {
		r := NewRNG(c.seed)
		for i, want := range c.u64 {
			if got := r.Uint64(); got != want {
				t.Fatalf("seed %#x: Uint64 #%d = %#016x, want %#016x", c.seed, i, got, want)
			}
		}
		for i, n := range [4]int{10, 1000, 1 << 30, 7} {
			if got := r.Intn(n); got != c.intn[i] {
				t.Fatalf("seed %#x: Intn(%d) = %d, want %d", c.seed, n, got, c.intn[i])
			}
		}
		for i, want := range c.float {
			if got := r.Float64(); got != want {
				t.Fatalf("seed %#x: Float64 #%d = %v, want %v", c.seed, i, got, want)
			}
		}
	}
}
