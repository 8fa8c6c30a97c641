package sim

import "math/bits"

// RNG is a small, fast, deterministic pseudo-random generator (splitmix64
// seeded xoshiro256**). The simulator cannot use math/rand's global state:
// reproducibility across runs and across Go versions is part of the
// repository's contract, so every stochastic choice flows through an RNG
// owned by the component making it.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 expansion of the seed into the xoshiro state.
	x := seed
	for i := range r.s {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Uint64 returns the next 64 random bits. The state is read into locals so
// that the function fits Go's inlining budget: the kernels draw one or two
// values per base.
func (r *RNG) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	result := bits.RotateLeft64(s1*5, 7) * 9
	s2 ^= s0
	s3 ^= s1
	r.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Fork derives an independent generator; useful to give each component its
// own stream without correlated sequences.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64() ^ 0xA5A5A5A5A5A5A5A5)
}
