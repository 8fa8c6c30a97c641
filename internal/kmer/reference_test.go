package kmer

import (
	"testing"

	"beacon/internal/genome"
	"beacon/internal/sim"
)

// TestAppendCanonicalMatchesKmerAt checks the rolling pass against
// KmerAt(...).Canonical(k) at every position, for every k in 1..32 (32 is
// the packed k-mer's mask edge) and sequences shorter than, equal to and
// longer than k.
func TestAppendCanonicalMatchesKmerAt(t *testing.T) {
	rng := sim.NewRNG(9)
	for k := 1; k <= 32; k++ {
		for _, n := range []int{0, k - 1, k, k + 1, 100, 257} {
			if n < 0 {
				continue
			}
			seq := genome.NewSequence(n)
			for i := 0; i < n; i++ {
				seq.Set(i, genome.Base(rng.Intn(4)))
			}
			got := appendCanonical([]genome.Kmer{42}, seq, k)[1:]
			if want := max(n-k+1, 0); len(got) != want {
				t.Fatalf("k=%d n=%d: %d k-mers, want %d", k, n, len(got), want)
			}
			for j, m := range got {
				if want := genome.KmerAt(seq, j, k).Canonical(k); m != want {
					t.Fatalf("k=%d n=%d pos %d: rolling %s, KmerAt %s", k, n, j, m.String(k), want.String(k))
				}
			}
		}
	}
}

// mergeReference is Merge as first written: counter by counter through
// get and set, saturating at 15.
func mergeReference(b, o *CountingBloom) {
	for slot := uint64(0); slot < b.m; slot++ {
		sum := int(b.get(slot)) + int(o.get(slot))
		if sum > 15 {
			sum = 15
		}
		b.set(slot, byte(sum))
	}
}

// TestMergeMatchesNibbleLoop merges random filters, biased toward high
// counters so that saturation at 15 is common, at sizes with and without a
// tail shorter than one word, and compares every byte with the nibble
// loop.
func TestMergeMatchesNibbleLoop(t *testing.T) {
	rng := sim.NewRNG(21)
	for _, m := range []uint64{1, 2, 8, 16, 32, 64, 1 << 12} {
		for trial := 0; trial < 20; trial++ {
			a, _ := NewCountingBloom(m, 2)
			b, _ := NewCountingBloom(m, 2)
			ref, _ := NewCountingBloom(m, 2)
			for slot := uint64(0); slot < m; slot++ {
				x, y := byte(rng.Intn(16)), byte(rng.Intn(16))
				if rng.Intn(2) == 0 {
					x = 8 + byte(rng.Intn(8))
				}
				a.set(slot, x)
				ref.set(slot, x)
				b.set(slot, y)
			}
			if err := a.Merge(b); err != nil {
				t.Fatal(err)
			}
			mergeReference(ref, b)
			for i := range ref.counters {
				if a.counters[i] != ref.counters[i] {
					t.Fatalf("m=%d byte %d: merged %#02x, nibble loop %#02x", m, i, a.counters[i], ref.counters[i])
				}
			}
		}
	}
	// Every pair of counter values, including 15+15 and 8+8.
	for x := byte(0); x < 16; x++ {
		for y := byte(0); y < 16; y++ {
			if got, want := mergeNibbles(uint64(x), uint64(y)), min(int(x)+int(y), 15); got != uint64(want) {
				t.Fatalf("%d + %d = %d, want %d", x, y, got, want)
			}
		}
	}
}

// BenchmarkCountMultiPass counts the human-like stand-in's reads at the
// scale the build benchmarks use, with NEST's eight local filters.
func BenchmarkCountMultiPass(b *testing.B) {
	ref, err := genome.SpeciesGenome(genome.HumanLike, 8_000)
	if err != nil {
		b.Fatal(err)
	}
	reads, err := genome.SampleReads(ref, genome.DefaultReadConfig(240, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CountMultiPass(reads, DefaultConfig(), 8, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}
