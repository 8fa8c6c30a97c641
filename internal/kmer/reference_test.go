package kmer

import (
	"maps"
	"slices"
	"testing"

	"beacon/internal/genome"
	"beacon/internal/sim"
)

// TestAppendCanonicalMatchesKmerAt checks the rolling pass and CountExact's
// word reads against KmerAt(...).Canonical(k) at every position, for every
// k in 1..32 (32 is the packed k-mer's mask edge) and sequences shorter
// than, equal to and longer than k.
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
			for _, c := range []struct {
				name string
				got  []genome.Kmer
			}{
				{"rolling", appendCanonical([]genome.Kmer{42}, seq, k)[1:]},
				{"word", wordKmers([]genome.Kmer{42}, seq, k)[1:]},
			} {
				name, got := c.name, c.got
				if want := max(n-k+1, 0); len(got) != want {
					t.Fatalf("%s k=%d n=%d: %d k-mers, want %d", name, k, n, len(got), want)
				}
				for j, m := range got {
					if want := genome.KmerAt(seq, j, k).Canonical(k); m != want {
						t.Fatalf("%s k=%d n=%d pos %d: %s, KmerAt %s", name, k, n, j, m.String(k), want.String(k))
					}
				}
			}
		}
	}
}

// countExactReference counts every canonical k-mer with KmerAt and
// Canonical into a map and keeps those seen at least twice.
func countExactReference(reads []genome.Read, k int) Counts {
	all := map[genome.Kmer]uint32{}
	for _, r := range reads {
		for j := 0; j+k <= r.Seq.Len(); j++ {
			all[genome.KmerAt(r.Seq, j, k).Canonical(k)]++
		}
	}
	out := Counts{}
	for m, c := range all {
		if c >= 2 {
			out[m] = c
		}
	}
	return out
}

// TestCountExactMatchesMapReference compares CountExact with the map
// reference for every k in 1..32, on reads of lengths 0, k-1, k, 31, 32,
// 33 and 100 drawn from a short reference, with some reads repeated and
// some reverse-complemented so that long k-mers recur too.
func TestCountExactMatchesMapReference(t *testing.T) {
	rng := sim.NewRNG(23)
	ref := genome.NewSequence(160)
	for i := 0; i < ref.Len(); i++ {
		ref.Set(i, genome.Base(rng.Intn(4)))
	}
	for k := 1; k <= 32; k++ {
		var reads []genome.Read
		for _, n := range []int{0, k - 1, k, 31, 32, 33, 100} {
			for r := 0; r < 6 && n >= 0; r++ {
				from := rng.Intn(ref.Len() - n + 1)
				seq := ref.Slice(from, from+n)
				if r%3 == 1 {
					seq = seq.ReverseComplement()
				}
				reads = append(reads, genome.Read{Seq: seq})
				if r%2 == 0 {
					reads = append(reads, genome.Read{Seq: seq})
				}
			}
		}
		want := countExactReference(reads, k)
		if len(want) == 0 {
			t.Fatalf("k=%d: the fixture repeats no k-mer", k)
		}
		if got := CountExact(reads, k); !maps.Equal(got, want) {
			t.Fatalf("k=%d: CountExact has %d repeated k-mers, the map reference %d (or counts differ)", k, len(got), len(want))
		}
	}
	if got := CountExact(nil, 28); len(got) != 0 {
		t.Fatalf("no reads: %d k-mers", len(got))
	}
}

// TestRadixSortMatchesSlicesSort sorts random keys of several widths, and
// keys whose high bytes all agree (passes the sort skips), against
// slices.Sort.
func TestRadixSortMatchesSlicesSort(t *testing.T) {
	rng := sim.NewRNG(29)
	for _, width := range []int{2, 8, 10, 56, 64} {
		for _, n := range []int{0, 1, 2, 3, 255, 256, 1000} {
			for _, spread := range []int{width, min(width, 12)} {
				keys := make([]genome.Kmer, n)
				for i := range keys {
					keys[i] = genome.Kmer(rng.Uint64() >> (64 - spread))
					if spread < width && i%2 == 1 {
						keys[i] |= 1 << (width - 1) // shared top bit, varying low bits
					}
				}
				want := slices.Clone(keys)
				slices.Sort(want)
				if got := radixSort(keys, make([]genome.Kmer, n), width); !slices.Equal(got, want) {
					t.Fatalf("width %d, %d keys, spread %d: radix sort disagrees with slices.Sort", width, n, spread)
				}
			}
		}
	}
}

// mergedFilterReference is pass 1 as first written: parts local filters
// alive at once, filled round-robin, then merged into the first in order.
func mergedFilterReference(stream *kmerStream, counters uint64, hashes, parts int) *CountingBloom {
	locals := make([]*CountingBloom, parts)
	for i := range locals {
		locals[i], _ = NewCountingBloom(counters, hashes)
	}
	for ri := 0; ri < len(stream.off)-1; ri++ {
		for _, m := range stream.read(ri) {
			locals[ri%parts].Add(uint64(m))
		}
	}
	for _, f := range locals[1:] {
		if err := locals[0].Merge(f); err != nil {
			panic(err)
		}
	}
	return locals[0]
}

// TestMergedFilterMatchesSeparateLocals checks that building the local
// filters one at a time in one reused buffer gives the same global filter
// bytes as parts separate filters, with filters small enough that counters
// saturate, and with more parts than reads.
func TestMergedFilterMatchesSeparateLocals(t *testing.T) {
	reads := countingFixture(t, 40)
	const k = 12
	var instances uint64
	for _, r := range reads {
		instances += uint64(r.Seq.Len() - k + 1)
	}
	stream := newKmerStream(reads, k, instances)
	for _, counters := range []uint64{instances / 16, instances * 8} {
		for _, parts := range []int{1, 2, 3, 8, len(reads), len(reads) + 5} {
			got, err := mergedFilter(stream, counters, 4, parts)
			if err != nil {
				t.Fatal(err)
			}
			want := mergedFilterReference(stream, counters, 4, parts)
			if !slices.Equal(got.counters, want.counters) {
				t.Fatalf("counters %d, parts %d: global filter bytes differ", counters, parts)
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

// BenchmarkCountExact runs the reference counter, which every k-mer
// workload build calls to verify its flow's counts, on the reads
// BenchmarkCountMultiPass counts.
func BenchmarkCountExact(b *testing.B) {
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
		if len(CountExact(reads, DefaultConfig().K)) == 0 {
			b.Fatal("no repeated k-mers")
		}
	}
}
