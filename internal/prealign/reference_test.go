package prealign

import (
	"testing"

	"beacon/internal/genome"
	"beacon/internal/sim"
)

// filterReference is Filter as first written: one []bool neighborhood map
// per diagonal filled base by base with Sequence.At, and a fresh DP row per
// call. The word-level filter must return the same (mismatch, accepted)
// pair for every input.
func filterReference(read *genome.Sequence, ref *genome.Sequence, refPos int, maxEdits int) (int, bool) {
	l := read.Len()
	if l == 0 {
		return 0, true
	}
	e := maxEdits
	numDiag := 2*e + 1
	diags := make([][]bool, numDiag)
	for di := 0; di < numDiag; di++ {
		d := di - e
		v := make([]bool, l)
		for i := 0; i < l; i++ {
			rp := refPos + i + d
			if rp < 0 || rp >= ref.Len() {
				v[i] = true
				continue
			}
			v[i] = read.At(i) != ref.At(rp)
		}
		diags[di] = v
	}
	const inf = 1 << 30
	dp := make([]int, numDiag)
	next := make([]int, numDiag)
	for di := range dp {
		if diags[di][0] {
			dp[di] = 1
		}
	}
	for i := 1; i < l; i++ {
		for di := 0; di < numDiag; di++ {
			next[di] = dp[di]
			if di > 0 && next[di-1]+1 < next[di] {
				next[di] = next[di-1] + 1
			}
		}
		for di := numDiag - 2; di >= 0; di-- {
			if next[di+1] < next[di] {
				next[di] = next[di+1]
			}
		}
		low := inf
		for di := 0; di < numDiag; di++ {
			if diags[di][i] {
				next[di]++
			}
			if next[di] < low {
				low = next[di]
			}
		}
		dp, next = next, dp
		if low > maxEdits {
			return low, false
		}
	}
	mismatches := inf
	for di := 0; di < numDiag; di++ {
		if dp[di] < mismatches {
			mismatches = dp[di]
		}
	}
	return mismatches, mismatches <= maxEdits
}

func seqFromBytes(raw []byte) *genome.Sequence {
	s := genome.NewSequence(len(raw))
	for i, b := range raw {
		s.Set(i, genome.Base(b&3))
	}
	return s
}

// FuzzFilterMatchesReference checks the word-level filter against the
// []bool reference on arbitrary reads, references, candidate positions
// (including ones before the reference start and past its end) and edit
// thresholds 0..8. When the read is a prefix-sized slice of the reference
// itself (useRefSlice), candidates near the true location exercise the
// accept path, not only early rejection. Run continuously with
//
//	go test -fuzz=FuzzFilterMatchesReference ./internal/prealign
func FuzzFilterMatchesReference(f *testing.F) {
	for _, n := range []int{0, 1, 31, 32, 33, 63, 64, 65, 100, 129} {
		ref := make([]byte, 300)
		for i := range ref {
			ref[i] = byte(i*7 + i/5)
		}
		for e := byte(0); e <= 8; e++ {
			f.Add(ref[:n], ref, int64(e)*13-40, e, false)
		}
		f.Add(ref[:n], ref, int64(290), byte(5), false)
		f.Add(ref[:n], ref, int64(-n-3), byte(3), false)
		f.Add([]byte(nil), ref, int64(7), byte(2), true)
		f.Add(ref[:2], ref[:40], int64(11), byte(4), true)
	}
	f.Fuzz(func(t *testing.T, readRaw, refRaw []byte, posRaw int64, eRaw byte, useRefSlice bool) {
		if len(readRaw) > 400 {
			readRaw = readRaw[:400]
		}
		if len(refRaw) > 2000 {
			refRaw = refRaw[:2000]
		}
		e := int(eRaw % 9)
		ref := seqFromBytes(refRaw)
		span := int64(len(refRaw) + len(readRaw) + 2*e + 20)
		pos := int(((posRaw%span)+span)%span) - len(readRaw) - e - 10
		read := seqFromBytes(readRaw)
		if useRefSlice && len(refRaw) > 0 {
			// A read copied from the reference, with the fuzzed bytes
			// applied as substitutions, tested near where it came from.
			from := int(uint64(posRaw) % uint64(len(refRaw)))
			n := min(len(readRaw), len(refRaw)-from)
			read = ref.Slice(from, from+n)
			for i := 0; i < n; i += 17 {
				read.Set(i, genome.Base(readRaw[i]&3))
			}
			pos = from + int(eRaw>>4)%(2*e+1) - e
		}
		gotMM, gotOK := Filter(read, ref, pos, e)
		wantMM, wantOK := filterReference(read, ref, pos, e)
		if gotMM != wantMM || gotOK != wantOK {
			t.Fatalf("read %d bp, ref %d bp, pos %d, e %d: got (%d, %v), reference (%d, %v)",
				read.Len(), ref.Len(), pos, e, gotMM, gotOK, wantMM, wantOK)
		}
	})
}

// TestFilterMatchesReferenceRandom compares the two filters on random
// mutated reads at their true location, nearby and at random decoys, with
// one filter's scratch reused across every case the way FilterReads does.
func TestFilterMatchesReferenceRandom(t *testing.T) {
	ref, err := genome.Synthesize(genome.DefaultSyntheticConfig(5000, 17))
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(41)
	var fl filter
	accepted := 0
	for trial := 0; trial < 4000; trial++ {
		e := rng.Intn(9)
		l := 1 + rng.Intn(160)
		from := rng.Intn(ref.Len() - l)
		read := mutate(rng, ref.Slice(from, from+l), e)
		fl.setRead(read)
		for _, pos := range []int{from, from + rng.Intn(2*e+1) - e, rng.Intn(ref.Len()+2*l) - l} {
			gotMM, gotOK := fl.run(ref, pos, e)
			wantMM, wantOK := filterReference(read, ref, pos, e)
			if gotMM != wantMM || gotOK != wantOK {
				t.Fatalf("trial %d: read %d bp, pos %d, e %d: got (%d, %v), reference (%d, %v)",
					trial, read.Len(), pos, e, gotMM, gotOK, wantMM, wantOK)
			}
			if gotOK {
				accepted++
			}
		}
	}
	if accepted < 1000 {
		t.Fatalf("only %d accepted cases: the accept path is barely exercised", accepted)
	}
}

// BenchmarkFilterReads filters the pre-alignment workload's candidate
// stream over the Pt stand-in at the scale the build benchmarks use.
func BenchmarkFilterReads(b *testing.B) {
	ref, err := genome.SpeciesGenome(genome.PinusTaeda, 8_000)
	if err != nil {
		b.Fatal(err)
	}
	reads, err := genome.SampleReads(ref, genome.DefaultReadConfig(360, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := FilterReads(ref, reads, DefaultConfig(), 1, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}
