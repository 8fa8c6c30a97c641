package hashindex

import (
	"slices"
	"sort"
	"testing"

	"beacon/internal/genome"
)

// FuzzHashIndexLookup builds an index over arbitrary DNA-mapped bytes with
// fuzzed (k, stride, maxHits) and checks Lookup's contract from both sides:
// every returned position really holds the queried k-mer (soundness), the
// MaxHits bound is respected, and when the result is not truncated a known
// indexed occurrence is always found (completeness). Run continuously with
//
//	go test -fuzz=FuzzHashIndexLookup ./internal/hashindex
func FuzzHashIndexLookup(f *testing.F) {
	f.Add([]byte("ACGTACGTACGTACGTACGT"), byte(13), byte(2), byte(16), uint64(0))
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAA"), byte(4), byte(1), byte(3), uint64(0))
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}, byte(2), byte(3), byte(1), uint64(1<<40))
	f.Fuzz(func(t *testing.T, refRaw []byte, kRaw, strideRaw, maxHitsRaw byte, probe uint64) {
		if len(refRaw) > 4096 {
			refRaw = refRaw[:4096]
		}
		k := 1 + int(kRaw)%16
		stride := 1 + int(strideRaw)%4
		maxHits := 1 + int(maxHitsRaw)%32
		if len(refRaw) < k {
			return
		}
		ref := genome.NewSequence(len(refRaw))
		for i, b := range refRaw {
			ref.Set(i, genome.Base(b&3))
		}
		idx, err := Build(ref, Config{K: k, Stride: stride, MaxHits: maxHits})
		if err != nil {
			t.Fatalf("Build(len=%d, k=%d, stride=%d): %v", ref.Len(), k, stride, err)
		}
		check := func(m genome.Kmer) []int32 {
			hits := idx.Lookup(m, maxHits)
			if len(hits) > maxHits {
				t.Fatalf("Lookup(%s) returned %d hits, max %d", m.String(k), len(hits), maxHits)
			}
			for _, pos := range hits {
				if pos < 0 || int(pos)+k > ref.Len() {
					t.Fatalf("Lookup(%s) position %d out of range", m.String(k), pos)
				}
				if int(pos)%stride != 0 {
					t.Fatalf("Lookup(%s) position %d not on the sampling stride %d", m.String(k), pos, stride)
				}
				if got := genome.KmerAt(ref, int(pos), k); got != m {
					t.Fatalf("Lookup(%s) position %d holds %s", m.String(k), pos, got.String(k))
				}
			}
			return hits
		}
		// Arbitrary (usually absent) probe: soundness under collisions.
		mask := ^genome.Kmer(0)
		if 2*k < 64 {
			mask = genome.Kmer(1)<<(2*k) - 1
		}
		check(genome.Kmer(probe) & mask)
		// Indexed probe: an occurrence known to be in the index must come
		// back whenever the hit list was not truncated at maxHits.
		p := int(probe%uint64(len(idx.cands))) * stride
		m := genome.KmerAt(ref, p, k)
		hits := check(m)
		if len(hits) < maxHits {
			found := false
			for _, pos := range hits {
				if int(pos) == p {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("Lookup(%s) missed indexed position %d (got %v)", m.String(k), p, hits)
			}
		}
	})
}

// referenceBuild is Build's directory construction as first written: every
// stride-th k-mer extracted with KmerAt, then sort.SliceStable by bucket.
// It returns the directory and candidate arrays the counting sort must
// reproduce.
func referenceBuild(ref *genome.Sequence, cfg Config, buckets int) (dirOff, dirCnt []uint32, cands []candidate) {
	type entry struct {
		bucket int
		cand   candidate
	}
	var entries []entry
	for i := 0; i+cfg.K <= ref.Len(); i += cfg.Stride {
		m := genome.KmerAt(ref, i, cfg.K)
		entries = append(entries, entry{bucket: hashKmer(m, buckets), cand: candidate{kmer: m, pos: int32(i)}})
	}
	sort.SliceStable(entries, func(a, b int) bool { return entries[a].bucket < entries[b].bucket })
	dirOff = make([]uint32, buckets)
	dirCnt = make([]uint32, buckets)
	cands = make([]candidate, len(entries))
	for i, e := range entries {
		cands[i] = e.cand
		if dirCnt[e.bucket] == 0 {
			dirOff[e.bucket] = uint32(i)
		}
		dirCnt[e.bucket]++
	}
	return dirOff, dirCnt, cands
}

// FuzzBuildMatchesReference checks the counting-sort Build against the
// stable-sort reference over arbitrary DNA-mapped bytes, every k in 1..32
// (32 is the packed k-mer's mask edge), strides 1..4 and both the default
// directory size and small explicit ones that force collisions: candidates
// and per-bucket counts must be identical, and so must the offset of every
// non-empty bucket. Run continuously with
//
//	go test -fuzz=FuzzBuildMatchesReference ./internal/hashindex
func FuzzBuildMatchesReference(f *testing.F) {
	f.Add([]byte("ACGTACGTACGTACGTACGT"), byte(12), byte(1), byte(0))
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), byte(31), byte(0), byte(0))
	f.Add([]byte("GATTACAGATTACAGATTACAGATTACAGATTACA"), byte(3), byte(2), byte(5))
	f.Add([]byte{0, 1, 2, 3, 3, 2, 1, 0, 0, 0, 1, 1}, byte(0), byte(3), byte(1))
	f.Fuzz(func(t *testing.T, refRaw []byte, kRaw, strideRaw, bucketsRaw byte) {
		if len(refRaw) > 4096 {
			refRaw = refRaw[:4096]
		}
		cfg := Config{K: 1 + int(kRaw)%32, Stride: 1 + int(strideRaw)%4, MaxHits: 8, Buckets: int(bucketsRaw) % 8}
		if len(refRaw) < cfg.K {
			return
		}
		ref := genome.NewSequence(len(refRaw))
		for i, b := range refRaw {
			ref.Set(i, genome.Base(b&3))
		}
		matchReference(t, ref, cfg)
	})
}

func TestBuildMatchesReferenceOnGenome(t *testing.T) {
	ref, err := genome.SpeciesGenome(genome.PinusTaeda, 500)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		DefaultConfig(),
		{K: 32, Stride: 1, MaxHits: 4},
		{K: 31, Stride: 2, MaxHits: 4},
		{K: 7, Stride: 3, MaxHits: 4, Buckets: 1000},
	} {
		matchReference(t, ref, cfg)
	}
}

// matchReference builds the index and compares it with referenceBuild:
// identical candidates and per-bucket counts, and the same offset for
// every non-empty bucket.
func matchReference(t *testing.T, ref *genome.Sequence, cfg Config) {
	t.Helper()
	idx, err := Build(ref, cfg)
	if err != nil {
		t.Fatalf("Build(len=%d, %+v): %v", ref.Len(), cfg, err)
	}
	dirOff, dirCnt, cands := referenceBuild(ref, cfg, idx.buckets)
	if !slices.Equal(idx.cands, cands) {
		t.Fatalf("%+v: candidates differ from the stable-sort reference", cfg)
	}
	if !slices.Equal(idx.dirCnt, dirCnt) {
		t.Fatalf("%+v: bucket counts differ from the stable-sort reference", cfg)
	}
	for b, c := range dirCnt {
		if c > 0 && idx.dirOff[b] != dirOff[b] {
			t.Fatalf("%+v: bucket %d offset %d, reference %d", cfg, b, idx.dirOff[b], dirOff[b])
		}
	}
}

// BenchmarkHashBuild builds the hash index over the Pt stand-in at the
// scale the build benchmarks use for hash seeding.
func BenchmarkHashBuild(b *testing.B) {
	ref, err := genome.SpeciesGenome(genome.PinusTaeda, 2_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(ref, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
