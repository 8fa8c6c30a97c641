// Package hashindex implements hash-index based DNA seeding, the
// SMALT-style workload that BEACON's Hash-index engine accelerates.
//
// The index maps every k-mer of the reference to the list of positions where
// it occurs. The two-level layout matches the paper's data-placement
// discussion (§IV-C, principle 2): a bucket directory entry is a small
// fixed-size record (random, fine-grained access), while a bucket's candidate
// locations are stored contiguously so that "multiple matching locations for
// a seed are stored continuously within the same DRAM row to fully leverage
// row-level locality".
package hashindex

import (
	"fmt"

	"beacon/internal/genome"
	"beacon/internal/trace"
)

// DirEntryBytes is the size of one bucket-directory entry in the simulated
// memory: offset (8 B) + count (4 B) + k-mer tag (4 B).
const DirEntryBytes = 16

// CandEntryBytes is the size of one candidate location (4 B position).
const CandEntryBytes = 4

// Config parameterizes index construction and seeding.
type Config struct {
	// K is the seed/k-mer length (<= 32).
	K int
	// Stride is the sampling stride over the reference when building the
	// index (SMALT indexes every Stride-th k-mer).
	Stride int
	// MaxHits bounds candidates returned per seed lookup.
	MaxHits int
	// Buckets is the directory size; 0 picks a power of two near the number
	// of indexed k-mers.
	Buckets int
}

// DefaultConfig returns SMALT-like parameters.
func DefaultConfig() Config {
	return Config{K: 13, Stride: 2, MaxHits: 16}
}

// Index is the two-level hash index.
type Index struct {
	cfg     Config
	buckets int
	// dir maps bucket -> slice indices into cands.
	dirOff []uint32
	dirCnt []uint32
	cands  []candidate
}

type candidate struct {
	kmer genome.Kmer
	pos  int32
}

// hashKmer mixes a packed k-mer into a bucket index (splitmix-style).
func hashKmer(m genome.Kmer, buckets int) int {
	z := uint64(m)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int(z % uint64(buckets))
}

// Build constructs the index over the reference.
func Build(ref *genome.Sequence, cfg Config) (*Index, error) {
	if cfg.K <= 0 || cfg.K > 32 {
		return nil, fmt.Errorf("hashindex: k=%d out of 1..32", cfg.K)
	}
	if cfg.Stride <= 0 {
		return nil, fmt.Errorf("hashindex: stride must be positive, got %d", cfg.Stride)
	}
	if cfg.MaxHits <= 0 {
		return nil, fmt.Errorf("hashindex: max hits must be positive, got %d", cfg.MaxHits)
	}
	if ref.Len() < cfg.K {
		return nil, fmt.Errorf("hashindex: reference (%d bp) shorter than k (%d)", ref.Len(), cfg.K)
	}
	n := (ref.Len()-cfg.K)/cfg.Stride + 1
	buckets := cfg.Buckets
	if buckets == 0 {
		buckets = 1
		for buckets < n {
			buckets *= 2
		}
	}
	idx := &Index{
		cfg: cfg, buckets: buckets,
		dirOff: make([]uint32, buckets),
		dirCnt: make([]uint32, buckets),
		cands:  make([]candidate, n),
	}

	// Counting sort by bucket. Pass 1 rolls the k-mer one base at a time,
	// keeps every stride-th one with its bucket, and counts per bucket; a
	// prefix sum over the non-empty buckets gives their offsets; pass 2
	// scatters the candidates. Positions are scattered in increasing
	// order, so each bucket lists its candidates by position, exactly as a
	// stable sort by bucket would.
	mask := ^genome.Kmer(0)
	if cfg.K < 32 {
		mask = genome.Kmer(1)<<(2*cfg.K) - 1
	}
	kmers := make([]genome.Kmer, 0, n)
	bkts := make([]uint32, 0, n)
	var m genome.Kmer
	for i := 0; i < ref.Len(); i++ {
		m = (m<<2 | genome.Kmer(ref.At(i))) & mask
		if start := i - cfg.K + 1; start >= 0 && start%cfg.Stride == 0 {
			b := hashKmer(m, buckets)
			kmers = append(kmers, m)
			bkts = append(bkts, uint32(b))
			idx.dirCnt[b]++
		}
	}
	var off uint32
	for b, c := range idx.dirCnt {
		if c > 0 {
			idx.dirOff[b] = off
			off += c
		}
	}
	// Scatter with dirOff as the fill cursor, then rewind it.
	for j, b := range bkts {
		idx.cands[idx.dirOff[b]] = candidate{kmer: kmers[j], pos: int32(j * cfg.Stride)}
		idx.dirOff[b]++
	}
	for b, c := range idx.dirCnt {
		if c > 0 {
			idx.dirOff[b] -= c
		}
	}
	return idx, nil
}

// Config returns the build configuration.
func (x *Index) Config() Config { return x.cfg }

// Buckets returns the directory size.
func (x *Index) Buckets() int { return x.buckets }

// DirBytes returns the directory footprint in simulated memory.
func (x *Index) DirBytes() uint64 { return uint64(x.buckets) * DirEntryBytes }

// CandBytes returns the candidate-array footprint.
func (x *Index) CandBytes() uint64 { return uint64(len(x.cands)) * CandEntryBytes }

// Lookup returns up to maxHits reference positions whose indexed k-mer
// equals m. The bucket may contain colliding k-mers; they are filtered by
// tag comparison exactly as the PE would.
func (x *Index) Lookup(m genome.Kmer, maxHits int) []int32 {
	b := hashKmer(m, x.buckets)
	off, cnt := x.dirOff[b], x.dirCnt[b]
	var out []int32
	for i := uint32(0); i < cnt && len(out) < maxHits; i++ {
		if c := x.cands[off+i]; c.kmer == m {
			out = append(out, c.pos)
		}
	}
	return out
}

// SeedHit is one candidate position for a read seed.
type SeedHit struct {
	ReadOffset int
	RefPos     int32
	// ReverseStrand marks hits found via the seed's reverse complement.
	ReverseStrand bool
}

// Result is the per-read functional output.
type Result struct {
	Hits []SeedHit
}

// SeedReads runs hash-index seeding over the reads and emits the workload
// trace. Per seed: one directory read (16 B, random), then — if the bucket is
// non-empty — one spatially local read covering the candidate records
// scanned. Hash seeding performs far fewer fine-grained accesses than
// FM-index seeding, which is why the paper finds data packing barely helps
// it (§VI-C).
func SeedReads(idx *Index, reads []genome.Read, name string) ([]Result, *trace.Workload, error) {
	results := make([]Result, len(reads))
	b := trace.NewBuilder(name)
	b.SetSpaceBytes(trace.SpaceHashBucket, idx.DirBytes())
	b.SetSpaceBytes(trace.SpaceCandidates, idx.CandBytes())
	var readBytes uint64
	for i := range reads {
		readBytes += uint64((reads[i].Seq.Len() + 3) / 4)
	}
	b.SetSpaceBytes(trace.SpaceReads, readBytes)

	k := idx.cfg.K
	var readOff uint64
	for ri := range reads {
		read := reads[ri].Seq
		rb := uint32((read.Len() + 3) / 4)

		// One task per seed: seeds of a read are independent probes, so the
		// Task Scheduler runs them on different PEs concurrently (the same
		// granularity MEDAL uses for FM seeding).
		for off := 0; off+k <= read.Len(); off += k {
			b.BeginTask(trace.EngineHashIndex)
			b.Step(trace.Step{
				Op: trace.OpRead, Space: trace.SpaceReads,
				Addr: readOff + uint64(off/4), Size: uint32(k+3) / 4,
				Spatial: true, Light: true,
			})
			fwd := genome.KmerAt(read, off, k)
			rev := fwd.ReverseComplement(k)
			// SMALT-style seeding probes both strands of each seed.
			strands := []genome.Kmer{fwd, rev}
			if fwd == rev {
				strands = strands[:1]
			}
			for si, m := range strands {
				bkt := hashKmer(m, idx.buckets)
				b.Step(trace.Step{
					Op: trace.OpRead, Space: trace.SpaceHashBucket,
					Addr: uint64(bkt) * DirEntryBytes, Size: DirEntryBytes,
				})
				cnt := idx.dirCnt[bkt]
				if cnt == 0 {
					continue
				}
				scan := cnt
				if scan > uint32(idx.cfg.MaxHits)*2 {
					// The PE stops scanning once MaxHits matches are found;
					// with collisions it reads at most a bounded overscan.
					scan = uint32(idx.cfg.MaxHits) * 2
				}
				b.Step(trace.Step{
					Op: trace.OpRead, Space: trace.SpaceCandidates,
					Addr: uint64(idx.dirOff[bkt]) * CandEntryBytes, Size: scan * CandEntryBytes,
					Spatial: true, Light: true,
				})
				for _, pos := range idx.Lookup(m, idx.cfg.MaxHits) {
					results[ri].Hits = append(results[ri].Hits, SeedHit{
						ReadOffset: off, RefPos: pos, ReverseStrand: si == 1,
					})
				}
			}
			b.EndTask()
		}
		readOff += uint64(rb)
	}
	wl, err := b.Finish()
	if err != nil {
		return nil, nil, err
	}
	return results, wl, nil
}

// VerifySeeding checks each hit: the k-mer at the read offset (or its
// reverse complement, for reverse-strand hits) must equal the k-mer at the
// reported reference position.
func VerifySeeding(ref *genome.Sequence, reads []genome.Read, k int, results []Result) error {
	if len(results) != len(reads) {
		return fmt.Errorf("hashindex: %d results for %d reads", len(results), len(reads))
	}
	for ri, res := range results {
		read := reads[ri].Seq
		for _, h := range res.Hits {
			if h.ReadOffset+k > read.Len() || int(h.RefPos)+k > ref.Len() {
				return fmt.Errorf("hashindex: read %d: hit out of range", ri)
			}
			rk := genome.KmerAt(read, h.ReadOffset, k)
			if h.ReverseStrand {
				rk = rk.ReverseComplement(k)
			}
			if rk != genome.KmerAt(ref, int(h.RefPos), k) {
				return fmt.Errorf("hashindex: read %d: hit at ref %d does not match", ri, h.RefPos)
			}
		}
	}
	return nil
}
