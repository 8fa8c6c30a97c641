package fmindex

import (
	"fmt"
	"math/bits"

	"beacon/internal/genome"
)

// blockSpan is the number of BWT positions covered by one Occ block.
// A block is exactly 32 bytes — the fine-grained access size the paper
// attributes to FM-index seeding (§IV-B "32 Bytes for DNA seeding"):
// a 16-byte header with the running counts of A/C/G/T at the block start,
// plus 64 BWT symbols packed 2 bits each (16 bytes).
const (
	blockSpan = 64
	// BlockBytes is the size of one Occ block in the simulated memory.
	BlockBytes = 32
)

// occBlock mirrors the 32-byte on-DIMM layout.
type occBlock struct {
	counts [4]uint32 // occurrences of A,C,G,T in bwt[0:blockStart)
	data   [2]uint64 // 64 symbols, 2 bits each (the $ slot stores A)
}

// Index is an FM-index over a DNA reference plus terminal sentinel.
type Index struct {
	n         int // length including the sentinel
	c         [5]int32
	blocks    []occBlock
	dollarPos int32 // BWT position holding the sentinel
	// Text-position SA sampling (as in BWA): rows whose suffix position is a
	// multiple of saSample are marked, and their positions stored. An LF walk
	// from any row reaches a marked row (or the sentinel) within saSample-1
	// steps, bounding locate latency.
	saSample int
	saMarks  []uint64 // bit row%64 of word row/64 marks row
	saRank   []int32  // marked rows before each saMarks word
	saPos    []int32  // marked rows' suffix positions, in row order
}

// SASampleDefault is the default suffix-array sampling stride.
const SASampleDefault = 32

// Build constructs the FM-index for a reference sequence.
func Build(ref *genome.Sequence) (*Index, error) {
	return BuildSampled(ref, SASampleDefault)
}

// BuildSampled constructs the index with an explicit SA sampling stride.
func BuildSampled(ref *genome.Sequence, saSample int) (*Index, error) {
	if ref.Len() == 0 {
		return nil, fmt.Errorf("fmindex: empty reference")
	}
	if saSample <= 0 {
		return nil, fmt.Errorf("fmindex: sa sample stride must be positive, got %d", saSample)
	}
	nRef := ref.Len()
	text := dnaText(ref)
	sa := suffixArray(ref, text, lmsLoadsPerBase*len(text))
	n := nRef + 1

	idx := &Index{n: n, saSample: saSample}

	// C array: number of characters strictly smaller than c.
	var counts [5]int32
	counts[0] = 1
	for i := 0; i < nRef; i++ {
		counts[text[i]]++
	}
	var sum int32
	for c := 0; c < 5; c++ {
		idx.c[c] = sum
		sum += counts[c]
	}

	// BWT and Occ blocks.
	nBlocks := (n + blockSpan - 1) / blockSpan
	idx.blocks = make([]occBlock, nBlocks)
	var running [4]uint32
	idx.dollarPos = -1
	for i := 0; i < n; i++ {
		if i%blockSpan == 0 {
			idx.blocks[i/blockSpan].counts = running
		}
		var bwtSym int32
		if sa[i] == 0 {
			bwtSym = 0 // sentinel
			idx.dollarPos = int32(i)
		} else {
			bwtSym = text[sa[i]-1]
		}
		b := &idx.blocks[i/blockSpan]
		slot := uint(i % blockSpan)
		var packed uint64
		if bwtSym > 0 {
			packed = uint64(bwtSym - 1)
			running[bwtSym-1]++
		}
		// The $ slot packs as A (0); occ() corrects using dollarPos.
		b.data[slot/32] |= packed << ((slot % 32) * 2)
	}
	if idx.dollarPos < 0 {
		return nil, fmt.Errorf("fmindex: internal error: sentinel not found in BWT")
	}

	// Sampled SA: mark rows whose suffix position is a sample point.
	idx.saMarks = make([]uint64, (n+63)/64)
	idx.saRank = make([]int32, len(idx.saMarks))
	idx.saPos = make([]int32, 0, nRef/saSample+1)
	stride := uint32(saSample)
	for row, pos := range sa {
		if row%64 == 0 {
			idx.saRank[row/64] = int32(len(idx.saPos))
		}
		if uint32(pos)%stride == 0 {
			idx.saMarks[row/64] |= 1 << (row % 64)
			idx.saPos = append(idx.saPos, pos)
		}
	}
	return idx, nil
}

// dnaText returns ref over the alphabet $=0, A=1..T=4 with the sentinel
// appended.
func dnaText(ref *genome.Sequence) []int32 {
	text := make([]int32, ref.Len()+1)
	for i := range text[:ref.Len()] {
		text[i] = int32(ref.At(i)) + 1
	}
	return text
}

// Len returns the indexed text length including the sentinel.
func (x *Index) Len() int { return x.n }

// Blocks returns the number of Occ blocks; the Occ table occupies
// Blocks()*BlockBytes bytes in the simulated memory pool.
func (x *Index) Blocks() int { return len(x.blocks) }

// OccBytes returns the Occ table footprint in bytes.
func (x *Index) OccBytes() uint64 { return uint64(len(x.blocks)) * BlockBytes }

// SABytes returns the sampled suffix array footprint in bytes (4 B entries).
func (x *Index) SABytes() uint64 { return uint64(len(x.saPos))*4 + 8 }

// BlockIndex returns the Occ block holding BWT position i — the address the
// accelerator fetches to compute occ at i.
func BlockIndex(i int32) int32 { return i / blockSpan }

// occ returns the number of occurrences of base b in bwt[0:i).
func (x *Index) occ(b genome.Base, i int32) int32 {
	if i <= 0 {
		return 0
	}
	if int(i) > x.n {
		i = int32(x.n)
	}
	blk := &x.blocks[(i-1)/blockSpan]
	base := (i - 1) / blockSpan * blockSpan
	count := int32(blk.counts[b])
	// Count 2-bit symbols equal to b in positions [base, i).
	within := uint(i - base) // 1..64
	count += popcount2(blk.data, within, uint64(b))
	// The sentinel slot was packed as A; subtract if it was counted.
	if b == genome.A && x.dollarPos >= base && x.dollarPos < i {
		count--
	}
	return count
}

// popcount2 counts 2-bit fields equal to v among the first k fields of data.
func popcount2(data [2]uint64, k uint, v uint64) int32 {
	var total int32
	for w := 0; w < 2 && k > 0; w++ {
		take := k
		if take > 32 {
			take = 32
		}
		word := data[w]
		// Build a word where each 2-bit field is 01 iff the field equals v.
		x := word ^ (v * 0x5555555555555555) // fields equal to v become 00
		// Field == 00 detection: for each 2-bit pair ab, pair is zero iff
		// !(a|b). ones = ~(x | x>>1) & 0101... marks zero fields.
		ones := ^(x | x>>1) & 0x5555555555555555
		if take < 32 {
			ones &= (1 << (take * 2)) - 1
		}
		total += int32(bits.OnesCount64(ones))
		k -= take
	}
	return total
}

// LF performs one last-to-first step for base b at BWT position i.
func (x *Index) LF(b genome.Base, i int32) int32 {
	return x.c[int32(b)+1] + x.occ(b, i)
}

// Interval is a half-open suffix-array interval [Lo, Hi).
type Interval struct {
	Lo, Hi int32
}

// Empty reports whether the interval contains no suffixes.
func (iv Interval) Empty() bool { return iv.Lo >= iv.Hi }

// Width returns the number of suffixes in the interval.
func (iv Interval) Width() int32 {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Full returns the interval covering every suffix.
func (x *Index) Full() Interval { return Interval{0, int32(x.n)} }

// Extend narrows iv by prepending base b (one backward-search step).
func (x *Index) Extend(iv Interval, b genome.Base) Interval {
	return Interval{
		Lo: x.c[int32(b)+1] + x.occ(b, iv.Lo),
		Hi: x.c[int32(b)+1] + x.occ(b, iv.Hi),
	}
}

// Count returns the number of occurrences of pattern in the reference.
func (x *Index) Count(pattern *genome.Sequence) int {
	iv := x.Full()
	for i := pattern.Len() - 1; i >= 0; i-- {
		iv = x.Extend(iv, pattern.At(i))
		if iv.Empty() {
			return 0
		}
	}
	return int(iv.Width())
}

// Search returns the suffix-array interval for pattern (possibly empty).
func (x *Index) Search(pattern *genome.Sequence) Interval {
	iv := x.Full()
	for i := pattern.Len() - 1; i >= 0; i-- {
		iv = x.Extend(iv, pattern.At(i))
		if iv.Empty() {
			return iv
		}
	}
	return iv
}

// bwtAt returns the BWT symbol at position i (0 = sentinel, else base+1).
func (x *Index) bwtAt(i int32) int32 {
	if i == x.dollarPos {
		return 0
	}
	blk := &x.blocks[i/blockSpan]
	slot := uint(i % blockSpan)
	return int32((blk.data[slot/32]>>((slot%32)*2))&3) + 1
}

// Locate resolves up to maxHits text positions for the interval by walking LF
// to the nearest SA sample. It returns positions in the reference
// (sentinel-relative positions are already reference positions since the
// sentinel is at the end).
func (x *Index) Locate(iv Interval, maxHits int) []int32 {
	var out []int32
	for r := iv.Lo; r < iv.Hi && len(out) < maxHits; r++ {
		pos, _ := x.locateOne(r)
		out = append(out, pos)
	}
	return out
}

// locateOne resolves one suffix-array row to a text position, returning the
// position and the number of LF steps walked (each step is one Occ access in
// the accelerator). The walk is bounded by the sampling stride.
func (x *Index) locateOne(r int32) (int32, int) {
	steps := 0
	i := r
	for x.saMarks[i/64]&(1<<(i%64)) == 0 {
		sym := x.bwtAt(i)
		if sym == 0 {
			// bwt[i] == $ means this row's suffix starts at text position 0,
			// so the original row's position is exactly the steps walked.
			return int32(steps), steps
		}
		i = x.LF(genome.Base(sym-1), i)
		steps++
	}
	w := x.saMarks[i/64]
	rank := x.saRank[i/64] + int32(bits.OnesCount64(w&(1<<(i%64)-1)))
	return x.saPos[rank] + int32(steps), steps
}
