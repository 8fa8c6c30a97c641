// Package prealign implements a Shouji-style DNA pre-alignment filter: a
// cheap bit-parallel test that rejects candidate (read, reference-location)
// pairs whose edit distance provably exceeds a threshold, so the expensive
// full aligner only runs on plausible pairs.
//
// Like Shouji (Alser et al., Bioinformatics 2019), the filter builds
// neighborhood bit-vectors for the 2E+1 diagonals of the banded alignment
// matrix. The estimate is then assembled as the cheapest left-to-right walk
// over those diagonals, paying one edit per mismatch bit and one per unit of
// upward diagonal switch; downward switches are free because the read
// deletions that cause them already pay through their column bits. (Shouji's
// greedy fixed-window assembly is not a true lower bound: an indel
// mid-window shifts the alignment between diagonals and every single
// diagonal can over-count, rejecting an alignable pair. The walk charges at
// most the substitutions, deletions and reference insertions any banded
// alignment must pay, so it never exceeds the true edit
// distance.) The filter is therefore lenient by construction — it never
// rejects a pair whose banded edit distance is within the threshold — a
// property the tests verify against a reference dynamic-programming aligner,
// under random substitution and indel scripts.
package prealign

import (
	"fmt"

	"beacon/internal/genome"
	"beacon/internal/trace"
)

// Config parameterizes the filter.
type Config struct {
	// MaxEdits is the edit-distance threshold E.
	MaxEdits int
	// Candidates is the number of candidate locations tested per read in
	// the generated workload (one true location plus decoys).
	Candidates int
}

// DefaultConfig uses the common 5%-of-read-length error budget for 100 bp
// reads and a seeding-like candidate load.
func DefaultConfig() Config {
	return Config{MaxEdits: 5, Candidates: 8}
}

// Filter decides whether the read may align to ref[refPos:] within
// maxEdits edits. It returns the estimated (lower-bound) mismatch count
// and the accept decision. FilterReads runs the same test with its scratch
// reused across candidates.
func Filter(read *genome.Sequence, ref *genome.Sequence, refPos int, maxEdits int) (int, bool) {
	var f filter
	f.setRead(read)
	return f.run(ref, refPos, maxEdits)
}

// filter is the scratch of one pre-alignment test, reused across the
// candidates of a read and across reads.
type filter struct {
	n    int      // read length
	read []uint64 // the read, 32 bases a word (genome.Sequence.Word)
	// masks holds the neighborhood map: bit i%32 of masks[(i/32)*numDiag+di]
	// is set when read column i mismatches on diagonal di.
	masks    []uint32
	dp, next []int
}

// setRead packs the read into words once for all its candidates.
func (f *filter) setRead(read *genome.Sequence) {
	f.n = read.Len()
	f.read = f.read[:0]
	for i := 0; i < f.n; i += 32 {
		f.read = append(f.read, read.Word(i))
	}
}

// run tests the packed read against ref[refPos:] (see Filter).
func (f *filter) run(ref *genome.Sequence, refPos int, maxEdits int) (int, bool) {
	l := f.n
	if l == 0 {
		return 0, true
	}
	e := maxEdits
	numDiag := 2*e + 1
	words := len(f.read)
	f.masks = resize(f.masks, words*numDiag)
	f.dp = resize(f.dp, numDiag)
	f.next = resize(f.next, numDiag)
	// Build the neighborhood map: diag d in [-e, +e] compares read[i] with
	// ref[refPos+i+d], 32 columns per XOR. Out-of-range reference positions
	// count as mismatches.
	for di := 0; di < numDiag; di++ {
		start := refPos + di - e // reference position of read column 0
		lo, hi := max(0, -start), min(l, ref.Len()-start)
		for w := 0; w < words; w++ {
			x := f.read[w] ^ ref.Word(start+32*w)
			f.masks[w*numDiag+di] = mismatchBits(x) | ^columnRange(lo, hi, 32*w)
		}
	}
	// Min-cost diagonal walk: dp[di] is the cheapest way to consume read
	// columns 0..i ending on diagonal di, paying 1 per mismatch bit and 1
	// per unit of upward diagonal switch between consecutive columns
	// (downward switches are free). Any banded alignment within E edits
	// induces such a walk of cost <= E: matches are free on their own
	// diagonal, substitutions and read deletions each pay <= 1 through their
	// column bit (a deletion's downward switch is free), and reference
	// insertions pay the upward switch. The result is therefore a true lower
	// bound of the banded edit distance.
	const inf = 1 << 30
	dp, next := f.dp, f.next
	for di := range dp {
		dp[di] = int(f.masks[di] & 1)
	}
	for i := 1; i < l; i++ {
		// Asymmetric distance transform:
		// reach[di] = min(min_{dj>=di} dp[dj], min_{dj<di} dp[dj] + (di-dj)),
		// a forward pass for the upward switches, then a backward running
		// minimum for the free downward ones, adding column i's bits.
		next[0] = dp[0]
		for di := 1; di < numDiag; di++ {
			next[di] = min(dp[di], next[di-1]+1)
		}
		col := f.masks[(i>>5)*numDiag:][:numDiag]
		shift := uint(i & 31)
		low, carry := inf, inf
		for di := numDiag - 1; di >= 0; di-- {
			carry = min(carry, next[di])
			v := carry + int(col[di]>>shift&1)
			next[di] = v
			low = min(low, v)
		}
		dp, next = next, dp
		if low > maxEdits {
			// Every walk already exceeds the budget; the tail cannot reduce
			// it. Report the running bound (capped semantics like the banded
			// reference aligner).
			return low, false
		}
	}
	mismatches := inf
	for _, v := range dp {
		mismatches = min(mismatches, v)
	}
	return mismatches, mismatches <= maxEdits
}

// mismatchBits folds the XOR of two packed 32-base words to one bit per
// base: bit j is set when base j differs.
func mismatchBits(x uint64) uint32 {
	x = (x | x>>1) & 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0F0F0F0F0F0F0F0F
	x = (x | x>>4) & 0x00FF00FF00FF00FF
	x = (x | x>>8) & 0x0000FFFF0000FFFF
	x = (x | x>>16) & 0x00000000FFFFFFFF
	return uint32(x)
}

// columnRange returns the columns of [lo, hi) that fall in the 32-column
// word starting at base, as bits relative to base.
func columnRange(lo, hi, base int) uint32 {
	a, b := min(max(lo-base, 0), 32), min(max(hi-base, 0), 32)
	if a >= b {
		return 0
	}
	return uint32((uint64(1)<<b - 1) &^ (uint64(1)<<a - 1))
}

// resize returns s with length n, reusing its backing array when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// EditDistance computes the banded Levenshtein distance between a and b,
// returning band+1 if the distance exceeds band. It is the reference
// implementation used to validate the filter's leniency and to measure
// decoy rejection.
func EditDistance(a, b *genome.Sequence, band int) int {
	la, lb := a.Len(), b.Len()
	inf := band + 1
	if diff := la - lb; diff > band || -diff > band {
		return inf
	}
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		if j <= band {
			prev[j] = j
		} else {
			prev[j] = inf
		}
	}
	for i := 1; i <= la; i++ {
		lo := i - band
		if lo < 1 {
			lo = 1
		}
		hi := i + band
		if hi > lb {
			hi = lb
		}
		for j := 0; j <= lb; j++ {
			cur[j] = inf
		}
		if i-0 <= band {
			cur[0] = i
		}
		for j := lo; j <= hi; j++ {
			cost := 1
			if a.At(i-1) == b.At(j-1) {
				cost = 0
			}
			best := prev[j-1] + cost
			if v := prev[j] + 1; v < best {
				best = v
			}
			if v := cur[j-1] + 1; v < best {
				best = v
			}
			if best > inf {
				best = inf
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	if prev[lb] > band {
		return inf
	}
	return prev[lb]
}

// Candidate is one filtered location.
type Candidate struct {
	RefPos   int
	Accepted bool
	// Mismatch is the filter's lower-bound mismatch estimate.
	Mismatch int
}

// Result is the per-read functional output.
type Result struct {
	Candidates []Candidate
}

// FilterReads runs the filter over each read against cfg.Candidates
// candidate locations (the read's true origin plus random decoys, emulating
// the candidate stream a seeding stage produces) and emits the workload.
//
// Per candidate the accelerator streams the read (once per task) and the
// reference window — coarse, spatially local accesses; pre-alignment is the
// most compute-heavy of the four engines (82 DRAM cycles per step, §VI-A).
func FilterReads(ref *genome.Sequence, reads []genome.Read, cfg Config, seed uint64, name string) ([]Result, *trace.Workload, error) {
	if cfg.MaxEdits < 0 {
		return nil, nil, fmt.Errorf("prealign: negative edit threshold %d", cfg.MaxEdits)
	}
	if cfg.Candidates <= 0 {
		return nil, nil, fmt.Errorf("prealign: candidates must be positive, got %d", cfg.Candidates)
	}
	if len(reads) == 0 {
		return nil, nil, fmt.Errorf("prealign: no reads")
	}
	rng := newSplit(seed)
	results := make([]Result, len(reads))
	b := trace.NewBuilder(name)
	// +8: reference windows can poke slightly past the packed buffer; pad.
	b.SetSpaceBytes(trace.SpaceReference, uint64(ref.PackedBytes())+8)
	var readBytes uint64
	for i := range reads {
		readBytes += uint64((reads[i].Seq.Len() + 3) / 4)
	}
	b.SetSpaceBytes(trace.SpaceReads, readBytes)

	var f filter
	cands := make([]Candidate, len(reads)*cfg.Candidates)
	var readOff uint64
	for ri := range reads {
		read := reads[ri].Seq
		f.setRead(read)
		results[ri].Candidates = cands[ri*cfg.Candidates : (ri+1)*cfg.Candidates : (ri+1)*cfg.Candidates]
		b.BeginTask(trace.EnginePreAlign)
		rb := uint32((read.Len() + 3) / 4)
		b.Step(trace.Step{
			Op: trace.OpRead, Space: trace.SpaceReads, Addr: readOff, Size: rb,
			Spatial: true, Light: true,
		})
		readOff += uint64(rb)

		for ci := 0; ci < cfg.Candidates; ci++ {
			var pos int
			if ci == 0 && !reads[ri].ReverseStrand {
				pos = reads[ri].Origin
			} else {
				pos = int(rng.next() % uint64(ref.Len()-read.Len()+1))
			}
			// Window covers the band around the candidate.
			lo := pos - cfg.MaxEdits
			if lo < 0 {
				lo = 0
			}
			hi := pos + read.Len() + cfg.MaxEdits
			if hi > ref.Len() {
				hi = ref.Len()
			}
			b.Step(trace.Step{
				Op: trace.OpRead, Space: trace.SpaceReference,
				Addr: uint64(lo / 4), Size: uint32((hi-lo+3)/4 + 1), Spatial: true,
			})
			mm, ok := f.run(ref, pos, cfg.MaxEdits)
			results[ri].Candidates[ci] = Candidate{RefPos: pos, Accepted: ok, Mismatch: mm}
		}
		b.EndTask()
	}
	wl, err := b.Finish()
	if err != nil {
		return nil, nil, err
	}
	return results, wl, nil
}

// splitmix64 generator local to workload generation (distinct from sim.RNG to
// avoid an import cycle in future refactors; identical statistics).
type split struct{ x uint64 }

func newSplit(seed uint64) *split { return &split{x: seed} }

func (s *split) next() uint64 {
	s.x += 0x9E3779B97F4A7C15
	z := s.x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
