package fmindex

import (
	"math/bits"
	"sort"

	"beacon/internal/genome"
)

// lmsLoadsPerBase bounds the direct LMS sort: past this many 32-base key
// loads per text position it gives up, and the build runs full SA-IS
// instead. The species genomes need under one load per base
// (TestSpeciesGenomesSortWithinBudget); the bound is for highly periodic
// texts, whose ties stay unresolved word after word, so that they cost at
// most SA-IS plus O(n).
const lmsLoadsPerBase = 2

// suffixArray returns the suffix array of text, which is ref's bases as
// 1..4 followed by the 0 sentinel. It sorts the LMS suffixes directly on
// packed words and lets SA-IS stage 2 induce the rest: stage 2 seeded with
// fully sorted LMS suffixes yields the exact suffix array (Nong, Zhang &
// Chan 2009). A direct sort that needs more than budget key loads is
// abandoned for SA-IS, which reuses its suffix array and types.
func suffixArray(ref *genome.Sequence, text []int32, budget int) []int32 {
	t := classify(text)
	sa := make([]int32, len(text))
	nLMS, loads := sortLMS(ref, t, sa, budget)
	if loads > budget {
		saisInto(text, sa, t, 5)
		return sa
	}
	induceSorted(text, sa, t, make([]int32, 5), nLMS)
	return sa
}

// sortLMS writes the LMS positions of ref's text, t its SA-IS types, to
// sa[:nLMS] in suffix order and returns nLMS and the 32-base keys it
// loaded. Once the loads exceed budget it stops refining, and sa is
// unspecified.
//
// The sentinel suffix sorts first. The others are bucketed by their first
// bases and each bucket refined multikey-style: sort by the next 32 bases,
// then refine every run of equal keys 32 bases deeper.
func sortLMS(ref *genome.Sequence, t []bool, sa []int32, budget int) (nLMS, loads int) {
	n := ref.Len()
	// List the LMS positions other than the sentinel's at the tail of sa,
	// where the scatter into sa[1:nLMS] below cannot reach them: they lie
	// in 1..n-1 and no two are adjacent, so there are at most n/2.
	w := len(sa)
	for i := n - 1; i >= 1; i-- {
		sa[w-1] = int32(i)
		w -= b2i(t[i]) &^ b2i(t[i-1])
	}
	lms := sa[w:]
	sa[0] = int32(n)
	nLMS = 1 + len(lms)
	if len(lms) == 0 {
		return nLMS, 0
	}

	// words is a big-endian packed copy of ref: words[k] holds bases
	// 32k..32k+31 with base 32k in the top two bits, so an integer compare
	// of two keys is a lexicographic compare of 32 bases. Past the end the
	// bases read as A; the trailing zero word serves key's second load.
	words := make([]uint64, n>>5+2)
	for k := 0; k<<5 < n; k++ {
		words[k] = genome.ReverseBases(ref.Word(k << 5))
	}
	key := func(i int32) uint64 {
		q, r := i>>5, uint(i&31)<<1
		return words[q]<<r | words[q+1]>>(64-r)
	}

	// Counting sort by the first pb bases into sa[1:nLMS], keys alongside,
	// with at most len(lms) buckets.
	pb := max(1, min(8, (bits.Len(uint(len(lms)))-1)/2))
	shift := uint(64 - 2*pb)
	next := make([]int32, 1<<(2*pb)+1)
	for _, p := range lms {
		next[key(p)>>shift+1]++
	}
	next[0] = 1 // after the sentinel
	for b := 1; b < len(next); b++ {
		next[b] += next[b-1]
	}
	next = next[:len(next)-1]
	keys := make([]uint64, nLMS)
	for _, p := range lms {
		k := key(p)
		j := next[k>>shift]
		sa[j], keys[j] = p, k
		next[k>>shift]++
	}
	loads = len(lms)
	// next[b] is now bucket b's end, and bucket b starts where b-1 ends.

	var stack []lmsRun
	lo := int32(1)
	for _, hi := range next {
		stack = settle(stack, sa, keys, n, lmsRun{lo, hi, 0})
		lo = hi
		for len(stack) > 0 {
			run := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if loads += int(run.hi - run.lo); loads > budget {
				return nLMS, loads
			}
			for j, p := range sa[run.lo:run.hi] {
				keys[int(run.lo)+j] = key(p + run.depth)
			}
			stack = settle(stack, sa, keys, n, run)
		}
	}
	return nLMS, loads
}

// settle sorts run's suffixes by their keys at its depth and pushes each
// tie left to refine onto stack, 32 bases deeper.
//
// A tied suffix with fewer than 32 bases left has its key A-padded past the
// text's end; the sentinel is the smallest symbol, so it is the smallest
// of the tie and is settled there. Only one per tie can end so: two tied
// suffixes that both did would differ only in trailing As, which makes the
// shorter all A and so L-type, not LMS.
func settle(stack []lmsRun, sa []int32, keys []uint64, n int, run lmsRun) []lmsRun {
	pos, k := sa[run.lo:run.hi], keys[run.lo:run.hi]
	sortByKey(k, pos, 2*bits.Len(uint(len(k))))
	for a := 0; a < len(k); {
		b := a + 1
		for b < len(k) && k[b] == k[a] {
			b++
		}
		if b-a > 1 {
			for i := a; i < b; i++ {
				if int(pos[i]+run.depth)+32 > n {
					pos[a], pos[i] = pos[i], pos[a]
					a++
					break
				}
			}
			if b-a > 1 {
				stack = append(stack, lmsRun{run.lo + int32(a), run.lo + int32(b), run.depth + 32})
			}
		}
		a = b
	}
	return stack
}

// lmsRun is a range sa[lo:hi] of LMS suffixes equal in their first depth
// bases.
type lmsRun struct{ lo, hi, depth int32 }

// sortByKey sorts k ascending and permutes pos alongside. It is a
// three-way quicksort, so a run of equal keys, which periodic stretches
// produce, costs one partition pass; after limit levels of partitions it
// hands the rest to sort.Sort, which bounds the worst case at O(n log n).
func sortByKey(k []uint64, pos []int32, limit int) {
	for len(k) > 12 {
		if limit == 0 {
			sort.Sort(&keyedPositions{k, pos})
			return
		}
		limit--
		pivot := median3(k[0], k[len(k)/2], k[len(k)-1])
		// k[:lt] < pivot, k[lt:i] == pivot, k[gt:] > pivot.
		lt, i, gt := 0, 0, len(k)
		for i < gt {
			switch {
			case k[i] < pivot:
				k[lt], k[i] = k[i], k[lt]
				pos[lt], pos[i] = pos[i], pos[lt]
				lt++
				i++
			case k[i] > pivot:
				gt--
				k[gt], k[i] = k[i], k[gt]
				pos[gt], pos[i] = pos[i], pos[gt]
			default:
				i++
			}
		}
		// Recurse into the smaller side and loop on the larger.
		if lt < len(k)-gt {
			sortByKey(k[:lt], pos[:lt], limit)
			k, pos = k[gt:], pos[gt:]
		} else {
			sortByKey(k[gt:], pos[gt:], limit)
			k, pos = k[:lt], pos[:lt]
		}
	}
	for i := 1; i < len(k); i++ {
		for j := i; j > 0 && k[j] < k[j-1]; j-- {
			k[j], k[j-1] = k[j-1], k[j]
			pos[j], pos[j-1] = pos[j-1], pos[j]
		}
	}
}

func median3(a, b, c uint64) uint64 {
	if a > b {
		a, b = b, a
	}
	return max(a, min(b, c))
}

type keyedPositions struct {
	k   []uint64
	pos []int32
}

func (s *keyedPositions) Len() int           { return len(s.k) }
func (s *keyedPositions) Less(i, j int) bool { return s.k[i] < s.k[j] }
func (s *keyedPositions) Swap(i, j int) {
	s.k[i], s.k[j] = s.k[j], s.k[i]
	s.pos[i], s.pos[j] = s.pos[j], s.pos[i]
}

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
