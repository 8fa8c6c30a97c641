package fmindex

import (
	"slices"
	"strings"
	"testing"

	"beacon/internal/genome"
	"beacon/internal/sim"
)

// dnaSuffixArray returns the suffix array Build constructs for ref (an
// ACGT string) under the given key-load budget, and sais's for the same
// text. Both include the sentinel's row.
func dnaSuffixArray(ref string, budget int) (got, want []int32) {
	seq := genome.MustFromString(ref)
	text := dnaText(seq)
	return suffixArray(seq, text, budget), sais(text, 5)
}

func prodBudget(ref string) int { return lmsLoadsPerBase * (len(ref) + 1) }

// Every species stand-in sorts its LMS suffixes within the production
// budget, so no build of a real workload silently falls back to SA-IS, and
// the result equals SA-IS's.
func TestSpeciesGenomesSortWithinBudget(t *testing.T) {
	for sp := genome.PinusTaeda; sp <= genome.HumanLike; sp++ {
		for _, scale := range []int{500, 2_000, 8_000} {
			ref, err := genome.SpeciesGenome(sp, scale)
			if err != nil {
				t.Fatal(err)
			}
			text := dnaText(ref)
			budget := lmsLoadsPerBase * len(text)
			_, loads := sortLMS(ref, classify(text), make([]int32, len(text)), budget)
			if loads > budget {
				t.Fatalf("%v at scale %d: LMS sort needs more than %d key loads (%d bases)", sp, scale, budget, len(text))
			}
			t.Logf("%v at scale %d: %d key loads, %.2f per base", sp, scale, loads, float64(loads)/float64(len(text)))
			if got, want := suffixArray(ref, text, budget), sais(text, 5); !slices.Equal(got, want) {
				t.Fatalf("%v at scale %d: suffix array differs from SA-IS", sp, scale)
			}
		}
	}
}

// An LMS suffix with fewer than 32 bases left ties, through its key's A
// padding, with a longer one followed by As; the shorter must sort first.
// "AC$" near the end ties with "AC" + As earlier when the run of As reaches
// the key's end.
func TestSuffixSortOrdersSuffixEndingInTie(t *testing.T) {
	for k := 26; k <= 66; k++ {
		for _, ref := range []string{
			"GAC" + strings.Repeat("A", k) + "GAC",
			"TTGAC" + strings.Repeat("A", k) + "CGAC" + strings.Repeat("A", k%5),
		} {
			if got, want := dnaSuffixArray(ref, prodBudget(ref)); !slices.Equal(got, want) {
				t.Fatalf("%q: sa = %v, SA-IS %v", ref, got, want)
			}
		}
	}
}

// sortByKey sorts keys with their positions alongside, by quicksort and,
// with its partition budget spent, by sort.Sort.
func TestSortByKey(t *testing.T) {
	rng := sim.NewRNG(7)
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		k, pos := make([]uint64, n), make([]int32, n)
		for i := range k {
			k[i] = uint64(rng.Intn(1 + trial%40))
			pos[i] = int32(i)
		}
		orig := slices.Clone(k)
		for _, limit := range []int{0, 1, 64} {
			k, pos := slices.Clone(k), slices.Clone(pos)
			sortByKey(k, pos, limit)
			if !slices.IsSorted(k) {
				t.Fatalf("limit %d: keys not sorted: %v", limit, k)
			}
			for i, p := range pos {
				if orig[p] != k[i] {
					t.Fatalf("limit %d: position %d moved away from its key", limit, p)
				}
			}
		}
	}
}

// On random texts over one to four letters, the direct sort and its
// fallback both give SA-IS's suffix array.
func TestSuffixSortMatchesSAISOnRandomStrings(t *testing.T) {
	rng := sim.NewRNG(31)
	for trial := 0; trial < 3000; trial++ {
		ref := make([]byte, 1+rng.Intn(200))
		sigma := 1 + rng.Intn(4)
		for i := range ref {
			ref[i] = "ACGT"[rng.Intn(sigma)]
		}
		for _, budget := range []int{prodBudget(string(ref)), 0} {
			if got, want := dnaSuffixArray(string(ref), budget); !slices.Equal(got, want) {
				t.Fatalf("budget %d, %q: sa = %v, SA-IS %v", budget, ref, got, want)
			}
		}
	}
}
