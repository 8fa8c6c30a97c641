package fmindex

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"beacon/internal/genome"
	"beacon/internal/sim"
)

// FuzzFMIndex drives construction and search with arbitrary byte strings
// mapped onto the DNA alphabet: the suffix array must be a valid sorted
// permutation, and Search/Count/Locate must agree exactly with a naive
// O(n*m) scan. Run continuously with
//
//	go test -fuzz=FuzzFMIndex ./internal/fmindex
func FuzzFMIndex(f *testing.F) {
	f.Add([]byte("ACGTACGTACGT"), []byte("ACGT"))
	f.Add([]byte("AAAAAAAAAAAAAAAA"), []byte("AAA"))
	f.Add([]byte("banana"), []byte("an"))
	f.Add([]byte("mississippi$$"), []byte("issi"))
	f.Add([]byte{0, 1, 2, 3, 3, 2, 1, 0}, []byte{1, 2})
	f.Fuzz(func(t *testing.T, refRaw, patRaw []byte) {
		if len(refRaw) == 0 {
			return
		}
		if len(refRaw) > 1024 {
			refRaw = refRaw[:1024]
		}
		if len(patRaw) > 64 {
			patRaw = patRaw[:64]
		}
		ref := make([]byte, len(refRaw))
		for i, b := range refRaw {
			ref[i] = "ACGT"[b&3]
		}
		// Construction: the SA underlying the index must be a valid sorted
		// permutation of suffixes for any input.
		sa, _ := dnaSuffixArray(string(ref), prodBudget(string(ref)))
		if err := checkSuffixArray(ref, sa[1:]); err != nil {
			t.Fatalf("suffix array invalid for %q: %v", ref, err)
		}
		idx, err := Build(genome.MustFromString(string(ref)))
		if err != nil {
			t.Fatalf("Build(%q): %v", ref, err)
		}
		if len(patRaw) == 0 {
			return
		}
		pat := make([]byte, len(patRaw))
		for i, b := range patRaw {
			pat[i] = "ACGT"[b&3]
		}
		want := naiveCount(string(ref), string(pat))
		pseq := genome.MustFromString(string(pat))
		if got := idx.Count(pseq); got != want {
			t.Fatalf("Count(%q) = %d, naive = %d (ref %q)", pat, got, want, ref)
		}
		iv := idx.Search(pseq)
		if int(iv.Width()) != want {
			t.Fatalf("Search(%q) width = %d, naive = %d (ref %q)", pat, iv.Width(), want, ref)
		}
		wantPos := naiveFind(string(ref), string(pat))
		got := idx.Locate(iv, len(ref)+1)
		if len(got) != len(wantPos) {
			t.Fatalf("Locate(%q) found %d positions, naive %d (ref %q)", pat, len(got), len(wantPos), ref)
		}
		for _, p := range got {
			if !wantPos[int(p)] {
				t.Fatalf("Locate(%q) returned false position %d (ref %q)", pat, p, ref)
			}
		}
	})
}

// FuzzSuffixSortMatchesSAIS compares the suffix array Build uses with
// sais's on the same text (bytes map onto ACGT by their low two bits), once
// under the production key-load budget and once under budget 0, which
// sends every text with a tie to refine to the SA-IS fallback. The seeds
// are the direct sort's hard cases: homopolymers and tandem repeats, whose
// ties run word after word, a suffix that ends inside a tied key, and
// lengths around one and two 32-base words.
// Run continuously with
//
//	go test -fuzz=FuzzSuffixSortMatchesSAIS ./internal/fmindex
func FuzzSuffixSortMatchesSAIS(f *testing.F) {
	codes := func(s string) []byte {
		b := make([]byte, len(s))
		for i := range s {
			b[i] = byte(strings.IndexByte("ACGT", s[i]))
		}
		return b
	}
	rng := sim.NewRNG(300)
	random := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(4))
		}
		return b
	}
	f.Add(codes(strings.Repeat("A", 500)))
	f.Add(codes(strings.Repeat("T", 97)))
	f.Add(codes(strings.Repeat("AC", 300)))
	f.Add(codes(strings.Repeat("ACGTTGCA", 100)))
	f.Add(bytes.Repeat(random(300), 8))
	f.Add(codes("GAC" + strings.Repeat("A", 30) + "GAC"))
	for _, n := range []int{1, 31, 32, 33, 63, 64, 65} {
		f.Add(random(n))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		if len(raw) > 4096 {
			raw = raw[:4096]
		}
		ref := make([]byte, len(raw))
		for i, b := range raw {
			ref[i] = "ACGT"[b&3]
		}
		for _, budget := range []int{prodBudget(string(ref)), 0} {
			if got, want := dnaSuffixArray(string(ref), budget); !slices.Equal(got, want) {
				t.Fatalf("budget %d, %q: sa = %v, SA-IS %v", budget, ref, got, want)
			}
		}
	})
}
