package fmindex

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"beacon/internal/genome"
	"beacon/internal/sim"
)

func TestSuffixArrayKnown(t *testing.T) {
	// banana: suffixes sorted = a(5), ana(3), anana(1), banana(0), na(4), nana(2)
	sa := buildSuffixArray([]byte("banana"))
	want := []int32{5, 3, 1, 0, 4, 2}
	for i := range want {
		if sa[i] != want[i] {
			t.Fatalf("sa = %v, want %v", sa, want)
		}
	}
}

func TestSuffixArrayEdgeCases(t *testing.T) {
	if sa := buildSuffixArray(nil); sa != nil {
		t.Errorf("empty text sa = %v, want nil", sa)
	}
	if sa := buildSuffixArray([]byte("x")); len(sa) != 1 || sa[0] != 0 {
		t.Errorf("single char sa = %v", sa)
	}
	// All-equal text stresses the LMS naming path.
	sa := buildSuffixArray([]byte("aaaaaaaa"))
	if err := checkSuffixArray([]byte("aaaaaaaa"), sa); err != nil {
		t.Errorf("all-equal: %v", err)
	}
	// Strictly increasing / decreasing texts are all-S / all-L.
	for _, s := range []string{"abcdefgh", "hgfedcba", "abababab", "mississippi"} {
		sa := buildSuffixArray([]byte(s))
		if err := checkSuffixArray([]byte(s), sa); err != nil {
			t.Errorf("%q: %v", s, err)
		}
	}
}

func TestSuffixArrayMatchesNaive(t *testing.T) {
	rng := sim.NewRNG(100)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		sigma := 1 + rng.Intn(5)
		s := make([]byte, n)
		for i := range s {
			s[i] = byte('a' + rng.Intn(sigma))
		}
		got := buildSuffixArray(s)
		want := naiveSuffixArray(s)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: text %q: sa=%v want %v", trial, s, got, want)
			}
		}
	}
}

// Property: the suffix array Build uses, for any DNA text, is a sorted
// permutation of its suffixes.
func TestSuffixArrayProperty(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		s := make([]byte, len(raw))
		for i, b := range raw {
			s[i] = "ACGT"[b&3]
		}
		sa, _ := dnaSuffixArray(string(s), prodBudget(string(s)))
		return checkSuffixArray(s, sa[1:]) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func mustIndex(t *testing.T, ref string) *Index {
	t.Helper()
	idx, err := Build(genome.MustFromString(ref))
	if err != nil {
		t.Fatalf("Build(%q): %v", ref, err)
	}
	return idx
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(genome.NewSequence(0)); err == nil {
		t.Error("expected error for empty reference")
	}
	if _, err := BuildSampled(genome.MustFromString("ACGT"), 0); err == nil {
		t.Error("expected error for zero stride")
	}
}

func naiveCount(ref, pat string) int {
	if len(pat) == 0 || len(pat) > len(ref) {
		return 0
	}
	n := 0
	for i := 0; i+len(pat) <= len(ref); i++ {
		if ref[i:i+len(pat)] == pat {
			n++
		}
	}
	return n
}

func naiveFind(ref, pat string) map[int]bool {
	out := map[int]bool{}
	for i := 0; i+len(pat) <= len(ref); i++ {
		if ref[i:i+len(pat)] == pat {
			out[i] = true
		}
	}
	return out
}

func TestCountKnown(t *testing.T) {
	ref := "ACGTACGTACGT"
	idx := mustIndex(t, ref)
	cases := map[string]int{
		"ACGT": 3, "CGTA": 2, "A": 3, "T": 3, "TTT": 0, "ACGTACGTACGT": 1, "GT": 3,
	}
	pats := make([]string, 0, len(cases))
	for pat := range cases {
		pats = append(pats, pat)
	}
	sort.Strings(pats)
	for _, pat := range pats {
		if got, want := idx.Count(genome.MustFromString(pat)), cases[pat]; got != want {
			t.Errorf("Count(%q) = %d, want %d", pat, got, want)
		}
	}
}

func TestCountMatchesNaiveRandom(t *testing.T) {
	rng := sim.NewRNG(77)
	g, err := genome.Synthesize(genome.DefaultSyntheticConfig(3000, 12))
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	ref := g.String()
	idx := mustIndex(t, ref)
	for trial := 0; trial < 300; trial++ {
		plen := 1 + rng.Intn(24)
		start := rng.Intn(len(ref) - plen)
		pat := ref[start : start+plen]
		if got, want := idx.Count(genome.MustFromString(pat)), naiveCount(ref, pat); got != want {
			t.Fatalf("Count(%q) = %d, want %d", pat, got, want)
		}
	}
	// Also patterns unlikely to occur.
	for trial := 0; trial < 100; trial++ {
		pat := make([]byte, 18)
		for i := range pat {
			pat[i] = "ACGT"[rng.Intn(4)]
		}
		p := string(pat)
		if got, want := idx.Count(genome.MustFromString(p)), naiveCount(ref, p); got != want {
			t.Fatalf("random Count(%q) = %d, want %d", p, got, want)
		}
	}
}

func TestLocateFindsTruePositions(t *testing.T) {
	rng := sim.NewRNG(31)
	g, _ := genome.Synthesize(genome.DefaultSyntheticConfig(2000, 9))
	ref := g.String()
	idx := mustIndex(t, ref)
	for trial := 0; trial < 150; trial++ {
		plen := 8 + rng.Intn(16)
		start := rng.Intn(len(ref) - plen)
		pat := ref[start : start+plen]
		iv := idx.Search(genome.MustFromString(pat))
		want := naiveFind(ref, pat)
		if int(iv.Width()) != len(want) {
			t.Fatalf("interval width %d != naive %d for %q", iv.Width(), len(want), pat)
		}
		got := idx.Locate(iv, 1000)
		if len(got) != len(want) {
			t.Fatalf("Locate returned %d hits, want %d", len(got), len(want))
		}
		for _, p := range got {
			if !want[int(p)] {
				t.Fatalf("Locate(%q) hit %d is not a true occurrence (want %v)", pat, p, want)
			}
		}
	}
}

func TestLocateRespectsMaxHits(t *testing.T) {
	idx := mustIndex(t, strings.Repeat("ACGT", 100))
	iv := idx.Search(genome.MustFromString("ACGT"))
	if got := idx.Locate(iv, 5); len(got) != 5 {
		t.Errorf("Locate maxHits=5 returned %d", len(got))
	}
}

func TestLocateWithCoarseSampling(t *testing.T) {
	// A large stride forces long LF walks, exercising the sentinel-row path.
	g, _ := genome.Synthesize(genome.DefaultSyntheticConfig(500, 4))
	ref := g.String()
	idx, err := BuildSampled(g, 128)
	if err != nil {
		t.Fatalf("BuildSampled: %v", err)
	}
	for start := 0; start+12 <= len(ref); start += 37 {
		pat := ref[start : start+12]
		iv := idx.Search(genome.MustFromString(pat))
		want := naiveFind(ref, pat)
		got := idx.Locate(iv, 1000)
		for _, p := range got {
			if !want[int(p)] {
				t.Fatalf("coarse Locate(%q) hit %d not a true occurrence", pat, p)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("coarse Locate(%q): %d hits, want %d", pat, len(got), len(want))
		}
	}
}

func TestOccConsistency(t *testing.T) {
	// occ(b, n) summed over bases must equal n minus the sentinel.
	g, _ := genome.Synthesize(genome.DefaultSyntheticConfig(777, 2))
	idx, _ := Build(g)
	n := int32(idx.Len())
	var total int32
	for b := genome.Base(0); b < 4; b++ {
		total += idx.occ(b, n)
	}
	if total != n-1 {
		t.Errorf("sum occ = %d, want %d", total, n-1)
	}
	// occ is monotone non-decreasing in i.
	for b := genome.Base(0); b < 4; b++ {
		prev := int32(0)
		for i := int32(0); i <= n; i += 13 {
			cur := idx.occ(b, i)
			if cur < prev {
				t.Fatalf("occ(%d, %d) = %d decreased from %d", b, i, cur, prev)
			}
			prev = cur
		}
	}
}

func TestOccMatchesNaive(t *testing.T) {
	g, _ := genome.Synthesize(genome.DefaultSyntheticConfig(300, 8))
	idx, _ := Build(g)
	// Count occurrences naively over the stored BWT.
	n := idx.Len()
	bwt := make([]int32, n)
	for i := 0; i < n; i++ {
		bwt[i] = idx.bwtAt(int32(i))
	}
	for b := genome.Base(0); b < 4; b++ {
		count := int32(0)
		for i := 0; i <= n; i++ {
			if got := idx.occ(b, int32(i)); got != count {
				t.Fatalf("occ(%d, %d) = %d, want %d", b, i, got, count)
			}
			if i < n && bwt[i] == int32(b)+1 {
				count++
			}
		}
	}
}

func TestBlockFootprint(t *testing.T) {
	g, _ := genome.Synthesize(genome.DefaultSyntheticConfig(1000, 3))
	idx, _ := Build(g)
	// 1001 positions / 64 per block = 16 blocks.
	if idx.Blocks() != 16 {
		t.Errorf("Blocks = %d, want 16", idx.Blocks())
	}
	if idx.OccBytes() != 16*32 {
		t.Errorf("OccBytes = %d, want 512", idx.OccBytes())
	}
	if idx.SABytes() == 0 {
		t.Error("SABytes = 0")
	}
}

func TestSearchEmptyOnAbsentPattern(t *testing.T) {
	idx := mustIndex(t, "AAAAAAAAAA")
	iv := idx.Search(genome.MustFromString("ACGT"))
	if !iv.Empty() {
		t.Errorf("expected empty interval, got [%d,%d)", iv.Lo, iv.Hi)
	}
	if iv.Width() != 0 {
		t.Errorf("empty width = %d", iv.Width())
	}
}

func TestPopcount2(t *testing.T) {
	// data: fields 0..63; set field i to i%4.
	var data [2]uint64
	for i := uint(0); i < 64; i++ {
		data[i/32] |= uint64(i%4) << ((i % 32) * 2)
	}
	for v := uint64(0); v < 4; v++ {
		for k := uint(0); k <= 64; k++ {
			want := int32(0)
			for i := uint(0); i < k; i++ {
				if uint64(i%4) == v {
					want++
				}
			}
			if got := popcount2(data, k, v); got != want {
				t.Fatalf("popcount2(k=%d, v=%d) = %d, want %d", k, v, got, want)
			}
		}
	}
}
