package fmindex

import "fmt"

// sais returns the suffix array of s, whose values lie in [0, sigma) and
// whose last element is a unique 0 sentinel.
func sais(s []int32, sigma int) []int32 {
	sa := make([]int32, len(s))
	saisInto(s, sa, classify(s), sigma)
	return sa
}

// buildSuffixArray computes the suffix array of s, over any byte alphabet,
// with SA-IS. sa[i] is the start of the i-th smallest suffix.
func buildSuffixArray(s []byte) []int32 {
	n := len(s)
	if n == 0 {
		return nil
	}
	// SA-IS wants a unique smallest sentinel; shift the alphabet up by one
	// and append 0.
	t := make([]int32, n+1)
	for i, c := range s {
		t[i] = int32(c) + 1
	}
	t[n] = 0
	sa := sais(t, 257)
	// sa[0] is the sentinel suffix; drop it.
	return sa[1:]
}

// naiveSuffixArray is an O(n^2 log n) reference used by tests.
func naiveSuffixArray(s []byte) []int32 {
	sa := make([]int32, len(s))
	for i := range sa {
		sa[i] = int32(i)
	}
	// Insertion of all suffixes into a sorted order via sort would pull in
	// the sort package; a simple merge sort on suffix compare keeps this
	// file self-contained and obviously correct.
	var sortSuf func(a []int32) []int32
	sortSuf = func(a []int32) []int32 {
		if len(a) <= 1 {
			return a
		}
		mid := len(a) / 2
		l, r := sortSuf(append([]int32(nil), a[:mid]...)), sortSuf(append([]int32(nil), a[mid:]...))
		out := make([]int32, 0, len(a))
		for len(l) > 0 && len(r) > 0 {
			if suffixLess(s, l[0], r[0]) {
				out = append(out, l[0])
				l = l[1:]
			} else {
				out = append(out, r[0])
				r = r[1:]
			}
		}
		out = append(out, l...)
		return append(out, r...)
	}
	return sortSuf(sa)
}

func suffixLess(s []byte, a, b int32) bool {
	for int(a) < len(s) && int(b) < len(s) {
		if s[a] != s[b] {
			return s[a] < s[b]
		}
		a++
		b++
	}
	return int(a) == len(s) && int(b) != len(s)
}

// checkSuffixArray validates that sa is a permutation with sorted suffixes.
func checkSuffixArray(s []byte, sa []int32) error {
	if len(sa) != len(s) {
		return fmt.Errorf("fmindex: sa length %d != text length %d", len(sa), len(s))
	}
	seen := make([]bool, len(s))
	for _, v := range sa {
		if v < 0 || int(v) >= len(s) || seen[v] {
			return fmt.Errorf("fmindex: sa is not a permutation (entry %d)", v)
		}
		seen[v] = true
	}
	for i := 1; i < len(sa); i++ {
		if !suffixLess(s, sa[i-1], sa[i]) {
			return fmt.Errorf("fmindex: suffixes %d and %d out of order", i-1, i)
		}
	}
	return nil
}
