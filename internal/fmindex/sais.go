// Package fmindex implements the FM-index used by the DNA seeding workload:
// suffix-array construction, the Burrows-Wheeler transform, a sampled Occ
// structure laid out in the 32-byte blocks that the paper's accelerator
// fetches per backward-extension step, and backward search / locate with
// memory-trace emission for the timing simulators.
//
// The suffix array is built in two halves. The LMS suffixes, about a third
// of the positions, are sorted directly on 2-bit packed 32-base keys
// (lmssort.go); SA-IS stage 2 then induces every other suffix from them.
// A periodic text that keeps the direct sort tied for too many words falls
// back to full SA-IS (saisInto), whose recursion also sorts its reduced
// strings, so the package has one induced-sorting implementation and a
// suffix array that is the same whichever half sorted the LMS suffixes.
package fmindex

// saisInto writes the suffix array of s to sa, given t = classify(s). The
// values of s lie in [0, sigma), and its last element is a unique 0
// sentinel. Every recursion level keeps its reduced string and LMS
// positions in the unused half of its own sa, so a level allocates only
// the types of the next.
func saisInto(s, sa []int32, t []bool, sigma int) {
	n := len(s)
	if n == 1 {
		sa[0] = 0
		return
	}
	isLMS := func(i int) bool { return i > 0 && t[i] && !t[i-1] }

	bkt := make([]int32, sigma)

	// Stage 1: place LMS suffixes (unordered) and induce-sort to order the
	// LMS *substrings*.
	for i := range sa {
		sa[i] = -1
	}
	bucketEnds(s, bkt)
	for i := n - 1; i >= 1; i-- {
		if isLMS(i) {
			bkt[s[i]]--
			sa[bkt[s[i]]] = int32(i)
		}
	}
	induceL(s, sa, t, bkt)
	induceS(s, sa, t, bkt)

	// Compact the sorted LMS suffixes to the front of sa.
	nLMS := 0
	for i := 0; i < n; i++ {
		if sa[i] > 0 && isLMS(int(sa[i])) {
			sa[nLMS] = sa[i]
			nLMS++
		}
	}

	// Name LMS substrings. nLMS <= n/2, so sa[nLMS:] has room.
	names := sa[nLMS:]
	for i := range names {
		names[i] = -1
	}
	var name int32
	prev := int32(-1)
	for i := 0; i < nLMS; i++ {
		pos := sa[i]
		if prev < 0 || !lmsSubstringsEqual(s, t, isLMS, int(prev), int(pos)) {
			name++
			prev = pos
		}
		names[pos/2] = name - 1
	}

	// Reduced string: names in text order, packed at the end of sa. Moving
	// down, the write index never falls below the read index.
	j := n
	for i := n - 1; i >= nLMS; i-- {
		if sa[i] >= 0 {
			j--
			sa[j] = sa[i]
		}
	}
	s1, sa1 := sa[n-nLMS:], sa[:nLMS]

	if int(name) < nLMS {
		saisInto(s1, sa1, classify(s1), int(name))
	} else {
		// All names unique: the reduced suffix array is the inverse.
		for i, c := range s1 {
			sa1[c] = int32(i)
		}
	}

	// LMS positions in text order, over the reduced string.
	p := s1
	j = 0
	for i := 1; i < n; i++ {
		if isLMS(i) {
			p[j] = int32(i)
			j++
		}
	}

	// Stage 2: the LMS suffixes in their final relative order seed the
	// induction of the rest.
	for i, r := range sa1 {
		sa1[i] = p[r]
	}
	induceSorted(s, sa, t, bkt, nLMS)
}

// classify returns the SA-IS type of each position of s: S (true) when its
// suffix is smaller than the next one, else L.
func classify(s []int32) []bool {
	n := len(s)
	t := make([]bool, n)
	t[n-1] = true
	for i := n - 2; i >= 0; i-- {
		// Written without && and || so that it compiles to a conditional
		// move: on DNA, equal neighbours are too frequent to predict.
		st := t[i+1]
		if s[i] != s[i+1] {
			st = s[i] < s[i+1]
		}
		t[i] = st
	}
	return t
}

// induceSorted is SA-IS stage 2. sa[:nLMS] holds the LMS suffixes of s in
// suffix order; it moves each to the end of its bucket, then induces the L
// suffixes from them and the S suffixes from those, leaving sa the suffix
// array of s.
func induceSorted(s, sa []int32, t []bool, bkt []int32, nLMS int) {
	for i := nLMS; i < len(sa); i++ {
		sa[i] = -1
	}
	bucketEnds(s, bkt)
	// Going down, each suffix's bucket slot is at or above its index, so
	// no unplaced entry is overwritten.
	for i := nLMS - 1; i >= 0; i-- {
		j := sa[i]
		sa[i] = -1
		bkt[s[j]]--
		sa[bkt[s[j]]] = j
	}
	induceL(s, sa, t, bkt)
	induceS(s, sa, t, bkt)
}

// bucketEnds fills bkt with the end index (exclusive) of each character's
// bucket.
func bucketEnds(s []int32, bkt []int32) {
	for i := range bkt {
		bkt[i] = 0
	}
	for _, c := range s {
		bkt[c]++
	}
	var sum int32
	for i := range bkt {
		sum += bkt[i]
		bkt[i] = sum
	}
}

// bucketStarts fills bkt with the start index of each character's bucket.
func bucketStarts(s []int32, bkt []int32) {
	for i := range bkt {
		bkt[i] = 0
	}
	for _, c := range s {
		bkt[c]++
	}
	var sum int32
	for i := range bkt {
		sum += bkt[i]
		bkt[i] = sum - bkt[i]
	}
}

func induceL(s, sa []int32, t []bool, bkt []int32) {
	bucketStarts(s, bkt)
	for i := 0; i < len(s); i++ {
		j := sa[i] - 1
		if sa[i] > 0 && !t[j] {
			sa[bkt[s[j]]] = j
			bkt[s[j]]++
		}
	}
}

func induceS(s, sa []int32, t []bool, bkt []int32) {
	bucketEnds(s, bkt)
	for i := len(s) - 1; i >= 0; i-- {
		j := sa[i] - 1
		if sa[i] > 0 && t[j] {
			bkt[s[j]]--
			sa[bkt[s[j]]] = j
		}
	}
}

// lmsSubstringsEqual compares the LMS substrings starting at a and b.
func lmsSubstringsEqual(s []int32, t []bool, isLMS func(int) bool, a, b int) bool {
	if a == b {
		return true
	}
	n := len(s)
	for d := 0; ; d++ {
		if a+d >= n || b+d >= n {
			// Only the sentinel substring touches the end, and it is unique.
			return false
		}
		aL, bL := isLMS(a+d), isLMS(b+d)
		if d > 0 && aL && bL {
			return true
		}
		if aL != bL || s[a+d] != s[b+d] || t[a+d] != t[b+d] {
			return false
		}
	}
}
