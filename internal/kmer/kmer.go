// Package kmer implements k-mer counting, the BFCounter/NEST workload
// accelerated by BEACON's KMC engine: a counting Bloom filter screens out
// singleton k-mers so that only repeated k-mers occupy the exact counter
// table.
//
// Two flows are provided, matching §IV-D of the paper:
//
//   - Multi-pass (NEST): each processing element builds a local counting
//     Bloom filter over the whole input (pass 1), the local filters are
//     merged into a global filter and redistributed, and the input is
//     processed a second time against the now-local filter (pass 2). Remote
//     traffic is eliminated at the cost of reading the input twice.
//   - Single-pass (BEACON-S): processing elements share one distributed
//     filter and counter table, touching them with atomic RMW operations.
//     The input is read once; filter traffic crosses the CXL fabric.
//
// Both flows produce identical counts — a property the tests verify — and
// differ only in the memory traces they emit. The functional model keeps
// one local filter at a time: the multi-pass flow fills the parts' filters
// one after another in one buffer and merges each as it completes, which
// gives the global filter the same bytes, while the trace still charges
// every part its own filter.
//
// CountExact is the exact reference the workload builds verify the flows
// against. It reads k-mers off packed words and sorts them, sharing no code
// with the flows' rolling k-mer pass.
package kmer

import (
	"encoding/binary"
	"fmt"

	"beacon/internal/genome"
)

// CountingBloom is a counting Bloom filter with 4-bit saturating counters,
// two counters per byte — the structure NEST builds in DIMM memory.
type CountingBloom struct {
	counters []byte // 2 x 4-bit counters per byte
	m        uint64 // number of counters (power of two)
	hashes   int
}

// NewCountingBloom creates a filter with at least minCounters counters
// (rounded up to a power of two) and the given number of hash functions.
func NewCountingBloom(minCounters uint64, hashes int) (*CountingBloom, error) {
	if minCounters == 0 {
		return nil, fmt.Errorf("kmer: bloom filter needs at least one counter")
	}
	if hashes <= 0 || hashes > 8 {
		return nil, fmt.Errorf("kmer: hash count %d out of 1..8", hashes)
	}
	m := uint64(1)
	for m < minCounters {
		m *= 2
	}
	return &CountingBloom{counters: make([]byte, m/2+1), m: m, hashes: hashes}, nil
}

// Bytes returns the filter footprint in bytes.
func (b *CountingBloom) Bytes() uint64 { return uint64(len(b.counters)) }

// slots returns the counter indices probed for key.
func (b *CountingBloom) slots(key uint64, out []uint64) []uint64 {
	out = out[:0]
	h := key
	for i := 0; i < b.hashes; i++ {
		h += 0x9E3779B97F4A7C15
		z := h
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		out = append(out, z&(b.m-1))
	}
	return out
}

func (b *CountingBloom) get(slot uint64) byte {
	v := b.counters[slot/2]
	if slot%2 == 1 {
		v >>= 4
	}
	return v & 0xF
}

func (b *CountingBloom) set(slot uint64, v byte) {
	if v > 15 {
		v = 15
	}
	old := b.counters[slot/2]
	if slot%2 == 1 {
		b.counters[slot/2] = old&0x0F | v<<4
	} else {
		b.counters[slot/2] = old&0xF0 | v
	}
}

// Add increments the key's counters (saturating at 15) and returns the
// filter's estimate of the key's count *before* this insertion.
func (b *CountingBloom) Add(key uint64) int {
	var buf [8]uint64
	min := byte(0xF)
	sl := b.slots(key, buf[:])
	for _, s := range sl {
		if c := b.get(s); c < min {
			min = c
		}
	}
	for _, s := range sl {
		c := b.get(s)
		// Conservative increment: only bump the minimal counters; keeps the
		// overestimate tight (standard counting-Bloom refinement).
		if c == min {
			b.set(s, c+1)
		}
	}
	return int(min)
}

// Estimate returns the filter's (over-)estimate for the key's count.
func (b *CountingBloom) Estimate(key uint64) int {
	var buf [8]uint64
	min := byte(0xF)
	for _, s := range b.slots(key, buf[:]) {
		if c := b.get(s); c < min {
			min = c
		}
	}
	return int(min)
}

// Merge adds another filter's counters into b (saturating). The filters must
// have identical geometry.
func (b *CountingBloom) Merge(o *CountingBloom) error {
	if b.m != o.m || b.hashes != o.hashes {
		return fmt.Errorf("kmer: merging incompatible filters (%d/%d vs %d/%d counters/hashes)",
			b.m, b.hashes, o.m, o.hashes)
	}
	// Sixteen counters per uint64, then the odd tail bytes. Nibbles past
	// the last counter are never set, so they stay 0 + 0.
	dst, src := b.counters, o.counters
	for len(dst) >= 8 {
		x := mergeNibbles(binary.LittleEndian.Uint64(dst), binary.LittleEndian.Uint64(src))
		binary.LittleEndian.PutUint64(dst, x)
		dst, src = dst[8:], src[8:]
	}
	for i := range dst {
		dst[i] = byte(mergeNibbles(uint64(dst[i]), uint64(src[i])))
	}
	return nil
}

// mergeNibbles adds the 4-bit counters of a and b lane by lane, saturating
// at 15. The low three bits of each lane add without carrying out of it;
// the top bit then either fits or overflows, and overflowing lanes are set
// to 15.
func mergeNibbles(a, b uint64) uint64 {
	const low3, top = 0x7777777777777777, 0x8888888888888888
	t := a&low3 + b&low3
	sum := t ^ (a^b)&top
	over := (a&b | (a|b)&t) & top
	return sum | (over>>3)*0xF
}

// Config parameterizes the counting workload.
type Config struct {
	// K is the k-mer length (<= 32). The paper uses k=28-style short k-mers.
	K int
	// Hashes is the number of Bloom hash functions.
	Hashes int
	// CountersPerKmer scales the filter: counters = CountersPerKmer * total
	// k-mer instances in the input.
	CountersPerKmer int
	// CounterEntryBytes is the size of one exact-counter record in memory
	// (key + count).
	CounterEntryBytes int
	// KmersPerTask batches consecutive k-mers of a read into one
	// schedulable task. K-mers are independent, so the KMC engine processes
	// them in parallel across PEs; batching bounds task-chain length (and
	// thus the memory-level parallelism the accelerator can extract).
	KmersPerTask int
}

// DefaultConfig returns BFCounter-like parameters. CountersPerKmer = 8
// keeps the false-positive rate (singletons misreported as repeated) well
// under 1% at the coverage levels the workloads use.
func DefaultConfig() Config {
	return Config{K: 28, Hashes: 4, CountersPerKmer: 8, CounterEntryBytes: 12, KmersPerTask: 4}
}

func (c Config) validate() error {
	if c.K <= 0 || c.K > 32 {
		return fmt.Errorf("kmer: k=%d out of 1..32", c.K)
	}
	if c.Hashes <= 0 || c.Hashes > 8 {
		return fmt.Errorf("kmer: hashes=%d out of 1..8", c.Hashes)
	}
	if c.CountersPerKmer <= 0 {
		return fmt.Errorf("kmer: counters per k-mer must be positive")
	}
	if c.CounterEntryBytes <= 0 {
		return fmt.Errorf("kmer: counter entry bytes must be positive")
	}
	if c.KmersPerTask <= 0 {
		return fmt.Errorf("kmer: k-mers per task must be positive")
	}
	return nil
}

// Counts maps canonical k-mers to exact counts (only k-mers seen >= 2 times,
// per BFCounter semantics: the first sighting parks in the Bloom filter).
type Counts map[genome.Kmer]uint32

// CountExact is the reference implementation: exact counting of canonical
// k-mers occurring at least twice. Tests compare both flows against it.
//
// It shares no code with the flows' rolling pass (appendCanonical): each
// k-mer is read off one packed word of its read (wordKmers), every
// occurrence is radix-sorted so that equal k-mers form runs, and only runs
// of two or more reach the map.
func CountExact(reads []genome.Read, k int) Counts {
	n := 0
	for i := range reads {
		n += max(0, reads[i].Seq.Len()-k+1)
	}
	all := make([]genome.Kmer, 0, n)
	for i := range reads {
		all = wordKmers(all, reads[i].Seq, k)
	}
	all = radixSort(all, make([]genome.Kmer, len(all)), 2*k)
	repeated := 0
	for a := 1; a < len(all); a++ {
		if all[a] == all[a-1] && (a == 1 || all[a-1] != all[a-2]) {
			repeated++
		}
	}
	out := make(Counts, repeated)
	for a := 0; a < len(all); {
		b := a + 1
		for b < len(all) && all[b] == all[a] {
			b++
		}
		if b-a >= 2 {
			out[all[a]] = uint32(b - a)
		}
		a = b
	}
	return out
}

// wordKmers appends the canonical k-mer at each position of seq to dst.
// The k bases at position j are the low 2k bits of seq.Word(j), first base
// lowest; reversing the bases (genome.ReverseBases) makes that the forward
// k-mer, and complementing every base in place makes it the reverse
// complement. Positions in the last 32 bases shift one word read at the
// tail instead.
func wordKmers(dst []genome.Kmer, seq *genome.Sequence, k int) []genome.Kmer {
	n := seq.Len()
	mask := uint64(1)<<(2*k) - 1 // all ones at k = 32
	shift := 64 - 2*k
	last := max(n-32, 0)
	tail := seq.Word(last)
	for j := 0; j+k <= n; j++ {
		w := tail >> (2 * max(j-last, 0))
		if j < last {
			w = seq.Word(j)
		}
		w &= mask
		dst = append(dst, min(genome.Kmer(genome.ReverseBases(w)>>shift), genome.Kmer(^w&mask)))
	}
	return dst
}

// radixSort sorts keys, which fit in their low width bits, with a
// least-significant-digit radix sort on bytes, scattering through buf (as
// long as keys). It returns whichever of the two holds the result. A byte
// that every key shares costs no pass.
func radixSort(keys, buf []genome.Kmer, width int) []genome.Kmer {
	if len(keys) < 2 {
		return keys
	}
	passes := (width + 7) / 8
	var counts [8][256]int
	for _, x := range keys {
		for p := range passes {
			counts[p][byte(x>>(8*p))]++
		}
	}
	for p := range passes {
		c := &counts[p]
		shift := 8 * p
		if c[byte(keys[0]>>shift)] == len(keys) {
			continue
		}
		sum := 0
		for d, m := range c {
			c[d] = sum
			sum += m
		}
		for _, x := range keys {
			d := byte(x >> shift)
			buf[c[d]] = x
			c[d]++
		}
		keys, buf = buf, keys
	}
	return keys
}
