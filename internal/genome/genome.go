// Package genome provides the biological data substrate for the BEACON
// reproduction: 2-bit packed DNA sequences, deterministic synthetic genomes
// standing in for the paper's NCBI datasets, and a sequencing-read sampler
// with a configurable error model.
//
// The paper evaluates on five large plant/animal genomes (Pinus taeda,
// Picea glauca, Sequoia sempervirens, Ambystoma mexicanum, Neoceratodus
// forsteri; 20-34 Gbp) and a 50x-coverage human read set. Those datasets are
// not shippable nor simulatable at full scale; Species below preserves their
// *relative* sizes at a configurable scale factor so the workloads keep the
// paper's cross-dataset shape (bigger genome → bigger index → more DRAM rows
// touched per query).
package genome

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"strings"

	"beacon/internal/sim"
)

// Base is a 2-bit encoded nucleotide.
type Base byte

// The four nucleotides. The encoding (A=0, C=1, G=2, T=3) matches the
// lexicographic order assumed by the FM-index.
const (
	A Base = 0
	C Base = 1
	G Base = 2
	T Base = 3
)

var baseChars = [4]byte{'A', 'C', 'G', 'T'}

// Char returns the ASCII letter for the base.
func (b Base) Char() byte { return baseChars[b&3] }

// BaseFromChar converts an ASCII nucleotide (upper or lower case) to a Base.
// The second result is false for characters outside ACGTacgt.
func BaseFromChar(c byte) (Base, bool) {
	switch c {
	case 'A', 'a':
		return A, true
	case 'C', 'c':
		return C, true
	case 'G', 'g':
		return G, true
	case 'T', 't':
		return T, true
	}
	return 0, false
}

// Complement returns the Watson-Crick complement.
func (b Base) Complement() Base { return 3 - (b & 3) }

// Sequence is a DNA sequence packed 4 bases per byte. Packing matters: the
// simulated DIMMs hold multi-megabase references and the functional kernels
// walk them constantly, so a byte-per-base representation would quadruple the
// working set of the *host* process for no fidelity gain.
type Sequence struct {
	data []byte
	n    int
}

// NewSequence returns an all-A sequence of length n.
func NewSequence(n int) *Sequence {
	if n < 0 {
		panic("genome: negative sequence length")
	}
	return &Sequence{data: make([]byte, (n+3)/4), n: n}
}

// FromString parses an ACGT string. Characters outside ACGT are rejected.
func FromString(s string) (*Sequence, error) {
	seq := NewSequence(len(s))
	for i := 0; i < len(s); i++ {
		b, ok := BaseFromChar(s[i])
		if !ok {
			return nil, fmt.Errorf("genome: invalid base %q at position %d", s[i], i)
		}
		seq.Set(i, b)
	}
	return seq, nil
}

// MustFromString is FromString for test fixtures; it panics on error.
func MustFromString(s string) *Sequence {
	seq, err := FromString(s)
	if err != nil {
		panic(err)
	}
	return seq
}

// Len returns the number of bases.
func (s *Sequence) Len() int { return s.n }

// At returns the base at position i.
func (s *Sequence) At(i int) Base {
	return Base((s.data[i>>2] >> ((i & 3) << 1)) & 3)
}

// Set stores base b at position i.
func (s *Sequence) Set(i int, b Base) {
	shift := uint((i & 3) << 1)
	s.data[i>>2] = s.data[i>>2]&^(3<<shift) | byte(b&3)<<shift
}

// Word returns the 32 bases at positions i..i+31 packed 2 bits each, base
// i in the low two bits: the word-level view the pre-alignment filter XORs
// a read against. Positions outside [0, Len) read as A (0).
func (s *Sequence) Word(i int) uint64 {
	q, r := i>>2, uint(i&3)<<1
	if i >= 0 && i+32 <= s.n && q+9 <= len(s.data) {
		d := s.data[q : q+9]
		// r == 0 shifts the ninth byte out entirely (a Go shift by 64 is 0).
		return binary.LittleEndian.Uint64(d)>>r | uint64(d[8])<<(64-r)
	}
	var w uint64
	for j := 0; j < 32; j++ {
		if p := i + j; p >= 0 && p < s.n {
			w |= uint64(s.At(p)) << (2 * j)
		}
	}
	return w
}

// ReverseBases reverses the order of the 32 bases packed in w, so that a
// Word's first base moves to the top two bits: integer order on the result
// is then lexicographic order on the bases.
func ReverseBases(w uint64) uint64 {
	w = w>>2&0x3333333333333333 | w&0x3333333333333333<<2
	w = w>>4&0x0f0f0f0f0f0f0f0f | w&0x0f0f0f0f0f0f0f0f<<4
	return bits.ReverseBytes64(w)
}

// Slice returns a copy of positions [from, to).
func (s *Sequence) Slice(from, to int) *Sequence {
	if from < 0 || to > s.n || from > to {
		panic(fmt.Sprintf("genome: slice [%d,%d) out of range 0..%d", from, to, s.n))
	}
	out := NewSequence(to - from)
	for i := from; i < to; i++ {
		out.Set(i-from, s.At(i))
	}
	return out
}

// String renders the sequence as an ACGT string.
func (s *Sequence) String() string {
	var sb strings.Builder
	sb.Grow(s.n)
	for i := 0; i < s.n; i++ {
		sb.WriteByte(s.At(i).Char())
	}
	return sb.String()
}

// ReverseComplement returns the reverse complement of the sequence.
func (s *Sequence) ReverseComplement() *Sequence {
	out := NewSequence(s.n)
	for i := 0; i < s.n; i++ {
		out.Set(s.n-1-i, s.At(i).Complement())
	}
	return out
}

// Equal reports whether two sequences have identical contents.
func (s *Sequence) Equal(o *Sequence) bool {
	if s.n != o.n {
		return false
	}
	for i := 0; i < s.n; i++ {
		if s.At(i) != o.At(i) {
			return false
		}
	}
	return true
}

// Bases returns the sequence as an unpacked []Base, for callers that edit
// a sequence base by base (the pre-alignment tests' indel scripts).
func (s *Sequence) Bases() []Base {
	out := make([]Base, s.n)
	for i := range out {
		out[i] = s.At(i)
	}
	return out
}

// PackedBytes returns the size of the packed representation in bytes. This is
// what the simulated DIMMs store.
func (s *Sequence) PackedBytes() int { return len(s.data) }

// SyntheticConfig controls synthetic genome generation.
type SyntheticConfig struct {
	// Length is the genome length in bases.
	Length int
	// Seed makes generation deterministic.
	Seed uint64
	// RepeatFraction is the fraction of the genome covered by copied repeat
	// blocks. Plant genomes (the paper's Pt, Pg, Ss) are extremely
	// repeat-rich; repeats matter because they lengthen FM-index intervals
	// and fatten hash-index buckets, which is what stresses the accelerators.
	RepeatFraction float64
	// RepeatLen is the length of each repeat block.
	RepeatLen int
	// GCContent is the probability of G or C at random positions (0..1).
	GCContent float64
}

// DefaultSyntheticConfig returns a biologically plausible configuration:
// 40% GC, a third of the genome in 300 bp repeats.
func DefaultSyntheticConfig(length int, seed uint64) SyntheticConfig {
	return SyntheticConfig{
		Length:         length,
		Seed:           seed,
		RepeatFraction: 0.35,
		RepeatLen:      300,
		GCContent:      0.41,
	}
}

// drawThreshold returns t such that rng.Float64() < p holds exactly when
// the same draw's top 53 bits x satisfy x < t. Float64 is x/2^53, and for
// an integer x, x/2^53 < p exactly when x < ceil(p*2^53); p*2^53 is exact
// in float64.
func drawThreshold(p float64) uint64 { return uint64(math.Ceil(p * (1 << 53))) }

// synthBases maps Synthesize's two draws (bit 1: G/C, bit 0: the lower
// half of the second draw) to a base.
var synthBases = [4]Base{T, A, C, G}

// Synthesize generates a deterministic synthetic genome.
func Synthesize(cfg SyntheticConfig) (*Sequence, error) {
	if cfg.Length <= 0 {
		return nil, fmt.Errorf("genome: synthetic length must be positive, got %d", cfg.Length)
	}
	if cfg.RepeatFraction < 0 || cfg.RepeatFraction >= 1 {
		return nil, fmt.Errorf("genome: repeat fraction %g out of [0,1)", cfg.RepeatFraction)
	}
	if cfg.GCContent <= 0 || cfg.GCContent >= 1 {
		return nil, fmt.Errorf("genome: GC content %g out of (0,1)", cfg.GCContent)
	}
	rng := sim.NewRNG(cfg.Seed)
	seq := NewSequence(cfg.Length)
	gc, half := drawThreshold(cfg.GCContent), drawThreshold(0.5)
	for i := 0; i < cfg.Length; i += 4 {
		var packed byte
		for j := 0; j < 4 && i+j < cfg.Length; j++ {
			// The first draw picks G/C over A/T, the second the base within
			// the pair. x and the threshold are at most 2^53, so x-t wraps
			// (sets bit 63) exactly when x < t: the random outcomes never
			// reach the branch predictor.
			gcBit := (rng.Uint64()>>11 - gc) >> 63
			halfBit := (rng.Uint64()>>11 - half) >> 63
			packed |= byte(synthBases[gcBit<<1|halfBit]) << (2 * j)
		}
		seq.data[i>>2] = packed
	}
	// Paste repeat blocks: pick a source window, copy it to a destination
	// window, until the requested fraction of bases has been overwritten.
	if cfg.RepeatFraction > 0 && cfg.RepeatLen > 0 && cfg.Length > 2*cfg.RepeatLen {
		target := int(float64(cfg.Length) * cfg.RepeatFraction)
		covered := 0
		for covered < target {
			src := rng.Intn(cfg.Length - cfg.RepeatLen)
			dst := rng.Intn(cfg.Length - cfg.RepeatLen)
			seq.paste(dst, src, cfg.RepeatLen)
			covered += cfg.RepeatLen
		}
	}
	return seq, nil
}

// paste copies the n bases at src to dst base by base, front to back, so
// that a window overlapping its source with dst > src repeats the first
// dst-src bases. Windows that do not overlap are copied 32 bases at a
// time, once dst reaches a byte boundary.
func (s *Sequence) paste(dst, src, n int) {
	j := 0
	if dst+n <= src || src+n <= dst {
		for ; j < n && (dst+j)&3 != 0; j++ {
			s.Set(dst+j, s.At(src+j))
		}
		for ; j+32 <= n; j += 32 {
			binary.LittleEndian.PutUint64(s.data[(dst+j)>>2:], s.Word(src+j))
		}
	}
	for ; j < n; j++ {
		s.Set(dst+j, s.At(src+j))
	}
}

// Species identifies one of the paper's evaluation datasets.
type Species int

// The five genomes used for seeding and pre-alignment plus the human-like
// genome used for k-mer counting (§VI-A, Datasets).
const (
	PinusTaeda Species = iota // Pt
	PiceaGlauca
	SequoiaSempervirens
	AmbystomaMexicanum
	NeoceratodusForsteri
	HumanLike
	numSpecies
)

var speciesNames = [...]string{"Pt", "Pg", "Ss", "Am", "Nf", "Hs"}

// String returns the paper's abbreviation for the species.
func (sp Species) String() string {
	if sp < 0 || sp >= numSpecies {
		return fmt.Sprintf("Species(%d)", int(sp))
	}
	return speciesNames[sp]
}

// SeedingSpecies lists the five genomes used in the seeding and
// pre-alignment experiments, in the paper's order.
func SeedingSpecies() []Species {
	return []Species{PinusTaeda, PiceaGlauca, SequoiaSempervirens, AmbystomaMexicanum, NeoceratodusForsteri}
}

// relativeSize approximates the real assemblies' sizes (Gbp):
// Pt 22, Pg 20, Ss 27, Am 32, Nf 34.
var relativeSize = [...]int{22, 20, 27, 32, 34, 31}

// relativeRepeat captures that the conifer genomes are more repetitive.
var relativeRepeat = [...]float64{0.55, 0.52, 0.50, 0.40, 0.38, 0.30}

// SpeciesGenome synthesizes the scaled stand-in for a species.
// scale is the number of bases per "relative Gbp" (e.g. scale=50_000 gives
// Pt a 1.1 Mbp genome). Generation is deterministic in (species, scale).
func SpeciesGenome(sp Species, scale int) (*Sequence, error) {
	if sp < 0 || sp >= numSpecies {
		return nil, fmt.Errorf("genome: unknown species %d", int(sp))
	}
	if scale <= 0 {
		return nil, fmt.Errorf("genome: scale must be positive, got %d", scale)
	}
	cfg := DefaultSyntheticConfig(relativeSize[sp]*scale, 0xBEAC0+uint64(sp))
	cfg.RepeatFraction = relativeRepeat[sp]
	return Synthesize(cfg)
}
