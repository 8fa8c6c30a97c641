package genome

import (
	"strings"
	"testing"
	"testing/quick"

	"beacon/internal/sim"
)

func TestSequenceRoundTrip(t *testing.T) {
	for _, s := range []string{"", "A", "ACGT", "TTTTTTTTT", "GATTACAGATTACA"} {
		seq, err := FromString(s)
		if err != nil {
			t.Fatalf("FromString(%q): %v", s, err)
		}
		if got := seq.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
		if seq.Len() != len(s) {
			t.Errorf("Len(%q) = %d", s, seq.Len())
		}
	}
}

func TestFromStringRejectsInvalid(t *testing.T) {
	if _, err := FromString("ACGN"); err == nil {
		t.Error("expected error for N")
	}
	if _, err := FromString("ACG T"); err == nil {
		t.Error("expected error for space")
	}
}

func TestSequenceLowercase(t *testing.T) {
	seq, err := FromString("acgt")
	if err != nil {
		t.Fatalf("FromString: %v", err)
	}
	if seq.String() != "ACGT" {
		t.Errorf("lowercase parse = %q", seq.String())
	}
}

func TestSetAtAllOffsets(t *testing.T) {
	// Exercise every packing offset within a byte.
	seq := NewSequence(9)
	bases := []Base{T, G, C, A, T, A, G, C, T}
	for i, b := range bases {
		seq.Set(i, b)
	}
	for i, b := range bases {
		if seq.At(i) != b {
			t.Errorf("At(%d) = %v, want %v", i, seq.At(i), b)
		}
	}
}

func TestReverseComplement(t *testing.T) {
	seq := MustFromString("AACGT")
	rc := seq.ReverseComplement()
	if got := rc.String(); got != "ACGTT" {
		t.Errorf("rc = %q, want ACGTT", got)
	}
	// Involution.
	if !rc.ReverseComplement().Equal(seq) {
		t.Error("reverse complement is not an involution")
	}
}

func TestReverseComplementInvolutionProperty(t *testing.T) {
	f := func(raw []byte) bool {
		seq := NewSequence(len(raw))
		for i, b := range raw {
			seq.Set(i, Base(b&3))
		}
		return seq.ReverseComplement().ReverseComplement().Equal(seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSlice(t *testing.T) {
	seq := MustFromString("ACGTACGT")
	sub := seq.Slice(2, 6)
	if got := sub.String(); got != "GTAC" {
		t.Errorf("slice = %q, want GTAC", got)
	}
	if got := seq.Slice(0, 0).Len(); got != 0 {
		t.Errorf("empty slice len = %d", got)
	}
}

func TestSliceOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustFromString("ACGT").Slice(2, 10)
}

func TestPackedBytes(t *testing.T) {
	if got := NewSequence(9).PackedBytes(); got != 3 {
		t.Errorf("PackedBytes(9) = %d, want 3", got)
	}
	if got := NewSequence(8).PackedBytes(); got != 2 {
		t.Errorf("PackedBytes(8) = %d, want 2", got)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	cfg := DefaultSyntheticConfig(5000, 99)
	a, err := Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	b, err := Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if !a.Equal(b) {
		t.Error("same config produced different genomes")
	}
}

func TestSynthesizeGCContent(t *testing.T) {
	cfg := DefaultSyntheticConfig(200000, 3)
	cfg.RepeatFraction = 0 // isolate the base composition
	g, err := Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	gc := 0
	for i := 0; i < g.Len(); i++ {
		if b := g.At(i); b == G || b == C {
			gc++
		}
	}
	frac := float64(gc) / float64(g.Len())
	if frac < cfg.GCContent-0.02 || frac > cfg.GCContent+0.02 {
		t.Errorf("GC fraction = %.3f, want ~%.2f", frac, cfg.GCContent)
	}
}

func TestSynthesizeValidation(t *testing.T) {
	if _, err := Synthesize(SyntheticConfig{Length: 0, GCContent: 0.4}); err == nil {
		t.Error("expected error for zero length")
	}
	if _, err := Synthesize(SyntheticConfig{Length: 10, GCContent: 1.5}); err == nil {
		t.Error("expected error for GC out of range")
	}
	if _, err := Synthesize(SyntheticConfig{Length: 10, GCContent: 0.4, RepeatFraction: -1}); err == nil {
		t.Error("expected error for negative repeat fraction")
	}
}

func TestSpeciesGenomeSizesScale(t *testing.T) {
	pt, err := SpeciesGenome(PinusTaeda, 100)
	if err != nil {
		t.Fatalf("SpeciesGenome: %v", err)
	}
	nf, err := SpeciesGenome(NeoceratodusForsteri, 100)
	if err != nil {
		t.Fatalf("SpeciesGenome: %v", err)
	}
	if pt.Len() != 2200 || nf.Len() != 3400 {
		t.Errorf("sizes Pt=%d Nf=%d, want 2200, 3400", pt.Len(), nf.Len())
	}
	if _, err := SpeciesGenome(Species(99), 10); err == nil {
		t.Error("expected error for unknown species")
	}
	if _, err := SpeciesGenome(PinusTaeda, 0); err == nil {
		t.Error("expected error for zero scale")
	}
}

func TestSpeciesString(t *testing.T) {
	want := []string{"Pt", "Pg", "Ss", "Am", "Nf"}
	for i, sp := range SeedingSpecies() {
		if sp.String() != want[i] {
			t.Errorf("species %d = %q, want %q", i, sp.String(), want[i])
		}
	}
	if !strings.Contains(Species(42).String(), "42") {
		t.Error("out-of-range species should render numerically")
	}
}

func TestSampleReadsGroundTruth(t *testing.T) {
	ref, err := Synthesize(DefaultSyntheticConfig(10000, 5))
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	cfg := DefaultReadConfig(200, 7)
	cfg.ErrorRate = 0 // exact reads should match the reference verbatim
	reads, err := SampleReads(ref, cfg)
	if err != nil {
		t.Fatalf("SampleReads: %v", err)
	}
	if len(reads) != 200 {
		t.Fatalf("got %d reads, want 200", len(reads))
	}
	for i, r := range reads {
		want := ref.Slice(r.Origin, r.Origin+cfg.Length)
		got := r.Seq
		if r.ReverseStrand {
			got = got.ReverseComplement()
		}
		if !got.Equal(want) {
			t.Fatalf("read %d does not match reference at origin %d", i, r.Origin)
		}
		if r.Errors != 0 {
			t.Fatalf("read %d has %d errors with rate 0", i, r.Errors)
		}
	}
}

func TestSampleReadsErrorModel(t *testing.T) {
	ref, _ := Synthesize(DefaultSyntheticConfig(5000, 5))
	cfg := DefaultReadConfig(500, 11)
	cfg.ErrorRate = 0.05
	reads, err := SampleReads(ref, cfg)
	if err != nil {
		t.Fatalf("SampleReads: %v", err)
	}
	total := 0
	for _, r := range reads {
		total += r.Errors
	}
	// Expect ~0.05 * 100 * 500 = 2500 errors; allow wide tolerance.
	if total < 1800 || total > 3200 {
		t.Errorf("total injected errors = %d, want ~2500", total)
	}
}

func TestSampleReadsValidation(t *testing.T) {
	ref, _ := Synthesize(DefaultSyntheticConfig(50, 5))
	if _, err := SampleReads(ref, ReadConfig{Count: 1, Length: 100}); err == nil {
		t.Error("expected error for read longer than reference")
	}
	if _, err := SampleReads(ref, ReadConfig{Count: -1, Length: 10}); err == nil {
		t.Error("expected error for negative count")
	}
	if _, err := SampleReads(ref, ReadConfig{Count: 1, Length: 0}); err == nil {
		t.Error("expected error for zero length")
	}
	if _, err := SampleReads(ref, ReadConfig{Count: 1, Length: 10, ErrorRate: 2}); err == nil {
		t.Error("expected error for error rate out of range")
	}
}

func TestKmerPackUnpack(t *testing.T) {
	seq := MustFromString("ACGTAC")
	m := KmerAt(seq, 0, 4)
	if got := m.String(4); got != "ACGT" {
		t.Errorf("kmer = %q, want ACGT", got)
	}
	m2 := KmerAt(seq, 2, 4)
	if got := m2.String(4); got != "GTAC" {
		t.Errorf("kmer = %q, want GTAC", got)
	}
}

func TestKmerReverseComplement(t *testing.T) {
	seq := MustFromString("AACG")
	m := KmerAt(seq, 0, 4)
	rc := m.ReverseComplement(4)
	if got := rc.String(4); got != "CGTT" {
		t.Errorf("rc = %q, want CGTT", got)
	}
}

func TestKmerCanonicalMatchesStrands(t *testing.T) {
	// A k-mer and its reverse complement must canonicalize identically.
	rng := sim.NewRNG(13)
	for trial := 0; trial < 200; trial++ {
		k := 3 + rng.Intn(29)
		seq := NewSequence(k)
		for i := 0; i < k; i++ {
			seq.Set(i, Base(rng.Intn(4)))
		}
		m := KmerAt(seq, 0, k)
		rc := m.ReverseComplement(k)
		if m.Canonical(k) != rc.Canonical(k) {
			t.Fatalf("canonical mismatch for %s (k=%d)", m.String(k), k)
		}
	}
}

func TestKmerAtPanics(t *testing.T) {
	seq := MustFromString("ACGT")
	for _, fn := range []func(){
		func() { KmerAt(seq, 0, 33) },
		func() { KmerAt(seq, 2, 4) },
		func() { KmerAt(seq, -1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestBaseComplement(t *testing.T) {
	pairs := []struct{ b, want Base }{{A, T}, {C, G}, {G, C}, {T, A}}
	for _, p := range pairs {
		if p.b.Complement() != p.want {
			t.Errorf("complement(%c) = %c, want %c", p.b.Char(), p.b.Complement().Char(), p.want.Char())
		}
	}
}

// synthesizeReference is Synthesize as first written: one closure call per
// base drawing through rng.Float64, stored with a read-modify-write Set.
// The packed generator must match it base for base.
func synthesizeReference(cfg SyntheticConfig) *Sequence {
	rng := sim.NewRNG(cfg.Seed)
	seq := NewSequence(cfg.Length)
	randBase := func() Base {
		if rng.Float64() < cfg.GCContent {
			if rng.Float64() < 0.5 {
				return G
			}
			return C
		}
		if rng.Float64() < 0.5 {
			return A
		}
		return T
	}
	for i := 0; i < cfg.Length; i++ {
		seq.Set(i, randBase())
	}
	if cfg.RepeatFraction > 0 && cfg.RepeatLen > 0 && cfg.Length > 2*cfg.RepeatLen {
		target := int(float64(cfg.Length) * cfg.RepeatFraction)
		covered := 0
		for covered < target {
			src := rng.Intn(cfg.Length - cfg.RepeatLen)
			dst := rng.Intn(cfg.Length - cfg.RepeatLen)
			for j := 0; j < cfg.RepeatLen; j++ {
				seq.Set(dst+j, seq.At(src+j))
			}
			covered += cfg.RepeatLen
		}
	}
	return seq
}

// TestSynthesizeMatchesFloatReference covers GC contents whose p*2^53 is an
// integer (0.5, 0.25) and ones whose is not (0.41, 0.3, 0.1), odd lengths
// that end mid-byte, repeat blocks shorter than a word and none at all.
func TestSynthesizeMatchesFloatReference(t *testing.T) {
	for _, gc := range []float64{0.5, 0.25, 0.41, 0.3, 0.1, 1e-9, 0.999999} {
		for _, n := range []int{1, 3, 4, 37, 1001, 20_000} {
			for _, rep := range []struct {
				frac float64
				len  int
			}{{0, 0}, {0.35, 300}, {0.5, 7}} {
				cfg := SyntheticConfig{Length: n, Seed: uint64(n) * 31, RepeatFraction: rep.frac, RepeatLen: rep.len, GCContent: gc}
				got, err := Synthesize(cfg)
				if err != nil {
					t.Fatalf("%+v: %v", cfg, err)
				}
				if want := synthesizeReference(cfg); !got.Equal(want) {
					t.Fatalf("%+v: packed generator diverged from the Float64 reference", cfg)
				}
			}
		}
	}
}

// TestGCThresholdExact pins drawThreshold, the integer test Synthesize
// uses in place of rng.Float64() < p, at the draws either side of the
// threshold, where a rounding slip would show.
func TestGCThresholdExact(t *testing.T) {
	for _, p := range []float64{0.5, 0.41, 0.3, 0.1, 1e-300, 1 - 1.0/(1<<53), 0.7} {
		th := drawThreshold(p)
		for x := th - 2; x <= th+2; x++ {
			if x >= 1<<53 {
				continue
			}
			if float64(x)/(1<<53) < p != (x < th) {
				t.Errorf("p=%v x=%d: float and integer tests disagree", p, x)
			}
			if x < th != ((x-th)>>63 == 1) {
				t.Errorf("p=%v x=%d: wrap test disagrees with x < threshold", p, x)
			}
		}
	}
}

// TestWordMatchesAt checks Word against At at every offset, including
// offsets past either end, and ReverseBases against KmerAt.
func TestWordMatchesAt(t *testing.T) {
	rng := sim.NewRNG(5)
	for _, n := range []int{0, 1, 31, 32, 33, 64, 100, 131} {
		seq := NewSequence(n)
		for i := 0; i < n; i++ {
			seq.Set(i, Base(rng.Intn(4)))
		}
		for i := -40; i <= n+4; i++ {
			w := seq.Word(i)
			for j := 0; j < 32; j++ {
				want := A
				if p := i + j; p >= 0 && p < n {
					want = seq.At(p)
				}
				if got := Base(w >> (2 * j) & 3); got != want {
					t.Fatalf("n=%d Word(%d) base %d = %v, want %v", n, i, j, got, want)
				}
			}
			// Reversed, the word is the 32-mer there, first base highest.
			if i >= 0 && i+32 <= n && ReverseBases(w) != uint64(KmerAt(seq, i, 32)) {
				t.Fatalf("n=%d: ReverseBases(Word(%d)) = %#x, want KmerAt %#x", n, i, ReverseBases(w), uint64(KmerAt(seq, i, 32)))
			}
		}
	}
}

// paste's word copy of non-overlapping windows equals the base loop for
// every source and destination alignment, in both directions, and an
// overlapping window keeps the base loop's period propagation.
func TestPasteMatchesBaseLoop(t *testing.T) {
	rng := sim.NewRNG(12)
	orig := NewSequence(1000)
	for i := 0; i < orig.Len(); i++ {
		orig.Set(i, Base(rng.Intn(4)))
	}
	for _, n := range []int{1, 31, 32, 33, 300} {
		for a := 0; a < 4; a++ {
			for b := 0; b < 4; b++ {
				for _, w := range [][2]int{
					{8 + a, 400 + b},             // dst after src
					{400 + a, 8 + b},             // dst before src
					{8 + a, 8 + b + n/2},         // overlapping, dst > src
					{8 + a + n/2 + 4, 8 + b + 4}, // overlapping, dst < src
				} {
					src, dst := w[0], w[1]
					got, want := orig.Slice(0, orig.Len()), orig.Slice(0, orig.Len())
					got.paste(dst, src, n)
					for j := 0; j < n; j++ {
						want.Set(dst+j, want.At(src+j))
					}
					if !got.Equal(want) {
						t.Fatalf("paste(dst %d, src %d, n %d) differs from the base loop", dst, src, n)
					}
				}
			}
		}
	}
}

// BenchmarkSynthesize generates the Pt stand-in at the scale the build
// benchmarks use.
func BenchmarkSynthesize(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SpeciesGenome(PinusTaeda, 8_000); err != nil {
			b.Fatal(err)
		}
	}
}
