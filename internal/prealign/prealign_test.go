package prealign

import (
	"testing"

	"beacon/internal/genome"
	"beacon/internal/sim"
	"beacon/internal/trace"
)

func TestEditDistanceKnown(t *testing.T) {
	cases := []struct {
		a, b string
		band int
		want int
	}{
		{"ACGT", "ACGT", 3, 0},
		{"ACGT", "ACGA", 3, 1},
		{"ACGT", "AGT", 3, 1},   // deletion
		{"ACGT", "AACGT", 3, 1}, // insertion
		{"AAAA", "TTTT", 3, 4},  // exceeds band -> band+1
		{"ACGTACGT", "TGCATGCA", 2, 3},
		{"", "", 2, 0},
		{"A", "", 2, 1},
	}
	for _, c := range cases {
		a, b := genome.MustFromString(c.a), genome.MustFromString(c.b)
		got := EditDistance(a, b, c.band)
		want := c.want
		if want > c.band {
			want = c.band + 1
		}
		if got != want {
			t.Errorf("EditDistance(%q,%q,band=%d) = %d, want %d", c.a, c.b, c.band, got, want)
		}
	}
}

func TestEditDistanceSymmetric(t *testing.T) {
	rng := sim.NewRNG(1)
	for trial := 0; trial < 100; trial++ {
		la, lb := 10+rng.Intn(30), 10+rng.Intn(30)
		a, b := genome.NewSequence(la), genome.NewSequence(lb)
		for i := 0; i < la; i++ {
			a.Set(i, genome.Base(rng.Intn(4)))
		}
		for i := 0; i < lb; i++ {
			b.Set(i, genome.Base(rng.Intn(4)))
		}
		if EditDistance(a, b, 8) != EditDistance(b, a, 8) {
			t.Fatalf("edit distance asymmetric for %s / %s", a, b)
		}
	}
}

// The filter's central guarantee: it never rejects a pair whose banded edit
// distance is within the threshold (no false rejections).
func TestFilterIsLenient(t *testing.T) {
	ref, err := genome.Synthesize(genome.DefaultSyntheticConfig(20000, 8))
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	rng := sim.NewRNG(23)
	const e = 5
	checked := 0
	for trial := 0; trial < 400; trial++ {
		l := 100
		pos := rng.Intn(ref.Len() - l)
		read := ref.Slice(pos, pos+l)
		// Inject up to e random substitutions.
		nmut := rng.Intn(e + 1)
		for m := 0; m < nmut; m++ {
			i := rng.Intn(l)
			read.Set(i, genome.Base(rng.Intn(4)))
		}
		window := ref.Slice(pos, min(pos+l+e, ref.Len()))
		ed := EditDistance(read, window, e)
		if ed > e {
			continue // mutation landed awkwardly; not a within-threshold pair
		}
		checked++
		if _, ok := Filter(read, ref, pos, e); !ok {
			t.Fatalf("false rejection: pos=%d edits=%d", pos, ed)
		}
	}
	if checked < 100 {
		t.Fatalf("only %d within-threshold pairs checked", checked)
	}
}

func TestFilterRejectsRandomDecoys(t *testing.T) {
	ref, _ := genome.Synthesize(genome.DefaultSyntheticConfig(50000, 9))
	rng := sim.NewRNG(29)
	const e = 5
	rejected, total := 0, 0
	for trial := 0; trial < 300; trial++ {
		l := 100
		// A read from one place tested against an unrelated place.
		src := rng.Intn(ref.Len() - l)
		dst := rng.Intn(ref.Len() - l)
		if src == dst {
			continue
		}
		read := ref.Slice(src, src+l)
		total++
		if _, ok := Filter(read, ref, dst, e); !ok {
			rejected++
		}
	}
	// Shouji rejects the overwhelming majority of random decoys; repeats
	// make a small accept rate legitimate.
	if rate := float64(rejected) / float64(total); rate < 0.90 {
		t.Errorf("decoy rejection rate %.3f, want >= 0.90", rate)
	}
}

func TestFilterExactMatchAccepted(t *testing.T) {
	ref, _ := genome.Synthesize(genome.DefaultSyntheticConfig(1000, 2))
	read := ref.Slice(100, 200)
	mm, ok := Filter(read, ref, 100, 0)
	if !ok || mm != 0 {
		t.Errorf("exact match: mm=%d ok=%v, want 0,true", mm, ok)
	}
}

func TestFilterEmptyRead(t *testing.T) {
	ref, _ := genome.Synthesize(genome.DefaultSyntheticConfig(100, 2))
	if _, ok := Filter(genome.NewSequence(0), ref, 10, 3); !ok {
		t.Error("empty read rejected")
	}
}

func TestFilterWindowEdges(t *testing.T) {
	// Candidates at the very start/end of the reference must not panic and
	// should reject when the read runs off the end.
	ref, _ := genome.Synthesize(genome.DefaultSyntheticConfig(200, 3))
	read := ref.Slice(0, 100)
	if _, ok := Filter(read, ref, 0, 5); !ok {
		t.Error("read at position 0 rejected")
	}
	// Off-the-end candidate: nearly all comparisons out of range.
	if _, ok := Filter(read, ref, 150, 5); ok {
		t.Error("read overflowing the reference accepted")
	}
}

func TestFilterReadsWorkload(t *testing.T) {
	ref, _ := genome.Synthesize(genome.DefaultSyntheticConfig(30000, 4))
	rcfg := genome.DefaultReadConfig(40, 6)
	rcfg.ErrorRate = 0.01
	rcfg.ReverseFraction = 0
	reads, err := genome.SampleReads(ref, rcfg)
	if err != nil {
		t.Fatalf("SampleReads: %v", err)
	}
	cfg := DefaultConfig()
	results, wl, err := FilterReads(ref, reads, cfg, 99, "pa")
	if err != nil {
		t.Fatalf("FilterReads: %v", err)
	}
	if err := wl.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	accepted, totalCands := 0, 0
	for ri, res := range results {
		if len(res.Candidates) != cfg.Candidates {
			t.Fatalf("read %d has %d candidates, want %d", ri, len(res.Candidates), cfg.Candidates)
		}
		// The first candidate is the true origin (forward reads) and must be
		// accepted given the low error rate.
		if !res.Candidates[0].Accepted {
			// With 1% errors a read can exceed 5 edits; verify before failing.
			read := reads[ri].Seq
			if reads[ri].Errors <= cfg.MaxEdits {
				t.Errorf("read %d: true origin rejected with %d errors (read len %d)",
					ri, reads[ri].Errors, read.Len())
			}
		}
		for _, c := range res.Candidates {
			totalCands++
			if c.Accepted {
				accepted++
			}
		}
	}
	// Decoys dominate; most candidates must be filtered out.
	if rate := float64(accepted) / float64(totalCands); rate > 0.5 {
		t.Errorf("accept rate %.2f, expected mostly rejections", rate)
	}
	// Trace shape: streaming, spatial, coarse accesses only.
	for _, task := range wl.Tasks {
		if task.Engine != trace.EnginePreAlign {
			t.Fatalf("engine %v", task.Engine)
		}
		for _, s := range task.Steps {
			if !s.Spatial {
				t.Fatal("pre-alignment access not spatial")
			}
			if s.Space != trace.SpaceReads && s.Space != trace.SpaceReference {
				t.Fatalf("unexpected space %v", s.Space)
			}
		}
		if len(task.Steps) != 1+cfg.Candidates {
			t.Fatalf("task has %d steps, want %d", len(task.Steps), 1+cfg.Candidates)
		}
	}
}

func TestFilterReadsValidation(t *testing.T) {
	ref, _ := genome.Synthesize(genome.DefaultSyntheticConfig(1000, 4))
	reads, _ := genome.SampleReads(ref, genome.DefaultReadConfig(2, 1))
	if _, _, err := FilterReads(ref, reads, Config{MaxEdits: -1, Candidates: 2}, 1, "x"); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, _, err := FilterReads(ref, reads, Config{MaxEdits: 3, Candidates: 0}, 1, "x"); err == nil {
		t.Error("zero candidates accepted")
	}
	if _, _, err := FilterReads(ref, nil, DefaultConfig(), 1, "x"); err == nil {
		t.Error("empty reads accepted")
	}
}
