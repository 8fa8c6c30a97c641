package fmindex

import (
	"strings"
	"testing"

	"beacon/internal/genome"
)

// BenchmarkFMBuild builds the FM-index over the Pt stand-in at the scale
// the build benchmarks use, and over a 176 kbp (AC)^n text, the periodic
// worst case whose LMS sort exhausts its key-load budget and falls back to
// SA-IS.
func BenchmarkFMBuild(b *testing.B) {
	pt, err := genome.SpeciesGenome(genome.PinusTaeda, 8_000)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		ref  *genome.Sequence
	}{
		{"Pt-8000", pt},
		{"AC-176k", genome.MustFromString(strings.Repeat("AC", pt.Len()/2))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(bc.ref); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
