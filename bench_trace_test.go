package beacon

// Benchmarks for the streaming trace pipeline: cold workload construction
// (functional kernels + builder), cache-hit construction (decode only),
// and the codec round trip at facade level. The encode/decode micro-
// benchmarks live in internal/trace.

import (
	"testing"

	"beacon/internal/trace"
)

// benchWorkloadCfg is the configuration the trace benchmarks build:
// default laptop scale, the first seeding species.
func benchWorkloadCfg() WorkloadConfig { return DefaultWorkloadConfig(PinusTaeda) }

func BenchmarkWorkloadBuildCold(b *testing.B) {
	cfg := benchWorkloadCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewWorkload(FMSeeding, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadCacheHit(b *testing.B) {
	cfg := benchWorkloadCfg()
	wc, err := OpenWorkloadCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := NewWorkloadCached(FMSeeding, cfg, wc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewWorkloadCached(FMSeeding, cfg, wc); err != nil {
			b.Fatal(err)
		}
	}
	if st := wc.Stats(); st.Hits < int64(b.N) {
		b.Fatalf("benchmark did not hit the cache: %+v", st)
	}
}

func BenchmarkWorkloadEncodeDecode(b *testing.B) {
	wl, err := NewWorkload(FMSeeding, benchWorkloadCfg())
	if err != nil {
		b.Fatal(err)
	}
	data := trace.EncodeWorkload(wl.tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.DecodeWorkload(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data)), "encoded-bytes")
}
