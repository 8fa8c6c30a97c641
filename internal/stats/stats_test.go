package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestGeoMean(t *testing.T) {
	t.Parallel()
	g, err := GeoMean([]float64{2, 8})
	if err != nil || !almost(g, 4) {
		t.Errorf("GeoMean(2,8) = %g, %v", g, err)
	}
	g, err = GeoMean([]float64{5})
	if err != nil || !almost(g, 5) {
		t.Errorf("GeoMean(5) = %g, %v", g, err)
	}
	if _, err := GeoMean(nil); err == nil {
		t.Error("empty geomean accepted")
	}
	if _, err := GeoMean([]float64{1, 0}); err == nil {
		t.Error("zero value accepted")
	}
	if _, err := GeoMean([]float64{1, -2}); err == nil {
		t.Error("negative value accepted")
	}
	// NaN compares false against everything, so it would slip through a
	// plain x <= 0 check and poison the whole mean.
	if _, err := GeoMean([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := GeoMean([]float64{1, math.Inf(1)}); err == nil {
		t.Error("+Inf accepted")
	}
	if _, err := GeoMean([]float64{1, math.Inf(-1)}); err == nil {
		t.Error("-Inf accepted")
	}
}

func TestMustGeoMeanPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustGeoMean([]float64{-1})
}

// Property: geomean lies between min and max of the inputs.
func TestGeoMeanBoundedProperty(t *testing.T) {
	t.Parallel()
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r) + 1
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g, err := GeoMean(xs)
		return err == nil && g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMeanStdDev(t *testing.T) {
	t.Parallel()
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if !almost(Mean([]float64{1, 2, 3}), 2) {
		t.Error("Mean broken")
	}
	if StdDev(nil) != 0 {
		t.Error("StdDev(nil) != 0")
	}
	if !almost(StdDev([]float64{2, 2, 2}), 0) {
		t.Error("constant stddev != 0")
	}
	if !almost(StdDev([]float64{1, 3}), 1) {
		t.Error("StdDev(1,3) != 1")
	}
}

func TestCoefVar(t *testing.T) {
	t.Parallel()
	if CoefVar([]float64{0, 0}) != 0 {
		t.Error("zero-mean CV != 0")
	}
	if !almost(CoefVar([]float64{1, 3}), 0.5) {
		t.Errorf("CV(1,3) = %g, want 0.5", CoefVar([]float64{1, 3}))
	}
}

func TestSpeedup(t *testing.T) {
	t.Parallel()
	if !almost(Speedup(10, 2), 5) {
		t.Error("Speedup(10,2) != 5")
	}
	for _, tc := range [][2]float64{
		{0, 1}, {1, 0}, {-1, 1}, {1, -1},
		{math.NaN(), 1}, {1, math.NaN()},
		{math.Inf(1), 1}, {1, math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Speedup(%g, %g) did not panic", tc[0], tc[1])
				}
			}()
			Speedup(tc[0], tc[1])
		}()
	}
}
