// Package stats provides the small numeric helpers the evaluation harness
// uses: geometric means (the paper's cross-dataset aggregation), speedup
// arithmetic, and simple distribution summaries.
package stats

import (
	"fmt"
	"math"
)

// GeoMean returns the geometric mean of xs. It returns an error if xs is
// empty or contains a non-positive value (a geomean over ratios requires
// positive inputs).
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: geomean of empty slice")
	}
	sum := 0.0
	for _, x := range xs {
		// NaN fails no ordering comparison, so test it explicitly.
		if math.IsNaN(x) || math.IsInf(x, 0) || x <= 0 {
			return 0, fmt.Errorf("stats: geomean requires positive finite values, got %g", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// MustGeoMean is GeoMean for aggregation sites where inputs are speedups
// computed by the harness itself; it panics on invalid input because that
// indicates a harness bug.
func MustGeoMean(xs []float64) float64 {
	g, err := GeoMean(xs)
	if err != nil {
		panic(err)
	}
	return g
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	v := 0.0
	for _, x := range xs {
		d := x - m
		v += d * d
	}
	return math.Sqrt(v / float64(len(xs)))
}

// CoefVar returns the coefficient of variation (stddev/mean), the chip
// balance metric of Fig. 13. Zero mean yields 0.
func CoefVar(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// Speedup returns base/new — how many times faster `new` is than `base`
// when both are durations/costs. It panics on non-positive, NaN, or
// infinite inputs: a cost that is not a positive finite number means a
// simulation produced garbage, and dividing would silently launder it
// into a plausible-looking ratio.
func Speedup(baseCost, newCost float64) float64 {
	if !(baseCost > 0) || !(newCost > 0) || math.IsInf(baseCost, 1) || math.IsInf(newCost, 1) {
		panic(fmt.Sprintf("stats: speedup of non-positive or non-finite costs %g/%g", baseCost, newCost))
	}
	return baseCost / newCost
}
