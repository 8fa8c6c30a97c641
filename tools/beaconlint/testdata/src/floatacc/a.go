// Package facc exercises float accumulation, diagnosed by the analyzers
// that own it: maporder flags a float that outlives a map range, and
// goroutinescope flags the go statement of a goroutine that sums into
// shared state. Integer sums, sorted-order float sums and loop-local sums
// are not diagnosed.
package facc

import "sort"

// Float accumulation: addition order changes the result bytes, so a float
// that outlives the loop is a sink even when the keys are sorted after.

func floatSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want `map iteration with order-dependent effect \(float accumulation into a variable declared outside the loop\)`
		sum += v
	}
	return sum
}

func floatProduct(m map[string]float64) float64 {
	p := 1.0
	for _, v := range m { // want `map iteration with order-dependent effect \(float accumulation into a variable declared outside the loop\)`
		p *= v
	}
	return p
}

type totals struct{ left float64 }

func floatFieldDrain(t *totals, m map[string]float64) {
	for _, v := range m { // want `map iteration with order-dependent effect \(float accumulation into a variable declared outside the loop\)`
		t.left -= v
	}
}

func floatSumNotExcusedBySort(m map[string]float64) ([]string, float64) {
	var keys []string
	var sum float64
	for k, v := range m { // want `map iteration with order-dependent effect \(append to slice declared outside the loop, float accumulation into a variable declared outside the loop\)`
		keys = append(keys, k)
		sum += v
	}
	sort.Strings(keys)
	return keys, sum
}

func intSumOK(m map[string]int) int {
	n := 0
	for _, v := range m { // integer addition is associative: no diagnostic
		n += v
	}
	return n
}

func sortedFloatSumOK(m map[string]float64, keys []string) float64 {
	var sum float64
	for _, k := range keys { // slice iteration fixes the order
		sum += m[k]
	}
	return sum
}

func loopLocalFloatOK(m map[string]float64) float64 {
	var last float64
	for _, v := range m {
		scratch := 0.0
		scratch += v // loop-local: each iteration's sum is independent
		last = scratch
	}
	return last
}

// A goroutine that sums into shared state is a fan-out like any other;
// completion order would also fix the float addition order.
func goroutineSum(parts []float64) float64 {
	var total float64
	for i := range parts {
		go func(i int) { // want `go statement outside internal/runner`
			total += parts[i]
		}(i)
	}
	return total
}
