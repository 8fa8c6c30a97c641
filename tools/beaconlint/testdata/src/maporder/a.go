// Package mapord exercises the maporder analyzer: order-dependent effects
// under map iteration are diagnosed; the collect-then-sort idiom,
// loop-local writers, and slice iteration are not. Its float-accumulation
// sink is exercised by the floatacc fixture.
package mapord

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"beacon/internal/obs"
	"beacon/internal/sim"
)

func appendOutside(m map[string]int) []string {
	var out []string
	for k := range m { // want `map iteration with order-dependent effect \(append to slice declared outside the loop\)`
		out = append(out, k)
	}
	return out
}

func collectThenSortOK(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // the canonical fix: collect, sort, then use
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeLoop(w io.Writer, m map[string]int) {
	for k, v := range m { // want `map iteration with order-dependent effect \(write to io\.Writer\)`
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

func loopLocalBuilderOK(m map[string]int) int {
	n := 0
	for k := range m { // writer is loop-local scratch: order never escapes
		var sb strings.Builder
		sb.WriteString(k)
		n += sb.Len()
	}
	return n
}

func testFailures(t *testing.T, m map[string]int) {
	for k, v := range m { // want `map iteration with order-dependent effect \(testing log/failure`
		if v < 0 {
			t.Errorf("%s negative", k)
		}
	}
}

func schedule(e *sim.Engine, m map[string]int) {
	for _, v := range m { // want `map iteration with order-dependent effect \(sim\.Engine event scheduling\)`
		e.ScheduleAt(e.Now()+sim.Cycles(v), func() {})
	}
}

func scheduleAtOrNow(e *sim.Engine, m map[string]int) {
	for _, v := range m { // want `map iteration with order-dependent effect \(sim\.Engine event scheduling\)`
		e.ScheduleAtOrNow(sim.Cycle(v), func() {})
	}
}

func post(e *sim.Engine, h sim.Handler, m map[string]int) {
	for _, v := range m { // want `map iteration with order-dependent effect \(sim\.Engine event scheduling\)`
		e.Post(sim.Cycle(v), h, 0)
	}
}

func metrics(o *obs.Obs, m map[string]int) {
	c := o.Registry().Counter("x")
	for range m { // want `map iteration with order-dependent effect \(obs metric/trace emission\)`
		c.Inc()
	}
}

func metricReadOK(o *obs.Obs, m map[string]int) map[string]float64 {
	c := o.Registry().Counter("x")
	vals := map[string]float64{}
	for k := range m { // reads and map writes are order-independent
		vals[k] = float64(c.Value())
	}
	return vals
}

func sliceOK(w io.Writer, xs []int) {
	for _, x := range xs { // slices iterate in index order: no diagnostic
		fmt.Fprintln(w, x)
	}
}
