// Command perfbench is the BEACON simulator's benchmark. One invocation
// runs one workload for a fixed time, checks every operation's output and
// prints one JSON result line:
//
//	go run . -workload replay|build|daemon -seed N -seconds S -trace 0|1
//
// With -trace 0 it reports the end-to-end metrics (host time, measured
// with tracing off). With -trace 1 it reports per-layer metrics from spans
// the benchmark records around every call it makes into a layer, plus the
// tracing overhead. NOTES.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupRepeats is how many times set-up runs per invocation; setup_s is
// their median, and the last set-up's state is the one measured.
const setupRepeats = 3

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings shared by every workload.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	workdir string
}

// workload is one benchmark workload: setUp prepares what run measures,
// and tearDown releases it (a no-op on a workload not set up).
type workload interface {
	setUp(o options) error
	run(o options, tr *tracer) (*runStats, error)
	tearDown()
}

var workloads = map[string]func() workload{
	"replay": func() workload { return &replayWorkload{} },
	"build":  func() workload { return &buildWorkload{} },
	"daemon": func() workload { return &daemonWorkload{} },
}

func main() {
	name := flag.String("workload", "", "workload to run: replay, build or daemon")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 records per-layer spans and reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/work", "directory for temporary caches and the span dump")
	flag.Parse()

	res, err := benchmark(*name, options{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, workdir: *workdir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// benchmark runs one workload end to end and assembles its result.
func benchmark(name string, o options) (*result, error) {
	mk, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.workdir = dir

	w := mk()
	defer w.tearDown()
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		w.tearDown()
		runtime.GC()
		start := time.Now()
		if err := w.setUp(o); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	if !o.trace {
		st, err := w.run(o, nil)
		if err != nil {
			return nil, err
		}
		return endToEnd(st, median(setups))
	}

	// Traced invocation: an untraced window and a traced one of half the
	// length each, so the overhead compares like with like.
	half := o
	half.seconds = o.seconds / 2
	plain, err := w.run(half, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := w.run(half, tr)
	if err != nil {
		return nil, err
	}
	if err := tr.writeFile(filepath.Join(filepath.Dir(dir), name+".spans.jsonl")); err != nil {
		return nil, err
	}
	m := layerMetrics(traced, tr)
	m["tracing.overhead_pct"] = metric{100 * (1 - traced.stepsPerSec()/plain.stepsPerSec()), "%"}
	return &result{
		Correct:   plain.failed == 0 && traced.failed == 0,
		Attempted: plain.attempted() + traced.attempted(),
		Failed:    plain.failed + traced.failed,
		Metrics:   m,
	}, nil
}

// endToEnd turns an untraced run into the end-to-end metrics.
func endToEnd(st *runStats, setup float64) (*result, error) {
	ms := st.latenciesMS()
	p50, err := percentile(ms, 0.50)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(ms, 0.90)
	if err != nil {
		return nil, err
	}
	return &result{
		Correct:   st.failed == 0,
		Attempted: st.attempted(),
		Failed:    st.failed,
		Metrics: map[string]metric{
			"setup_s":         {setup, "s"},
			"steps_per_s":     {st.stepsPerSec(), "1/s"},
			"op_p50_ms":       {p50, "ms"},
			"op_p90_ms":       {p90, "ms"},
			"alloc_mb_per_op": {float64(st.allocBytes) / 1e6 / float64(st.attempted()), "MB"},
		},
	}, nil
}
