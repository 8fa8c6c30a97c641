// Package cliutil holds the flag plumbing shared by the beacon commands:
// the -version banner, the -metrics/-trace output files, the -progress job
// log, the -cpuprofile/-memprofile pprof flags, and the workload/platform
// spec flags that compile down to beacon.RunSpec values (the single
// construction path shared with the beaconsimd daemon). It keeps the CLIs'
// flag surfaces identical without any of them importing another.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	beacon "beacon"
	"beacon/internal/obs"
)

// Flags is the shared observability flag set.
type Flags struct {
	// Version prints build information and exits.
	Version bool
	// Metrics is the metrics output path ("" = off). A ".csv" suffix
	// selects CSV, anything else the -metrics-format encoding.
	Metrics string
	// MetricsFormat selects the non-CSV metrics encoding: "json" (the
	// beaconprof artifact format) or "openmetrics" (Prometheus text
	// exposition).
	MetricsFormat string
	// Trace is the Chrome trace_event JSON output path ("" = off).
	Trace string
	// Progress streams one line per finished simulation job to stderr.
	Progress bool
	// Sample is the metrics snapshot interval in simulated cycles
	// (0 = final snapshot only).
	Sample int64
	// TraceCap bounds recorded trace events per simulation job; overflow
	// is dropped and counted in the job's obs.trace_dropped metric.
	TraceCap int
	// CPUProfile / MemProfile are pprof output paths ("" = off).
	CPUProfile string
	MemProfile string
	// Faults names the fault-injection profile ("off", "default", "heavy").
	Faults string
	// FaultSeed seeds the deterministic fault streams.
	FaultSeed uint64
	// WorkloadCache selects the on-disk workload cache: "auto" (the
	// per-user default directory), "off", or an explicit directory.
	WorkloadCache string
}

// Register installs the shared flags on the default flag set; call before
// flag.Parse. traceCap is the command's default per-job trace event bound:
// commands that run one or a few simulations want a large cap (full
// timelines), commands that fan out hundreds of jobs want a small one so
// the merged trace stays loadable in a viewer.
func Register(traceCap int) *Flags {
	f := &Flags{}
	flag.BoolVar(&f.Version, "version", false, "print build information and exit")
	flag.StringVar(&f.Metrics, "metrics", "", "write per-job metrics to `file` (.csv for CSV, else -metrics-format)")
	flag.StringVar(&f.MetricsFormat, "metrics-format", "json", "non-CSV metrics `encoding` (json, openmetrics)")
	flag.StringVar(&f.Trace, "trace", "", "write a Chrome trace_event JSON timeline to `file` (open at https://ui.perfetto.dev)")
	flag.BoolVar(&f.Progress, "progress", false, "stream per-job progress lines to stderr")
	flag.Int64Var(&f.Sample, "sample", 0, "metrics snapshot interval in simulated `cycles` (0 = final snapshot only)")
	flag.IntVar(&f.TraceCap, "tracecap", traceCap, "max trace `events` recorded per simulation job")
	flag.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to `file`")
	flag.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to `file`")
	flag.StringVar(&f.Faults, "faults", "off", "fault-injection `profile` for BEACON platforms (off, default, heavy)")
	flag.Uint64Var(&f.FaultSeed, "fault-seed", 1, "`seed` for the deterministic fault streams")
	flag.StringVar(&f.WorkloadCache, "workload-cache", "auto", "on-disk workload cache `dir` (auto = per-user default, off = disabled)")
	return f
}

// OpenWorkloadCache resolves a -workload-cache flag value: "off" (or
// "false", "no") disables the cache, "auto" (or "") opens the per-user
// default directory, anything else opens that directory. The cache is a
// pure accelerant, so a directory that cannot be opened logs a warning and
// returns nil: the command degrades to cold builds instead of failing.
func OpenWorkloadCache(value string) *beacon.WorkloadCache {
	dir := value
	switch value {
	case "off", "false", "no":
		return nil
	case "auto":
		dir = ""
	}
	wc, err := beacon.OpenWorkloadCache(dir)
	if err != nil {
		log.Printf("workload cache disabled: %v", err)
		return nil
	}
	return wc
}

// HandleVersion prints the build banner and exits when -version was given.
// Call right after flag.Parse.
func (f *Flags) HandleVersion() {
	if !f.Version {
		return
	}
	fmt.Println(obs.ReadBuildInfo())
	os.Exit(0)
}

// Collection returns a fresh obs collection when -metrics or -trace was
// requested, nil otherwise (nil disables all instrumentation).
func (f *Flags) Collection() *obs.Collection {
	if f.Metrics == "" && f.Trace == "" {
		return nil
	}
	return &obs.Collection{SampleEvery: f.Sample, TraceCap: f.TraceCap}
}

// ProgressWriter returns the -progress destination (nil when off).
func (f *Flags) ProgressWriter() io.Writer {
	if !f.Progress {
		return nil
	}
	return os.Stderr
}

// StartProfiles begins CPU profiling when requested and returns a stop
// function that finishes the CPU profile and writes the heap profile. The
// stop function is idempotent and safe to call when profiling is off.
func (f *Flags) StartProfiles() (func(), error) {
	var cpuFile *os.File
	if f.CPUProfile != "" {
		fh, err := os.Create(f.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(fh); err != nil {
			fh.Close()
			return nil, err
		}
		cpuFile = fh
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if f.MemProfile != "" {
			fh, err := os.Create(f.MemProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			runtime.GC() // flush allocations so the heap profile is current
			if err := pprof.WriteHeapProfile(fh); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
			fh.Close()
		}
	}, nil
}

// WriteOutputs dumps the collection to the -metrics and -trace files.
func (f *Flags) WriteOutputs(col *obs.Collection) error {
	if col == nil {
		return nil
	}
	if f.Metrics != "" {
		if err := writeFile(f.Metrics, func(w io.Writer) error {
			if strings.HasSuffix(f.Metrics, ".csv") {
				return col.WriteMetricsCSV(w)
			}
			switch f.MetricsFormat {
			case "", "json":
				return col.WriteMetricsJSON(w)
			case "openmetrics":
				return col.WriteOpenMetrics(w)
			default:
				return fmt.Errorf("unknown -metrics-format %q (want json or openmetrics)", f.MetricsFormat)
			}
		}); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	if f.Trace != "" {
		if err := writeFile(f.Trace, col.WriteChromeTrace); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(fh); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
