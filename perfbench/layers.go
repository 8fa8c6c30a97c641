package main

import (
	"strings"
	"time"

	"beacon"
)

// timedSpans are the layer calls whose mean duration per call is reported
// as <name>_ms.
var timedSpans = []string{
	"genome.synth", "genome.sample",
	"fmindex.build", "fmindex.seed", "fmindex.verify",
	"hashindex.build", "hashindex.seed", "hashindex.verify",
	"kmer.count", "kmer.verify",
	"prealign.filter",
	"trace.encode", "trace.decode",
	"wcache.put", "wcache.get",
	"core.run", "baseline.run",
	"server.submit", "server.wait", "server.report", "server.revalidate",
}

// layers are the modules whose self time per op is reported as
// <layer>.self_ms; "bench" is the benchmark's own code around them.
var layers = []string{
	"genome", "fmindex", "hashindex", "kmer", "prealign", "trace", "wcache",
	"core", "baseline", "server", "bench",
}

// kernelAllocs maps each kernel to the span that marks one of its ops.
var kernelAllocs = map[string]string{
	"fmindex": "fmindex.build", "hashindex": "hashindex.build",
	"kmer": "kmer.count", "prealign": "prealign.filter",
}

// shortApp names an application in metric names.
func shortApp(a beacon.Application) string {
	return map[beacon.Application]string{
		beacon.FMSeeding: "fm", beacon.HashSeeding: "hash",
		beacon.KmerCounting: "kmer", beacon.PreAlignment: "prealign",
	}[a]
}

// simCountUnits lists the simulated counts reported per (app, platform)
// with their units: DRAM counts on every platform, CXL counts on the
// BEACON platforms only.
func simCountUnits() map[string]string {
	out := make(map[string]string)
	for _, a := range replayApps {
		for _, p := range platforms {
			pair := "." + shortApp(a.app) + "." + p.Kind.String()
			out["dram.reads"+pair] = "count"
			out["dram.writes"+pair] = "count"
			out["dram.row_hit_ratio"+pair] = "ratio"
			if p.Kind != beacon.DDRBaseline {
				out["cxl.messages"+pair] = "count"
				out["cxl.wire_bytes"+pair] = "bytes"
				out["cxl.useful_ratio"+pair] = "ratio"
			}
		}
	}
	return out
}

// layerUnits maps every per-layer metric to its unit.
func layerUnits() map[string]string {
	u := make(map[string]string)
	for _, s := range timedSpans {
		u[s+"_ms"] = "ms"
	}
	for _, l := range layers {
		u[l+".self_ms"] = "ms"
	}
	for k := range kernelAllocs {
		u[k+".alloc_mb"] = "MB"
	}
	for k, v := range map[string]string{
		"core.alloc_mb": "MB", "baseline.alloc_mb": "MB",
		"trace.encoded_kb": "KB", "wcache.hit_ratio": "ratio",
		"sim.events_per_op": "count", "sim.host_ns_per_event": "ns",
		"server.overhead_ms": "ms", "obs.observe_ms": "ms",
		"server.metrics_kb_per_job": "KB", "server.retained_kb_per_job": "KB",
		"tracing.overhead_pct": "%",
	} {
		u[k] = v
	}
	for k, v := range simCountUnits() {
		u[k] = v
	}
	return u
}

// layerMetrics derives the per-layer metrics of a traced window from its
// spans and the workload's own per-layer values. Layers the workload does
// not call report 0.
func layerMetrics(st *runStats, tr *tracer) map[string]metric {
	ops := float64(st.attempted())
	tot := totals(tr.spans)
	shadow := totals(st.shadow)
	get := func(name string) *spanTotals {
		if t := tot[name]; t != nil {
			return t
		}
		if t := shadow[name]; t != nil {
			return t
		}
		return &spanTotals{}
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	mean := func(name string) float64 {
		if t := get(name); t.count > 0 {
			return ms(t.total) / float64(t.count)
		}
		return 0
	}
	m := make(map[string]metric)
	for _, s := range timedSpans {
		if get(s).count > 0 {
			m[s+"_ms"] = metric{mean(s), "ms"}
		}
	}
	if exec := mean("server.exec"); exec > 0 {
		m["server.overhead_ms"] = metric{mean("server.wait") - exec, "ms"}
		m["obs.observe_ms"] = metric{mean("obs.exec") - exec, "ms"}
	}
	self := make(map[string]time.Duration)
	for n, t := range tot {
		l, _, ok := strings.Cut(n, ".")
		if !ok {
			l = "bench"
		}
		self[l] += t.self
	}
	for _, l := range layers {
		m[l+".self_ms"] = metric{ms(self[l]) / ops, "ms"}
	}
	for k, marker := range kernelAllocs {
		if n := get(marker).count; n > 0 {
			var b uint64
			for _, s := range []string{"build", "seed", "verify", "count", "filter"} {
				b += get(k + "." + s).alloc
			}
			m[k+".alloc_mb"] = metric{float64(b) / 1e6 / float64(n), "MB"}
		}
	}
	for _, l := range []string{"core", "baseline"} {
		if t := get(l + ".run"); t.count > 0 {
			m[l+".alloc_mb"] = metric{float64(t.alloc) / 1e6 / float64(t.count), "MB"}
		}
	}
	if ev := st.layer["sim.events_per_op"].Value; ev > 0 {
		run := get("core.run").total + get("baseline.run").total
		m["sim.host_ns_per_event"] = metric{float64(run) / ops / ev, "ns"}
	}
	for k, v := range st.layer {
		m[k] = v
	}
	for n, u := range layerUnits() {
		if _, ok := m[n]; !ok {
			m[n] = metric{0, u}
		}
	}
	return m
}

// simAcc averages the simulated counts of each (app, platform) pair over
// the observed runs of that pair.
type simAcc map[string]*simSums

type simSums struct {
	n, reads, writes, rowHits, rowAll, msgs, wire, useful float64
}

// add accumulates one observed run's final metric snapshot.
func (a simAcc) add(app beacon.Application, k beacon.PlatformKind, final map[string]float64) {
	key := "." + shortApp(app) + "." + k.String()
	s := a[key]
	if s == nil {
		s = &simSums{}
		a[key] = s
	}
	s.n++
	for name, v := range final {
		if !strings.HasPrefix(name, "dram.") {
			continue
		}
		switch name[strings.LastIndex(name, ".")+1:] {
		case "reads":
			s.reads += v
		case "writes":
			s.writes += v
		case "row_hits":
			s.rowHits += v
			s.rowAll += v
		case "row_misses", "row_conflicts":
			s.rowAll += v
		}
	}
	s.msgs += final["cxl.messages"]
	s.wire += final["cxl.wire_bytes"]
	s.useful += final["cxl.useful_bytes"]
}

// metrics writes the per-pair means into m.
func (a simAcc) metrics(m map[string]metric) {
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	for key, s := range a {
		m["dram.reads"+key] = metric{s.reads / s.n, "count"}
		m["dram.writes"+key] = metric{s.writes / s.n, "count"}
		m["dram.row_hit_ratio"+key] = metric{ratio(s.rowHits, s.rowAll), "ratio"}
		if !strings.HasSuffix(key, beacon.DDRBaseline.String()) {
			m["cxl.messages"+key] = metric{s.msgs / s.n, "count"}
			m["cxl.wire_bytes"+key] = metric{s.wire / s.n, "bytes"}
			m["cxl.useful_ratio"+key] = metric{ratio(s.useful, s.wire), "ratio"}
		}
	}
}
