package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

// buildCollection assembles a small deterministic collection exercising
// every family type: gauges, a counter, a histogram, util.* accounting,
// and names needing sanitization (dots, hyphens).
func buildCollection() *Collection {
	col := NewCollection()
	ob := col.New("fm-seeding/Pt/beacon-d")
	reg := ob.Registry()
	reg.Counter("fault.dram.retries").Add(3)
	reg.Gauge("core.tasks_completed", func() float64 { return 42 })
	h := reg.Histogram("core.step_latency_cycles", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	ob.Track(Meter{
		Class: ClassLink, Name: "host-s0.up", Width: 1,
		Busy: func() int64 { return 800 },
		Wait: func() int64 { return 60 },
	})
	ob.Sample(1000)

	ob2 := col.New("fm-seeding/Pt/ddr-ndp")
	ob2.Registry().Gauge("core.tasks_completed", func() float64 { return 42 })
	ob2.Sample(4000)
	return col
}

// TestOpenMetricsGolden pins the exposition bytes against a fixture. The
// format is a contract: beaconprof -check, the CI prof-smoke job, and any
// future beaconsimd /metrics endpoint all consume it.
func TestOpenMetricsGolden(t *testing.T) {
	var b strings.Builder
	if err := buildCollection().WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "openmetrics.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/obs -update to regenerate)", err)
	}
	if b.String() != string(want) {
		t.Fatalf("exposition drifted from golden:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestOpenMetricsRoundTrip asserts the writer's output is accepted by the
// package's own validating parser, with types, suffixes and labels intact.
func TestOpenMetricsRoundTrip(t *testing.T) {
	var b strings.Builder
	if err := buildCollection().WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseOpenMetrics(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("writer output rejected by parser: %v", err)
	}
	byName := map[string]*OMFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	ctr := byName["fault_dram_retries"]
	if ctr == nil || ctr.Type != "counter" {
		t.Fatalf("counter family missing or mistyped: %+v", ctr)
	}
	if len(ctr.Samples) != 1 || ctr.Samples[0].Name != "fault_dram_retries_total" ||
		ctr.Samples[0].Value != 3 {
		t.Fatalf("counter sample wrong: %+v", ctr.Samples)
	}
	if got := ctr.Samples[0].Labels["job"]; got != "fm-seeding/Pt/beacon-d" {
		t.Fatalf("job label = %q", got)
	}

	hist := byName["core_step_latency_cycles"]
	if hist == nil || hist.Type != "histogram" {
		t.Fatalf("histogram family missing: %+v", hist)
	}
	// Buckets must be cumulative and end at +Inf with the total count.
	var buckets []OMSample
	for _, s := range hist.Samples {
		if s.Name == "core_step_latency_cycles_bucket" {
			buckets = append(buckets, s)
		}
	}
	if len(buckets) != 3 {
		t.Fatalf("buckets = %d, want 3", len(buckets))
	}
	if buckets[0].Value != 1 || buckets[1].Value != 2 || buckets[2].Value != 3 {
		t.Fatalf("buckets not cumulative: %v %v %v",
			buckets[0].Value, buckets[1].Value, buckets[2].Value)
	}
	if buckets[2].Labels["le"] != "+Inf" {
		t.Fatalf("last bucket le = %q, want +Inf", buckets[2].Labels["le"])
	}

	// The sanitized util gauge for the hyphenated link must exist.
	util := byName["util_link_host_s0_up_busy_cycles"]
	if util == nil || util.Type != "gauge" || util.Samples[0].Value != 800 {
		t.Fatalf("sanitized util gauge missing: %+v", util)
	}

	// Gauges shared across jobs merge into one family with two samples.
	tasks := byName["core_tasks_completed"]
	if tasks == nil || len(tasks.Samples) != 2 {
		t.Fatalf("shared gauge family samples = %+v", tasks)
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"dram.s0.d0.reads", "dram_s0_d0_reads"},
		{"cxl.host-s0.up.busy", "cxl_host_s0_up_busy"},
		{"0leading", "_0leading"},
		{"", "_"},
		{"ok_name:x", "ok_name:x"},
	}
	for _, c := range cases {
		if got := sanitizeMetricName(c.in); got != c.want {
			t.Errorf("sanitize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestEscapeLabelValue(t *testing.T) {
	if got := escapeLabelValue("a\\b\"c\nd"); got != `a\\b\"c\nd` {
		t.Fatalf("escape = %q", got)
	}
}

func TestParseOpenMetricsRejects(t *testing.T) {
	cases := []struct{ name, in string }{
		{"missing EOF", "# TYPE a gauge\na 1\n"},
		{"content after EOF", "# EOF\nx 1\n"},
		{"blank line", "# TYPE a gauge\n\na 1\n# EOF\n"},
		{"undeclared family", "b 1\n# EOF\n"},
		{"duplicate family", "# TYPE a gauge\n# TYPE a gauge\n# EOF\n"},
		{"bad type", "# TYPE a summary\n# EOF\n"},
		{"bad name", "# TYPE bad-name gauge\n# EOF\n"},
		{"gauge with _total", "# TYPE a gauge\na_total 1\n# EOF\n"},
		{"counter bare", "# TYPE a counter\na 1\n# EOF\n"},
		{"unterminated label", "# TYPE a gauge\na{job=\"x 1\n# EOF\n"},
		{"bad escape", "# TYPE a gauge\na{job=\"\\t\"} 1\n# EOF\n"},
		{"duplicate label", "# TYPE a gauge\na{j=\"x\",j=\"y\"} 1\n# EOF\n"},
		{"missing value", "# TYPE a gauge\na{j=\"x\"}\n# EOF\n"},
		{"unknown comment", "# NOTE hi\n# EOF\n"},
	}
	for _, c := range cases {
		if _, err := ParseOpenMetrics(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: parser accepted %q", c.name, c.in)
		}
	}
}

func TestParseOpenMetricsAcceptsHelp(t *testing.T) {
	in := "# TYPE a gauge\n# HELP a docs are fine\na 1\n# EOF\n"
	fams, err := ParseOpenMetrics(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 1 || len(fams[0].Samples) != 1 {
		t.Fatalf("families = %+v", fams)
	}
}

func TestRegistryWriteOpenMetricsUnlabeled(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a.count").Inc()
	reg.Snapshot(10)
	var b strings.Builder
	if err := reg.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE a_count counter\na_count_total 1\n# EOF\n"
	if b.String() != want {
		t.Fatalf("got %q want %q", b.String(), want)
	}
	if _, err := ParseOpenMetrics(strings.NewReader(b.String())); err != nil {
		t.Fatal(err)
	}
}

// TestWriteOpenMetricsWith pins the merged exposition the daemon's
// /metrics endpoint serves: per-job collection families plus an unlabeled
// server-level registry, in one parseable document with a single # EOF.
func TestWriteOpenMetricsWith(t *testing.T) {
	col := buildCollection()
	reg := NewRegistry()
	reg.Counter("beaconsimd.jobs.admitted").Add(2)
	reg.Gauge("beaconsimd.queue.depth", func() float64 { return 1 })
	reg.Snapshot(0)

	var b strings.Builder
	if err := col.WriteOpenMetricsWith(&b, reg); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if n := strings.Count(out, "# EOF"); n != 1 {
		t.Fatalf("exposition has %d EOF markers, want 1", n)
	}
	fams, err := ParseOpenMetrics(strings.NewReader(out))
	if err != nil {
		t.Fatalf("merged exposition rejected by parser: %v", err)
	}
	byName := map[string]*OMFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	// Server-level families arrive unlabeled.
	adm := byName["beaconsimd_jobs_admitted"]
	if adm == nil || adm.Type != "counter" || len(adm.Samples) != 1 ||
		adm.Samples[0].Value != 2 || len(adm.Samples[0].Labels) != 0 {
		t.Fatalf("server counter family wrong: %+v", adm)
	}
	depth := byName["beaconsimd_queue_depth"]
	if depth == nil || depth.Type != "gauge" || depth.Samples[0].Value != 1 {
		t.Fatalf("server gauge family wrong: %+v", depth)
	}
	// Collection families still carry their job labels.
	ctr := byName["fault_dram_retries"]
	if ctr == nil || ctr.Samples[0].Labels["job"] != "fm-seeding/Pt/beacon-d" {
		t.Fatalf("job-labeled family lost in merge: %+v", ctr)
	}

	// Either side may be nil.
	var only strings.Builder
	if err := col.WriteOpenMetricsWith(&only, nil); err != nil {
		t.Fatal(err)
	}
	var asCol strings.Builder
	if err := col.WriteOpenMetrics(&asCol); err != nil {
		t.Fatal(err)
	}
	if only.String() != asCol.String() {
		t.Error("nil extra registry diverges from plain WriteOpenMetrics")
	}
	var nilCol strings.Builder
	if err := (*Collection)(nil).WriteOpenMetricsWith(&nilCol, reg); err != nil {
		t.Fatal(err)
	}
	var asReg strings.Builder
	if err := reg.WriteOpenMetrics(&asReg); err != nil {
		t.Fatal(err)
	}
	if nilCol.String() != asReg.String() {
		t.Error("nil collection diverges from Registry.WriteOpenMetrics")
	}
}
