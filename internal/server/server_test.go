package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	beacon "beacon"
	"beacon/internal/obs"
	"beacon/internal/runner"
)

// testSpec returns a small runnable spec (seconds, not minutes).
func testSpec() beacon.RunSpec {
	cfg := beacon.DefaultWorkloadConfig(beacon.PinusTaeda)
	cfg.GenomeScale = 2_000
	cfg.Reads = 20
	return beacon.NewRunSpec(beacon.FMSeeding, cfg)
}

// newTestServer starts a Server and registers cleanup.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
		s.Close()
	})
	return s
}

// submit POSTs a spec and decodes the response body into out.
func submit(t *testing.T, ts *httptest.Server, tenant string, spec beacon.RunSpec, out any) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp
}

// awaitJob blocks until job id finishes (the registry's done channel, so
// the wait is event-driven, not polled).
func awaitJob(t *testing.T, s *Server, id string) {
	t.Helper()
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		t.Fatalf("job %s not registered", id)
	}
	select {
	case <-j.done:
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s did not finish", id)
	}
}

// TestJobLifecycle pins the tentpole round trip: POST → poll → report,
// with the report byte-identical to the same spec run through
// beacon.RunSpec.Execute in-process, and If-None-Match revalidation
// answering 304.
func TestJobLifecycle(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	spec := testSpec()
	var st JobStatus
	resp := submit(t, ts, "alice", spec, &st)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if st.ID != JobID("alice", spec.CanonicalHash()) {
		t.Errorf("job ID = %q, want deterministic JobID", st.ID)
	}
	if st.SpecHash != spec.CanonicalHash() {
		t.Errorf("spec hash = %q, want canonical hash", st.SpecHash)
	}
	awaitJob(t, s, st.ID)

	// Poll: done, with an ETag.
	var polled JobStatus
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&polled); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || polled.State != JobDone || polled.ETag == "" {
		t.Fatalf("poll = %d %+v, want 200 done with ETag", resp.StatusCode, polled)
	}

	// Report: byte-identical to the in-process execution of the same spec.
	resp, err = ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	gotBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("ETag"); got != polled.ETag {
		t.Errorf("report ETag %q != polled ETag %q", got, polled.ETag)
	}
	res, err := spec.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(JobReport{
		ID:         st.ID,
		SpecHash:   spec.CanonicalHash(),
		Provenance: ResultProvenance(spec, res),
		Report:     res.Report,
		Tenants:    res.Tenants,
	})
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(gotBody, want) {
		t.Errorf("report body diverged from in-process Execute:\ngot  %s\nwant %s", gotBody, want)
	}
	if ResultProvenance(spec, res).ConfigHash != strings.Trim(polled.ETag, `"`) {
		t.Error("ETag is not the provenance hash of the in-process result")
	}

	// Revalidation: If-None-Match with the current tag answers 304.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/report", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", polled.ETag)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("If-None-Match status = %d, want 304", resp.StatusCode)
	}
	// A stale tag still gets the full report.
	req.Header.Set("If-None-Match", `"deadbeef"`)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("stale If-None-Match status = %d, want 200", resp.StatusCode)
	}
}

// TestTwoTenantsShareWorkloadCache pins the acceptance criterion: the same
// spec from two tenants runs as two jobs, the second workload construction
// is served from the shared cache, and both reports carry the same ETag.
func TestTwoTenantsShareWorkloadCache(t *testing.T) {
	t.Parallel()
	wc, err := beacon.OpenWorkloadCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// One worker, so the jobs construct strictly one after the other.
	s := newTestServer(t, Config{Pool: runner.NewPool(1), Cache: wc})
	ts := httptest.NewServer(s)
	defer ts.Close()

	spec := testSpec()
	var a, b JobStatus
	if resp := submit(t, ts, "alice", spec, &a); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("alice submit = %d", resp.StatusCode)
	}
	if resp := submit(t, ts, "bob", spec, &b); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bob submit = %d", resp.StatusCode)
	}
	if a.ID == b.ID {
		t.Fatal("distinct tenants share a job ID")
	}
	if a.SpecHash != b.SpecHash {
		t.Fatal("identical specs hash differently")
	}
	awaitJob(t, s, a.ID)
	awaitJob(t, s, b.ID)

	etag := func(id string) string {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/report")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("report %s = %d", id, resp.StatusCode)
		}
		return resp.Header.Get("ETag")
	}
	ta, tb := etag(a.ID), etag(b.ID)
	if ta == "" || ta != tb {
		t.Errorf("cross-tenant ETags differ: %q vs %q", ta, tb)
	}
	st := wc.Stats()
	if st.Hits < 1 {
		t.Errorf("second tenant did not hit the shared workload cache: %+v", st)
	}
}

// TestIdempotentResubmission pins that the same tenant resubmitting the
// same spec lands on the existing job (200, not a second admission).
func TestIdempotentResubmission(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	spec := testSpec()
	var first, second JobStatus
	if resp := submit(t, ts, "alice", spec, &first); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", resp.StatusCode)
	}
	if resp := submit(t, ts, "alice", spec, &second); resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit = %d, want 200", resp.StatusCode)
	}
	if first.ID != second.ID {
		t.Errorf("resubmission created a new job: %q vs %q", first.ID, second.ID)
	}
	if got := s.deduped.Load(); got != 1 {
		t.Errorf("deduped counter = %d, want 1", got)
	}
	if got := s.admitted.Load(); got != 1 {
		t.Errorf("admitted counter = %d, want 1", got)
	}
}

// TestQuotaExhaustion pins the 429 + Retry-After behavior under a fake
// clock: a one-token bucket admits once, rejects the next, and refills
// after the advertised wait.
func TestQuotaExhaustion(t *testing.T) {
	t.Parallel()
	clock := time.Unix(1000, 0)
	s := newTestServer(t, Config{
		Quota: QuotaConfig{RatePerSec: 0.5, Burst: 1},
		Now:   func() time.Time { return clock },
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	spec := testSpec()
	if resp := submit(t, ts, "alice", spec, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", resp.StatusCode)
	}
	// Different spec (different seed) so dedupe does not short-circuit.
	spec2 := testSpec()
	spec2.Workload.Config.Seed++
	var er ErrorResponse
	resp := submit(t, ts, "alice", spec2, &er)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d, want 429", resp.StatusCode)
	}
	if !strings.Contains(er.Error, "quota") {
		t.Errorf("error body %q does not name the quota", er.Error)
	}
	retry := resp.Header.Get("Retry-After")
	if retry != "2" { // 1 token deficit at 0.5 tokens/sec = 2s
		t.Errorf("Retry-After = %q, want 2", retry)
	}
	// An unrelated tenant is unaffected.
	if resp := submit(t, ts, "bob", spec2, nil); resp.StatusCode != http.StatusAccepted {
		t.Errorf("bob submit = %d, want 202 (quotas must be per-tenant)", resp.StatusCode)
	}
	// After the advertised wait the tenant is admitted again.
	clock = clock.Add(2 * time.Second)
	if resp := submit(t, ts, "alice", spec2, nil); resp.StatusCode != http.StatusAccepted {
		t.Errorf("post-refill submit = %d, want 202", resp.StatusCode)
	}
	if got := s.rejectedQuota.Load(); got != 1 {
		t.Errorf("rejectedQuota counter = %d, want 1", got)
	}
}

// TestQueueFull pins the 429 back-pressure path. The server is assembled
// by hand with no workers, so the one-slot queue deterministically fills.
func TestQueueFull(t *testing.T) {
	t.Parallel()
	s := &Server{
		pool:   runner.NewPool(1),
		quotas: newQuotas(QuotaConfig{}, time.Now),
		queue:  make(chan *job, 1),
		jobs:   make(map[string]*job),
	}
	post := func(tenant string, spec beacon.RunSpec) *httptest.ResponseRecorder {
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		req.Header.Set("X-Tenant", tenant)
		rec := httptest.NewRecorder()
		s.handleSubmit(rec, req)
		return rec
	}
	if rec := post("alice", testSpec()); rec.Code != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", rec.Code)
	}
	spec2 := testSpec()
	spec2.Workload.Config.Seed++
	rec := post("alice", spec2)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("queue-full submit = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("queue-full response missing Retry-After")
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "queue full") {
		t.Errorf("error body %q does not name the queue", er.Error)
	}
	// No quota was burned and the job was not registered.
	if len(s.jobs) != 1 {
		t.Errorf("registry holds %d jobs, want 1", len(s.jobs))
	}
	// Unblock cleanup: drain the one queued job by hand.
	j := <-s.queue
	s.inflight.Done()
	close(j.done)
}

// TestDrain pins graceful shutdown: in-flight jobs finish, new submissions
// are refused with 503, healthz flips to draining, and an expired deadline
// surfaces as an error.
func TestDrain(t *testing.T) {
	t.Parallel()
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var st JobStatus
	if resp := submit(t, ts, "alice", testSpec(), &st); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The in-flight job finished.
	s.mu.Lock()
	state := s.jobs[st.ID].state
	s.mu.Unlock()
	if state != JobDone {
		t.Errorf("job state after drain = %q, want done", state)
	}
	// Admission is closed; reads still work.
	if resp := submit(t, ts, "alice", func() beacon.RunSpec {
		sp := testSpec()
		sp.Workload.Config.Seed++
		return sp
	}(), nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, want 503", resp.StatusCode)
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("report while draining = %d, want 200", resp.StatusCode)
	}
	s.Close()

	// Deadline path: with an unfinished admission on the books, an expired
	// context turns into a drain error instead of a hang.
	s2 := New(Config{})
	s2.inflight.Add(1)
	expired, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if err := s2.Drain(expired); err == nil {
		t.Error("drain with expired context returned nil")
	}
	s2.inflight.Done()
	s2.Close()
}

// TestSubmitRejections pins the HTTP status mapping at the API edge.
func TestSubmitRejections(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	post := func(body string) int {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("not json"); got != http.StatusBadRequest {
		t.Errorf("malformed body = %d, want 400", got)
	}
	badSpecies := testSpec()
	badSpecies.Workload.Config.Species = "Zz"
	body, err := json.Marshal(badSpecies)
	if err != nil {
		t.Fatal(err)
	}
	if got := post(string(body)); got != http.StatusUnprocessableEntity {
		t.Errorf("unknown species = %d, want 422", got)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	m["workload"].(map[string]any)["species"] = "Pt"
	m["version"] = 7
	bumped, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if got := post(string(bumped)); got != http.StatusBadRequest {
		t.Errorf("future version = %d, want 400", got)
	}
}

// TestReportStates pins the non-done report answers: unknown job 404,
// unfinished job 409, failed job mapped through beacon.HTTPStatus.
func TestReportStates(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	get := func(path string) int {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/v1/jobs/ffffffffffffffff"); got != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", got)
	}
	if got := get("/v1/jobs/ffffffffffffffff/report"); got != http.StatusNotFound {
		t.Errorf("unknown job report = %d, want 404", got)
	}
	// Hand-register a queued and a failed job; no worker touches them.
	s.mu.Lock()
	s.jobs["queued0000000000"] = &job{id: "queued0000000000", tenant: "t", state: JobQueued}
	s.jobs["failed0000000000"] = &job{
		id: "failed0000000000", tenant: "t", state: JobFailed,
		err: beacon.ErrUnknownSpecies,
	}
	s.mu.Unlock()
	if got := get("/v1/jobs/queued0000000000/report"); got != http.StatusConflict {
		t.Errorf("unfinished report = %d, want 409", got)
	}
	if got := get("/v1/jobs/failed0000000000/report"); got != http.StatusUnprocessableEntity {
		t.Errorf("failed report = %d, want 422 (ErrUnknownSpecies)", got)
	}
}

// TestMetricsEndpoint pins that /metrics serves a valid OpenMetrics
// exposition combining server counters with per-job simulation metrics.
func TestMetricsEndpoint(t *testing.T) {
	t.Parallel()
	wc, err := beacon.OpenWorkloadCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollection()
	s := newTestServer(t, Config{Cache: wc, Obs: col})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var st JobStatus
	if resp := submit(t, ts, "alice", testSpec(), &st); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	awaitJob(t, s, st.ID)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d, want 200", resp.StatusCode)
	}
	fams, err := obs.ParseOpenMetrics(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	byName := map[string]float64{}
	for _, f := range fams {
		for _, smp := range f.Samples {
			byName[smp.Name] = smp.Value
		}
	}
	if got := byName["beaconsimd_jobs_admitted_total"]; got != 1 {
		t.Errorf("admitted total = %v, want 1", got)
	}
	if got := byName["beaconsimd_jobs_succeeded_total"]; got != 1 {
		t.Errorf("succeeded total = %v, want 1", got)
	}
	if got := byName["beaconsimd_wcache_misses_total"]; got != 1 {
		t.Errorf("wcache misses total = %v, want 1", got)
	}
	// Per-job simulation metrics ride along under the job label.
	sawJobMetric := false
	for _, f := range fams {
		for _, smp := range f.Samples {
			if strings.HasPrefix(smp.Labels["job"], "job/alice/") {
				sawJobMetric = true
			}
		}
	}
	if !sawJobMetric {
		t.Error("exposition carries no per-job simulation metrics")
	}
}

// TestCoRunJobObserved pins that a co-located job is observed like any
// other: its simulation metrics appear in /metrics under its job label.
func TestCoRunJobObserved(t *testing.T) {
	t.Parallel()
	col := obs.NewCollection()
	s := newTestServer(t, Config{Obs: col})
	ts := httptest.NewServer(s)
	defer ts.Close()

	spec := testSpec()
	spec.CoRun = []beacon.WorkloadSpec{{App: beacon.HashSeeding, Config: spec.Workload.Config}}
	var st JobStatus
	if resp := submit(t, ts, "carol", spec, &st); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	awaitJob(t, s, st.ID)
	s.mu.Lock()
	state, jerr := s.jobs[st.ID].state, s.jobs[st.ID].err
	s.mu.Unlock()
	if state != JobDone {
		t.Fatalf("co-run job state = %v (%v), want done", state, jerr)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := obs.ParseOpenMetrics(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	label := "job/carol/" + st.ID
	for _, f := range fams {
		for _, smp := range f.Samples {
			if smp.Labels["job"] == label {
				return
			}
		}
	}
	t.Errorf("exposition carries no metrics labeled job=%q", label)
}

// TestJobIDDeterminism pins the ID derivation: stable across calls,
// tenant-scoped, spec-scoped.
func TestJobIDDeterminism(t *testing.T) {
	t.Parallel()
	h := testSpec().CanonicalHash()
	if JobID("a", h) != JobID("a", h) {
		t.Error("JobID is not deterministic")
	}
	if JobID("a", h) == JobID("b", h) {
		t.Error("JobID ignores the tenant")
	}
	if JobID("a", h) == JobID("a", h+"x") {
		t.Error("JobID ignores the spec hash")
	}
	if len(JobID("a", h)) != 16 {
		t.Errorf("JobID length = %d, want 16", len(JobID("a", h)))
	}
}

// TestEtagMatch pins the If-None-Match comparison.
func TestEtagMatch(t *testing.T) {
	t.Parallel()
	cases := []struct {
		header, etag string
		want         bool
	}{
		{"", `"x"`, false},
		{"*", `"x"`, true},
		{`"x"`, `"x"`, true},
		{`"y"`, `"x"`, false},
		{`"y", "x"`, `"x"`, true},
		{` "y" , "x" `, `"x"`, true},
		{`"y", "z"`, `"x"`, false},
	}
	for _, tc := range cases {
		if got := etagMatch(tc.header, tc.etag); got != tc.want {
			t.Errorf("etagMatch(%q, %q) = %v, want %v", tc.header, tc.etag, got, tc.want)
		}
	}
}

// TestETagGolden pins the daemon's entity tag for one small fixed spec.
// The ETag hashes the report's %#v, type names included, so renaming a
// facade type (beacon.Options, beacon.Report, ...) or reordering its
// fields changes every ETag a client holds; this catches it. The hash
// covers floats at full precision, which is stable on the CI
// architectures (amd64 and 386) because neither fuses multiply-adds; see
// ROADMAP item 4 for the architectures that do.
func TestETagGolden(t *testing.T) {
	spec := testSpec()
	res, err := spec.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	const want = `"3d978f5374a7a4f6"`
	if got := ETag(ResultProvenance(spec, res)); got != want {
		t.Errorf("ETag = %s, want %s", got, want)
	}
}
