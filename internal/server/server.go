// Package server implements the beaconsimd job service: a versioned
// HTTP/JSON API that accepts beacon.RunSpec submissions, executes them on
// a bounded worker set behind an admission queue and per-tenant quotas,
// and serves results content-addressed by their provenance hash.
//
// Endpoints:
//
//	POST /v1/jobs              submit a RunSpec (X-Tenant names the tenant)
//	GET  /v1/jobs/{id}         poll job status
//	GET  /v1/jobs/{id}/report  fetch the finished report (ETag / If-None-Match)
//	GET  /metrics              OpenMetrics exposition (server + job metrics)
//	GET  /healthz              liveness (503 while draining)
//
// Concurrency: this package owns raw goroutines and channels (alongside
// internal/runner and internal/obs in the goroutinescope allowlist).
// Admission pushes jobs into a bounded queue under the registry lock; a
// fixed worker set drains the queue through runner.Run on a shared Pool,
// so the daemon respects one global concurrency bound and inherits the
// runner's panic isolation.
//
// Determinism: job IDs derive from (tenant, spec canonical hash), reports
// derive only from the spec, and the ETag is the provenance hash of the
// result — so identical specs yield identical reports and identical ETags
// across tenants, processes and restarts of the same build. Wall-clock
// use is confined to quota refill and drain deadlines, never results.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"beacon"
	"beacon/internal/obs"
	"beacon/internal/runner"
)

// DefaultQueueDepth bounds the admission queue when Config.QueueDepth is
// unset: enough to keep workers fed through bursts, small enough that
// back-pressure (429) surfaces before latency grows unbounded.
const DefaultQueueDepth = 64

// maxSpecBytes caps a submission body; a RunSpec is a few hundred bytes,
// so anything near the cap is abuse, not genomics.
const maxSpecBytes = 1 << 20

// Job states as reported by the status endpoint.
const (
	// JobQueued: admitted, waiting for a worker.
	JobQueued = "queued"
	// JobRunning: executing on the pool.
	JobRunning = "running"
	// JobDone: finished; the report endpoint serves the result.
	JobDone = "done"
	// JobFailed: finished with an error; the report endpoint serves it.
	JobFailed = "failed"
)

// Config parameterizes New. The zero value is usable: GOMAXPROCS workers,
// the default queue depth, no quotas, no cache, no observability.
type Config struct {
	// QueueDepth bounds the admission queue (<= 0 selects
	// DefaultQueueDepth). A full queue answers 429.
	QueueDepth int
	// Pool bounds simulation concurrency; nil selects
	// runner.NewPool(0) (GOMAXPROCS slots).
	Pool *runner.Pool
	// Quota configures per-tenant admission quotas.
	Quota QuotaConfig
	// Cache, when non-nil, backs workload construction: identical specs
	// across tenants dedupe to one build.
	Cache *beacon.WorkloadCache
	// Obs, when non-nil, attaches an observer to every job, co-run jobs
	// included; /metrics then serves the per-job simulation metrics.
	Obs *obs.Collection
	// Now supplies the wall clock for quota refill; nil selects the
	// system clock. Tests inject a fake for deterministic refills.
	Now func() time.Time
}

// job is one submission's registry entry. All fields past the immutable
// identity block are guarded by Server.mu.
type job struct {
	id     string
	tenant string
	hash   string
	spec   beacon.RunSpec

	state string
	err   error
	res   *beacon.RunResult
	prov  obs.Provenance
	etag  string
	done  chan struct{}
}

// Server is the job service. Create with New, mount as an http.Handler,
// stop with Drain then Close.
type Server struct {
	pool   *runner.Pool
	cache  *beacon.WorkloadCache
	col    *obs.Collection
	quotas *quotas
	queue  chan *job
	mux    *http.ServeMux

	mu       sync.Mutex
	jobs     map[string]*job
	draining bool

	inflight sync.WaitGroup // admitted jobs not yet finished
	workers  sync.WaitGroup // worker goroutines

	admitted      atomic.Int64
	deduped       atomic.Int64
	rejectedQuota atomic.Int64
	rejectedQueue atomic.Int64
	succeeded     atomic.Int64
	failed        atomic.Int64
}

// New starts a Server: Pool.Size() workers draining the admission queue.
// The caller owns serving it (httptest, net/http) and must Drain+Close it
// to stop the workers.
func New(cfg Config) *Server {
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	pool := cfg.Pool
	if pool == nil {
		pool = runner.NewPool(0)
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	s := &Server{
		pool:   pool,
		cache:  cfg.Cache,
		col:    cfg.Obs,
		quotas: newQuotas(cfg.Quota, now),
		queue:  make(chan *job, depth),
		jobs:   make(map[string]*job),
		mux:    http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.workers.Add(pool.Size())
	for i := 0; i < pool.Size(); i++ {
		go s.worker()
	}
	return s
}

// ServeHTTP dispatches to the service's routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain stops admitting jobs (POST answers 503, healthz reports draining)
// and waits for every admitted job — queued or running — to finish, or
// for ctx to expire. It is the SIGTERM half of graceful shutdown; follow
// with Close once it returns.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

// Close stops the worker set. Any still-queued jobs are executed first
// (Drain waits for them, so a drained server closes immediately); new
// submissions are refused from the first Drain call on.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	close(s.queue)
	s.workers.Wait()
}

// JobID derives the deterministic job identifier for a tenant's spec:
// the first 16 hex digits of sha256(tenant, spec canonical hash). The
// same tenant resubmitting the same spec lands on the same job (idempotent
// submission); distinct tenants get distinct jobs whose construction work
// still dedupes through the workload cache.
func JobID(tenant, specHash string) string {
	sum := sha256.Sum256([]byte(tenant + "\n" + specHash))
	return hex.EncodeToString(sum[:8])
}

// ResultProvenance fingerprints a finished run. The hash covers the
// rendered result value (report + tenant breakdown), so identical reports
// — across tenants, processes, or restarts of the same build — carry
// identical hashes; the report endpoint serves it as the ETag.
func ResultProvenance(spec beacon.RunSpec, res *beacon.RunResult) obs.Provenance {
	fp := struct {
		Report  beacon.Report
		Tenants []beacon.TenantReport
	}{*res.Report, res.Tenants}
	return obs.Provenance{
		ConfigHash: obs.HashConfig(fp),
		Seed:       spec.Workload.Config.Seed,
		Build:      obs.ReadBuildInfo(),
	}
}

// ETag renders a provenance as a strong HTTP entity tag.
func ETag(p obs.Provenance) string { return `"` + p.ConfigHash + `"` }

// JobStatus is the status endpoint's body (and the submission response).
type JobStatus struct {
	// ID is the job identifier (JobID).
	ID string `json:"id"`
	// Tenant is the submitting tenant.
	Tenant string `json:"tenant"`
	// State is one of queued, running, done, failed.
	State string `json:"state"`
	// SpecHash is the spec's canonical hash.
	SpecHash string `json:"spec_hash"`
	// ETag is the report's entity tag (done jobs only).
	ETag string `json:"etag,omitempty"`
	// Error describes the failure (failed jobs only).
	Error string `json:"error,omitempty"`
}

// JobReport is the report endpoint's body for a finished job.
type JobReport struct {
	// ID is the job identifier.
	ID string `json:"id"`
	// SpecHash is the spec's canonical hash.
	SpecHash string `json:"spec_hash"`
	// Provenance fingerprints the result (its ConfigHash is the ETag).
	Provenance obs.Provenance `json:"provenance"`
	// Report is the simulation report.
	Report *beacon.Report `json:"report"`
	// Tenants is the per-workload breakdown of a co-located run.
	Tenants []beacon.TenantReport `json:"tenants,omitempty"`
}

// ErrorResponse is the body of every error answer.
type ErrorResponse struct {
	// Error is the failure description.
	Error string `json:"error"`
	// Status echoes the HTTP status code.
	Status int `json:"status"`
}

// statusLocked snapshots a job's status. Caller holds Server.mu.
func (j *job) statusLocked() JobStatus {
	st := JobStatus{
		ID:       j.id,
		Tenant:   j.tenant,
		State:    j.state,
		SpecHash: j.hash,
		ETag:     j.etag,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// tenantOf names the submitting tenant; absent headers share one bucket.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// writeJSON writes one JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response","status":500}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(data)
	_, _ = w.Write([]byte("\n"))
}

// fail answers with the error's mapped status (beacon.HTTPStatus).
func fail(w http.ResponseWriter, err error) {
	status := beacon.HTTPStatus(err)
	writeJSON(w, status, ErrorResponse{Error: err.Error(), Status: status})
}

// retryAfterSeconds renders a Retry-After value, rounded up, at least 1s.
func retryAfterSeconds(d time.Duration) string {
	sec := int(math.Ceil(d.Seconds()))
	if sec < 1 {
		sec = 1
	}
	return strconv.Itoa(sec)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		fail(w, fmt.Errorf("%w: reading spec: %v", beacon.ErrBadConfig, err))
		return
	}
	spec, err := beacon.ParseRunSpec(body)
	if err != nil {
		fail(w, err)
		return
	}
	if err := spec.Validate(); err != nil {
		fail(w, err)
		return
	}
	hash := spec.CanonicalHash()
	id := JobID(tenant, hash)

	s.mu.Lock()
	if j, ok := s.jobs[id]; ok {
		// Idempotent resubmission: same tenant, same spec, same job. No
		// quota charge — the work was already admitted once.
		st := j.statusLocked()
		s.mu.Unlock()
		s.deduped.Add(1)
		writeJSON(w, http.StatusOK, st)
		return
	}
	if s.draining {
		s.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable,
			ErrorResponse{Error: "server: draining, not admitting jobs", Status: http.StatusServiceUnavailable})
		return
	}
	// Check queue room before spending a quota token, so a rejected
	// submission never burns quota. Senders all hold mu, so the len/cap
	// comparison cannot race with another admit; workers only drain.
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		s.rejectedQueue.Add(1)
		w.Header().Set("Retry-After", "1")
		fail(w, fmt.Errorf("%w: %d jobs queued", beacon.ErrQueueFull, cap(s.queue)))
		return
	}
	if ok, retryIn := s.quotas.take(tenant); !ok {
		s.mu.Unlock()
		s.rejectedQuota.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(retryIn))
		fail(w, fmt.Errorf("%w: tenant %q", beacon.ErrQuotaExhausted, tenant))
		return
	}
	j := &job{id: id, tenant: tenant, hash: hash, spec: spec, state: JobQueued, done: make(chan struct{})}
	s.jobs[id] = j
	s.inflight.Add(1)
	s.queue <- j // cannot block: room was checked under mu
	st := j.statusLocked()
	s.mu.Unlock()
	s.admitted.Add(1)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var st JobStatus
	if ok {
		st = j.statusLocked()
	}
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound,
			ErrorResponse{Error: "unknown job " + id, Status: http.StatusNotFound})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var st JobStatus
	var rep JobReport
	if ok {
		st = j.statusLocked()
		if j.state == JobDone {
			rep = JobReport{
				ID:         j.id,
				SpecHash:   j.hash,
				Provenance: j.prov,
				Report:     j.res.Report,
				Tenants:    j.res.Tenants,
			}
		}
	}
	s.mu.Unlock()
	switch {
	case !ok:
		writeJSON(w, http.StatusNotFound,
			ErrorResponse{Error: "unknown job " + id, Status: http.StatusNotFound})
	case st.State == JobFailed:
		status := beacon.HTTPStatus(j.err)
		writeJSON(w, status, ErrorResponse{Error: st.Error, Status: status})
	case st.State != JobDone:
		// Not ready yet; the status body tells the client what to poll.
		writeJSON(w, http.StatusConflict, st)
	default:
		w.Header().Set("ETag", st.ETag)
		if etagMatch(r.Header.Get("If-None-Match"), st.ETag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		writeJSON(w, http.StatusOK, rep)
	}
}

// etagMatch implements the If-None-Match check for strong tags: any listed
// tag equal to etag, or the wildcard, is a match.
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	if header == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		if part = strings.TrimSpace(part); part != "" && part == etag {
			return true
		}
	}
	return false
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable,
			ErrorResponse{Error: "draining", Status: http.StatusServiceUnavailable})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// A fresh registry per scrape: server counters are point-in-time
	// reads of the atomics, so no cross-scrape state to manage.
	reg := obs.NewRegistry()
	reg.Counter("beaconsimd.jobs.admitted").Add(s.admitted.Load())
	reg.Counter("beaconsimd.jobs.deduped").Add(s.deduped.Load())
	reg.Counter("beaconsimd.jobs.rejected_quota").Add(s.rejectedQuota.Load())
	reg.Counter("beaconsimd.jobs.rejected_queue_full").Add(s.rejectedQueue.Load())
	reg.Counter("beaconsimd.jobs.succeeded").Add(s.succeeded.Load())
	reg.Counter("beaconsimd.jobs.failed").Add(s.failed.Load())
	reg.Gauge("beaconsimd.queue.depth", func() float64 { return float64(len(s.queue)) })
	reg.Gauge("beaconsimd.queue.capacity", func() float64 { return float64(cap(s.queue)) })
	if s.cache != nil {
		st := s.cache.Stats()
		reg.Counter("beaconsimd.wcache.hits").Add(int64(st.Hits))
		reg.Counter("beaconsimd.wcache.misses").Add(int64(st.Misses))
		reg.Counter("beaconsimd.wcache.corrupt").Add(int64(st.Corrupt))
		reg.Counter("beaconsimd.wcache.puts").Add(int64(st.Puts))
	}
	reg.Snapshot(0) // the exposition renders the final snapshot
	w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	_ = s.col.WriteOpenMetricsWith(w, reg)
}

// worker drains the admission queue until Close.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one admitted job on the shared pool. runner.Run bounds
// concurrency against every other pool user and converts panics into
// *runner.PanicError, so one bad spec cannot take the daemon down.
func (s *Server) runJob(j *job) {
	defer s.inflight.Done()
	s.mu.Lock()
	j.state = JobRunning
	s.mu.Unlock()

	var opts []beacon.RunOption
	if s.col != nil {
		opts = append(opts, beacon.WithObserver(s.col.New("job/"+j.tenant+"/"+j.id)))
	}
	res, err := runner.Run(context.Background(), s.pool, []runner.Job[*beacon.RunResult]{{
		Label: j.tenant + "/" + j.id,
		Fn: func(context.Context) (*beacon.RunResult, error) {
			return j.spec.Execute(s.cache, opts...)
		},
	}})

	s.mu.Lock()
	if err != nil {
		j.state, j.err = JobFailed, err
		s.failed.Add(1)
	} else {
		j.res = res[0]
		j.prov = ResultProvenance(j.spec, j.res)
		j.etag = ETag(j.prov)
		j.state = JobDone
		s.succeeded.Add(1)
	}
	close(j.done)
	s.mu.Unlock()
}
