package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"beacon"
	"beacon/internal/obs"
	"beacon/internal/runner"
	"beacon/internal/server"
	"beacon/internal/trace"
	"beacon/internal/wcache"
)

// daemonApps are the tiny specs the daemon serves: small genomes and few
// reads, so admission, JSON, the registry, obs and wcache reads carry a
// large share of each op.
var daemonApps = []appInput{
	{beacon.FMSeeding, beacon.PinusTaeda, 1_000, 24},
	{beacon.HashSeeding, beacon.PinusTaeda, 1_000, 24},
	{beacon.KmerCounting, beacon.Human, 1_000, 4},
	{beacon.PreAlignment, beacon.PinusTaeda, 1_000, 48},
}

const (
	// daemonRounds is how many times the spec cycle visits each (app,
	// platform) pair: fresh once, faulted on BEACON in two, and each time
	// on another of the warmed workloads.
	daemonRounds = 4
	// daemonCycle is the spec cycle's length.
	daemonCycle = daemonRounds * 12
	// tenantOffset staggers the second tenant's walk through the shared
	// spec sequence by half a cycle, so the tenants run different specs at
	// any moment, both submit most specs, and each round of tenantOffset
	// ops per tenant covers the whole cycle between them.
	tenantOffset = daemonCycle / 2
	// daemonWorkers is the server's worker pool size.
	daemonWorkers = 2
	// pollEvery is the client's status poll interval.
	pollEvery = 2 * time.Millisecond
)

var tenants = []string{"tenant-a", "tenant-b"}

// daemonSpec is the k-th spec of the shared sequence: its pair cycles
// every 12 specs; a rotating quarter of specs uses a fresh workload (a
// cache miss on first use) and the rest reuse one of four per app warmed
// in set-up (one per round, so sizes average over read samples); odd
// rounds enable the default fault profile on BEACON. Every spec has its
// own fault seed, so each submission is a distinct job.
func daemonSpec(seed uint64, k int) beacon.RunSpec {
	pr := pairs(len(daemonApps))[k%(len(daemonApps)*len(platforms))]
	round := k / (len(daemonApps) * len(platforms))
	a, p := daemonApps[pr[0]], platforms[pr[1]]
	wseed := mix64(seed, 6, uint64(pr[0]), uint64(round%daemonRounds))
	if (k+round)%daemonRounds == daemonRounds-1 {
		wseed = mix64(seed, 5, uint64(k))
	}
	s := beacon.NewRunSpec(a.app, a.config(wseed))
	s.Kind, s.Opts = p.Kind, p.Opts
	s.FaultSeed = mix64(seed, 4, uint64(k))
	if p.Kind != beacon.DDRBaseline && round%2 == 1 {
		s.Faults = "default"
	}
	return s
}

// daemonOp is what one client interaction observed.
type daemonOp struct {
	k      int
	round  int
	tenant string
	etag   string
	report [32]byte // digest of the served report's JSON
	err    error
}

// daemonWorkload: an in-process server on a loopback listener with a
// pool of 2 workers, an on-disk workload cache and observation on, driven
// by a closed loop of 2 clients as 2 tenants. Each op submits a tiny spec,
// polls until done, fetches the report and revalidates it (304).
type daemonWorkload struct {
	dir     string
	wc      *beacon.WorkloadCache
	raw     *wcache.Cache // the same directory, for the read probes
	srv     *server.Server
	hs      *http.Server
	served  chan struct{}
	base    string
	clients []*http.Client
	// nextK is the first spec index the next window uses, so no window
	// resubmits an earlier window's spec.
	nextK int
	// warm maps each warmed workload's canonical string to its cache key
	// and encoded trace, for the traced run's cache-read probes.
	warm map[string]warmEntry
}

type warmEntry struct {
	key     string
	encoded []byte
}

func (w *daemonWorkload) setUp(o options) error {
	dir, err := os.MkdirTemp(o.workdir, "daemon-")
	if err != nil {
		return err
	}
	w.dir = dir
	cdir := filepath.Join(dir, "cache")
	if w.wc, err = beacon.OpenWorkloadCache(cdir); err != nil {
		return err
	}
	if w.raw, err = wcache.Open(cdir); err != nil {
		return err
	}
	w.warm = make(map[string]warmEntry)
	for j := 0; j < daemonRounds*len(daemonApps); j++ {
		i, a := j%len(daemonApps), daemonApps[j%len(daemonApps)]
		ws := beacon.WorkloadSpec{App: a.app, Config: a.config(mix64(o.seed, 6, uint64(i), uint64(j/len(daemonApps))))}
		// Glob fails only on a malformed pattern.
		before, _ := filepath.Glob(filepath.Join(cdir, "*.bwl"))
		if _, err := ws.Build(w.wc); err != nil {
			return err
		}
		after, _ := filepath.Glob(filepath.Join(cdir, "*.bwl"))
		if len(after) != len(before)+1 {
			return fmt.Errorf("warming %v stored %d entries", a.app, len(after)-len(before))
		}
		key := strings.TrimSuffix(filepath.Base(newest(before, after)), ".bwl")
		e, err := w.raw.Get(key)
		if err != nil || e == nil {
			return fmt.Errorf("reading warmed %v: %v", a.app, err)
		}
		w.warm[ws.CanonicalString()] = warmEntry{key, trace.EncodeWorkload(e.Workload)}
	}

	w.nextK = 0
	return w.startServer()
}

// startServer starts a fresh server on a loopback listener, as the
// beaconsimd daemon runs by default, over the workload cache.
func (w *daemonWorkload) startServer() error {
	w.srv = server.New(server.Config{
		Pool:  runner.NewPool(daemonWorkers),
		Cache: w.wc,
		Obs:   &obs.Collection{},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: w.srv}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed once stopped
	}()
	w.clients = nil
	for range tenants {
		w.clients = append(w.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}
	return nil
}

// stopServer closes the listener and connections, drains the job service
// and waits for its workers and the serving goroutine to exit.
func (w *daemonWorkload) stopServer() {
	if w.hs == nil {
		return
	}
	_ = w.hs.Close()
	<-w.served
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = w.srv.Drain(ctx)
	w.srv.Close()
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
	w.hs, w.srv = nil, nil
}

// newest returns the one path in after that is not in before.
func newest(before, after []string) string {
	seen := make(map[string]bool, len(before))
	for _, p := range before {
		seen[p] = true
	}
	for _, p := range after {
		if !seen[p] {
			return p
		}
	}
	return ""
}

func (w *daemonWorkload) tearDown() {
	w.stopServer()
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
	*w = daemonWorkload{}
}

func (w *daemonWorkload) run(o options, tr *tracer) (*runStats, error) {
	results := make([][]daemonOp, len(tenants))
	statsBefore := w.wc.Stats()
	base := w.nextK
	var ops []opFunc
	for t := range tenants {
		t := t
		ops = append(ops, func(i int) (int64, error) {
			k := base + i + t*tenantOffset
			r := w.interact(tr, t, i, k, daemonSpec(o.seed, k))
			r.round = i / tenantOffset
			results[t] = append(results[t], r)
			return 0, r.err
		})
	}
	// The server never evicts a job, so it is restarted between rounds to
	// bound the benchmark's memory; each round starts on an empty registry.
	restart := func() error {
		w.stopServer()
		return w.startServer()
	}
	st, err := measure(o.seconds, tenantOffset, restart, ops...)
	if err != nil {
		return nil, err
	}
	statsAfter := w.wc.Stats()
	var all []daemonOp
	for _, rs := range results {
		all = append(all, rs...)
	}
	w.nextK = base + len(results[0]) + 2*daemonCycle

	var shadow *tracer
	if tr != nil {
		shadow = newTracer()
	}
	// Steps are known once verification has resolved every op's workload.
	failed, steps, layer, err := w.verify(o.seed, all, shadow)
	if err != nil {
		return nil, err
	}
	st.failed += failed
	for r, n := range steps {
		st.roundSteps[r] += n
		st.steps += n
	}
	if tr == nil {
		return st, nil
	}

	for k, v := range layer {
		st.layer[k] = v
	}
	lookups := (statsAfter.Hits - statsBefore.Hits) + (statsAfter.Misses - statsBefore.Misses)
	if lookups > 0 {
		st.layer["wcache.hit_ratio"] = metric{float64(statsAfter.Hits-statsBefore.Hits) / float64(lookups), "ratio"}
	}
	st.layer["server.retained_kb_per_job"] = metric{float64(st.retainedBytes) / 1e3 / float64(len(all)), "KB"}
	// The server still holds the last round's jobs.
	_, metrics, err := w.request(w.clients[0], http.MethodGet, "/metrics", tenants[0], "", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	st.layer["server.metrics_kb_per_job"] = metric{float64(len(metrics)) / 1e3 / float64(tenantOffset*len(tenants)), "KB"}
	st.shadow = shadow.spans
	return st, nil
}

// interact is one op: submit, poll until done, fetch, revalidate.
func (w *daemonWorkload) interact(tr *tracer, t, i, k int, spec beacon.RunSpec) daemonOp {
	op := t*1_000_000 + i
	res := daemonOp{k: k, tenant: tenants[t]}
	root := tr.begin(op, -1, "op")
	defer tr.end(root)
	c := w.clients[t]

	body, err := json.Marshal(spec)
	if err != nil {
		res.err = err
		return res
	}
	var st server.JobStatus
	err = tr.do(op, root, "server.submit", func() error {
		return w.call(c, http.MethodPost, "/v1/jobs", tenants[t], body, http.StatusAccepted, &st)
	})
	if err != nil {
		res.err = fmt.Errorf("submit spec %d: %w", k, err)
		return res
	}
	err = tr.do(op, root, "server.wait", func() error {
		for st.State != server.JobDone {
			if st.State == server.JobFailed {
				return fmt.Errorf("job failed: %s", st.Error)
			}
			time.Sleep(pollEvery)
			if err := w.call(c, http.MethodGet, "/v1/jobs/"+st.ID, tenants[t], nil, http.StatusOK, &st); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		res.err = fmt.Errorf("wait for spec %d: %w", k, err)
		return res
	}
	var rep struct {
		Report json.RawMessage `json:"report"`
	}
	err = tr.do(op, root, "server.report", func() error {
		hdr, data, err := w.request(c, http.MethodGet, "/v1/jobs/"+st.ID+"/report", tenants[t], "", nil, http.StatusOK)
		if err != nil {
			return err
		}
		res.etag = hdr.Get("ETag")
		return json.Unmarshal(data, &rep)
	})
	if err != nil {
		res.err = fmt.Errorf("report for spec %d: %w", k, err)
		return res
	}
	res.report = sha256.Sum256(rep.Report)
	err = tr.do(op, root, "server.revalidate", func() error {
		_, _, err := w.request(c, http.MethodGet, "/v1/jobs/"+st.ID+"/report", tenants[t], res.etag, nil, http.StatusNotModified)
		return err
	})
	if err != nil {
		res.err = fmt.Errorf("revalidate spec %d: %w", k, err)
	}
	return res
}

// request performs one exchange with the server, checks the status and
// returns the answer's headers and body.
func (w *daemonWorkload) request(c *http.Client, method, path, tenant, etag string, body []byte, want int) (http.Header, []byte, error) {
	req, err := http.NewRequest(method, w.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("X-Tenant", tenant)
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != want {
		return nil, nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	return resp.Header, data, nil
}

// call performs one exchange and decodes its JSON answer into out.
func (w *daemonWorkload) call(c *http.Client, method, path, tenant string, body []byte, want int, out any) error {
	_, data, err := w.request(c, method, path, tenant, "", body, want)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// verify checks every op against an in-process RunSpec.Execute of its
// spec: the served report must be byte-identical and the ETag must equal
// the result's provenance hash, so tenants sharing a spec share an ETag.
// It returns the failed-op count and the trace steps the ops of each
// round replayed.
// With a shadow tracer it also times, outside the measured window, the
// layer work the server did inside it.
func (w *daemonWorkload) verify(seed uint64, all []daemonOp, shadow *tracer) (int, map[int]int64, map[string]metric, error) {
	byK := make(map[int][]daemonOp)
	for _, r := range all {
		byK[r.k] = append(byK[r.k], r)
	}
	ks := make([]int, 0, len(byK))
	for k := range byK {
		ks = append(ks, k)
	}
	sort.Ints(ks)

	failed := 0
	steps := make(map[int]int64)
	stepsOf := make(map[string]int64)
	acc := simAcc{}
	var events float64
	for _, k := range ks {
		spec := daemonSpec(seed, k)
		ops := byK[k]
		exec := func() (*beacon.RunResult, error) { return spec.Execute(w.wc) }
		var res *beacon.RunResult
		err := shadow.do(k, -1, "server.exec", func() (err error) { res, err = exec(); return err })
		if err == nil {
			err = w.checkOps(spec, res, ops)
		}
		if err != nil {
			for _, r := range ops {
				if r.err == nil {
					failed++
				}
			}
			fmt.Fprintln(os.Stderr, "perfbench: verify:", err)
			continue
		}
		cs := spec.Workload.CanonicalString()
		n, ok := stepsOf[cs]
		if !ok {
			wl, err := spec.Workload.Build(w.wc)
			if err != nil {
				return 0, nil, nil, err
			}
			n = int64(wl.Steps)
			stepsOf[cs] = n
		}
		for _, r := range ops {
			if r.err == nil {
				steps[r.round] += n
			}
		}
		if shadow == nil {
			continue
		}
		ob := obs.New("perfbench")
		err = shadow.do(k, -1, "obs.exec", func() error {
			_, err := spec.Execute(w.wc, beacon.WithObserver(ob))
			return err
		})
		if err != nil {
			return 0, nil, nil, err
		}
		final := ob.Metrics.Dump().Final().Values
		events += final["engine.executed_events"] * float64(len(ops))
		for range ops {
			acc.add(spec.Workload.App, spec.Kind, final)
		}
		if e, ok := w.warm[cs]; ok {
			if err := w.probeReads(shadow, k, e); err != nil {
				return 0, nil, nil, err
			}
		}
	}
	if shadow == nil {
		return failed, steps, nil, nil
	}
	layer := make(map[string]metric)
	acc.metrics(layer)
	layer["sim.events_per_op"] = metric{events / float64(len(all)), "count"}
	return failed, steps, layer, nil
}

// checkOps compares the ops that ran spec with the in-process result.
func (w *daemonWorkload) checkOps(spec beacon.RunSpec, res *beacon.RunResult, ops []daemonOp) error {
	b, err := json.Marshal(res.Report)
	if err != nil {
		return err
	}
	want := sha256.Sum256(b)
	etag := server.ETag(server.ResultProvenance(spec, res))
	for _, r := range ops {
		if r.err != nil {
			continue
		}
		if r.report != want {
			return fmt.Errorf("%s: served report differs from in-process Execute", r.tenant)
		}
		if r.etag != etag {
			return fmt.Errorf("%s: ETag %s, want %s", r.tenant, r.etag, etag)
		}
	}
	return nil
}

// probeReads times the cache read path the server takes on a hit: a
// wcache Get of the warmed entry and a codec decode of its trace.
func (w *daemonWorkload) probeReads(shadow *tracer, k int, e warmEntry) error {
	err := shadow.do(k, -1, "wcache.get", func() error {
		got, err := w.raw.Get(e.key)
		if err == nil && got == nil {
			err = errors.New("warmed entry missing")
		}
		return err
	})
	if err != nil {
		return err
	}
	return shadow.do(k, -1, "trace.decode", func() error {
		_, err := trace.DecodeWorkload(e.encoded)
		return err
	})
}
