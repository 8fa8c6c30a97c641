package beacon

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"beacon/internal/trace"
	"beacon/internal/wcache"
)

// workloadGenVersion versions the functional kernels' trace emission. It
// participates in every cache key: bump it whenever any generator changes
// the steps it emits, so entries written by older binaries become
// unreachable instead of needing detection.
const workloadGenVersion = 1

// WorkloadCache is a content-addressed on-disk cache for built workloads.
// The functional phase — synthetic genome, FM/hash indexes, kernel runs,
// verification — dwarfs the cost of decoding a stored trace, so re-running
// an experiment with an unchanged configuration skips it entirely.
//
// The cache is a pure accelerant: a hit yields the exact workload a cold
// build would produce (pinned by TestWorkloadCacheDeterminism), corrupt
// entries are evicted and rebuilt, and write failures are ignored. Safe
// for concurrent use across goroutines and processes.
type WorkloadCache struct {
	c *wcache.Cache
}

// WorkloadCacheStats counts cache traffic since OpenWorkloadCache.
type WorkloadCacheStats = wcache.Stats

// DefaultWorkloadCacheDir returns the per-user default cache location
// (the OS cache root + "beacon/workloads").
func DefaultWorkloadCacheDir() (string, error) {
	// The location is ambient by design (per-user cache root); entries are
	// content-addressed, so where they live never affects results.
	//beaconlint:allow nodeterminism cache directory location never affects simulation results
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("beacon: no user cache dir: %w", err)
	}
	return filepath.Join(base, "beacon", "workloads"), nil
}

// OpenWorkloadCache opens (creating if needed) the cache rooted at dir; an
// empty dir selects DefaultWorkloadCacheDir.
func OpenWorkloadCache(dir string) (*WorkloadCache, error) {
	if dir == "" {
		d, err := DefaultWorkloadCacheDir()
		if err != nil {
			return nil, err
		}
		dir = d
	}
	c, err := wcache.Open(dir)
	if err != nil {
		return nil, err
	}
	return &WorkloadCache{c: c}, nil
}

// Dir returns the cache root directory.
func (wc *WorkloadCache) Dir() string { return wc.c.Dir() }

// Stats returns hit/miss/corrupt/put counters since OpenWorkloadCache.
func (wc *WorkloadCache) Stats() WorkloadCacheStats { return wc.c.Stats() }

// cacheKey builds the spec's on-disk cache identity: its canonical encoding
// (which enumerates every field, under the compile guard in runspec.go)
// prefixed with the codec and generator versions. Any knob or format change
// addresses a different entry, so stale hits are impossible by
// construction.
func (ws WorkloadSpec) cacheKey() string {
	return strings.Join([]string{
		"codec=" + strconv.Itoa(trace.CodecVersion),
		"gen=" + strconv.Itoa(workloadGenVersion),
		ws.CanonicalString(),
	}, "|")
}

// NewWorkloadCached is NewWorkload backed by the on-disk cache: a hit
// decodes the stored trace instead of re-running the functional phase, a
// miss builds and stores. A nil cache is exactly NewWorkload. Corrupt
// entries (ErrCacheCorrupt in Stats) are evicted and rebuilt transparently.
func NewWorkloadCached(app Application, cfg WorkloadConfig, wc *WorkloadCache) (*Workload, error) {
	if wc == nil {
		return NewWorkload(app, cfg)
	}
	key := wcache.Key(WorkloadSpec{App: app, Config: cfg}.cacheKey())
	if e, err := wc.c.Get(key); err == nil && e != nil && e.App == app.String() {
		return wrap(e.Workload.Name, app, e.Workload, e.Verified), nil
	}
	// Miss, corrupt (already evicted by Get), or an entry recorded under a
	// different app (impossible without a key collision): rebuild.
	w, err := NewWorkload(app, cfg)
	if err != nil {
		return nil, err
	}
	// Best-effort store: a full disk or read-only cache dir must never
	// fail the run itself.
	_ = wc.c.Put(key, &wcache.Entry{Workload: w.tr, App: app.String(), Verified: w.Verified})
	return w, nil
}
