package beacon

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"beacon/internal/trace"
	"beacon/internal/wcache"
)

// TestWorkloadCacheDeterminism pins the cache's core contract: for every
// application, a cache-hit workload replays to a Report byte-identical to
// the cold build's, and the wrapper metadata matches field for field.
func TestWorkloadCacheDeterminism(t *testing.T) {
	t.Parallel()
	wc, err := OpenWorkloadCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := Platform{Kind: BeaconD, Opts: AllOptimizations()}
	for _, app := range []Application{FMSeeding, HashSeeding, KmerCounting, PreAlignment} {
		cfg := quickCfg(PinusTaeda)
		cold, err := NewWorkload(app, cfg)
		if err != nil {
			t.Fatalf("%v cold: %v", app, err)
		}
		// First cached call misses, builds and stores.
		if _, err := NewWorkloadCached(app, cfg, wc); err != nil {
			t.Fatalf("%v populate: %v", app, err)
		}
		// Second cached call must hit and decode.
		warm, err := NewWorkloadCached(app, cfg, wc)
		if err != nil {
			t.Fatalf("%v warm: %v", app, err)
		}
		if warm.Name != cold.Name || warm.App != cold.App || warm.Tasks != cold.Tasks ||
			warm.Steps != cold.Steps || warm.FootprintBytes != cold.FootprintBytes ||
			warm.Verified != cold.Verified {
			t.Fatalf("%v: wrapper metadata diverged:\ncold %+v\nwarm %+v", app, cold, warm)
		}
		if !reflect.DeepEqual(cold.tr, warm.tr) {
			t.Fatalf("%v: decoded trace differs from cold build", app)
		}
		a, err := Run(p, cold)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(p, warm)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: cache-hit report differs from cold report:\n%+v\nvs\n%+v", app, a, b)
		}
	}
	st := wc.Stats()
	if st.Hits != 4 || st.Misses != 4 || st.Puts != 4 || st.Corrupt != 0 {
		t.Errorf("stats = %+v, want 4 hits / 4 misses / 4 puts", st)
	}
}

// TestWorkloadCacheCorruptFallback damages a stored entry on disk; the
// cached constructor must regenerate transparently (recording the
// corruption in Stats) and repopulate the entry.
func TestWorkloadCacheCorruptFallback(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	wc, err := OpenWorkloadCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg(PinusTaeda)
	want, err := NewWorkloadCached(PreAlignment, cfg, wc)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.bwl"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache dir holds %d entries (%v), want 1", len(entries), err)
	}
	if err := os.WriteFile(entries[0], []byte("bit rot"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := NewWorkloadCached(PreAlignment, cfg, wc)
	if err != nil {
		t.Fatalf("corrupt entry surfaced as failure: %v", err)
	}
	if !reflect.DeepEqual(want.tr, got.tr) {
		t.Fatal("regenerated workload differs from original")
	}
	if st := wc.Stats(); st.Corrupt != 1 {
		t.Errorf("corrupt count = %d, want 1 (stats %+v)", st.Corrupt, st)
	}
	// The rebuild must have repopulated the entry: next call hits.
	before := wc.Stats().Hits
	if _, err := NewWorkloadCached(PreAlignment, cfg, wc); err != nil {
		t.Fatal(err)
	}
	if wc.Stats().Hits != before+1 {
		t.Error("rebuilt entry was not stored back")
	}
}

// TestWorkloadCacheKeyVersioned pins the cache key's shape: the
// WorkloadSpec canonical encoding (whose per-field coverage lives in
// TestRunSpecCanonicalHashCoversEveryField) prefixed with the codec and
// generator versions, so a format bump orphans old entries.
func TestWorkloadCacheKeyVersioned(t *testing.T) {
	t.Parallel()
	cfg := DefaultWorkloadConfig(PinusTaeda)
	key := WorkloadSpec{App: FMSeeding, Config: cfg}.cacheKey()
	want := "codec=" + strconv.Itoa(trace.CodecVersion) +
		"|gen=" + strconv.Itoa(workloadGenVersion) +
		"|" + WorkloadSpec{App: FMSeeding, Config: cfg}.CanonicalString()
	if key != want {
		t.Errorf("cache key drifted:\ngot  %s\nwant %s", key, want)
	}
	if (WorkloadSpec{App: HashSeeding, Config: cfg}).cacheKey() == key {
		t.Error("changing the application does not change the cache key")
	}
	// The entry address itself is pinned, so a refactor of the key's
	// construction cannot orphan existing entries unnoticed; a codec or
	// generator version bump changes it on purpose.
	const entry = "09eb4aafc5c58b79bac02c30757e95cbf0a5cefa2ab08992fb18d1ed8d0376e7"
	if got := wcache.Key(key); got != entry {
		t.Errorf("cache entry address = %s, want %s", got, entry)
	}
}

// TestSentinelErrors checks that every failure class matches its sentinel
// through errors.Is, across the wrapping layers.
func TestSentinelErrors(t *testing.T) {
	t.Parallel()
	bad := DefaultWorkloadConfig(PinusTaeda)
	bad.Reads = 0
	if _, err := NewWorkload(FMSeeding, bad); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero reads: %v, want ErrBadConfig", err)
	}
	unknown := DefaultWorkloadConfig(Species("Zz"))
	if _, err := NewWorkload(FMSeeding, unknown); !errors.Is(err, ErrUnknownSpecies) {
		t.Errorf("unknown species: %v, want ErrUnknownSpecies", err)
	}
	if _, err := NewWorkload(GraphProcessing, DefaultWorkloadConfig(PinusTaeda)); !errors.Is(err, ErrUnsupportedApp) {
		t.Errorf("extension app: %v, want ErrUnsupportedApp", err)
	}
	badFlow := quickCfg(Human)
	badFlow.Flow = KmerFlow(42)
	if _, err := NewWorkload(KmerCounting, badFlow); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad flow: %v, want ErrBadConfig", err)
	}
	// The facade sentinel and the internal cache sentinel are one value, so
	// matching works across the boundary.
	if !errors.Is(ErrCacheCorrupt, wcache.ErrCorrupt) {
		t.Error("ErrCacheCorrupt does not match wcache.ErrCorrupt")
	}
	// The cached constructor also propagates constructor sentinels.
	wc, err := OpenWorkloadCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWorkloadCached(FMSeeding, bad, wc); !errors.Is(err, ErrBadConfig) {
		t.Errorf("cached constructor: %v, want ErrBadConfig", err)
	}
}

// TestRunEquivalence pins how Run's options compose.
func TestRunEquivalence(t *testing.T) {
	t.Parallel()
	wl, err := NewFMSeedingWorkload(quickCfg(PinusTaeda))
	if err != nil {
		t.Fatal(err)
	}
	p := Platform{Kind: BeaconD, Opts: AllOptimizations()}

	res, err := Run(p, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tenants != nil {
		t.Error("single-tenant Run reported tenants")
	}

	// Co-location reports the combined run plus one entry per tenant, in
	// workload order.
	second, err := NewPreAlignmentWorkload(quickCfg(PinusTaeda))
	if err != nil {
		t.Fatal(err)
	}
	shared, err := Run(p, wl, WithCoRun(second))
	if err != nil {
		t.Fatal(err)
	}
	if shared.Report.Workload != "shared" || shared.Report.Cycles <= res.Report.Cycles {
		t.Errorf("combined report %+v, want the shared run to outlast the solo one (%d cycles)",
			shared.Report, res.Report.Cycles)
	}
	if len(shared.Tenants) != 2 || shared.Tenants[0].Workload != wl.Name || shared.Tenants[1].Workload != second.Name {
		t.Errorf("tenants = %+v, want %s then %s", shared.Tenants, wl.Name, second.Name)
	}

	// A nil observer is a no-op and composes with anything.
	if _, err := Run(p, wl, WithCoRun(second), WithObserver(nil)); err != nil {
		t.Errorf("nil observer with co-run: %v, want success", err)
	}
}
