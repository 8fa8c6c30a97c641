package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"beacon"
	"beacon/internal/fmindex"
	"beacon/internal/genome"
	"beacon/internal/hashindex"
	"beacon/internal/kmer"
	"beacon/internal/prealign"
	"beacon/internal/trace"
	"beacon/internal/wcache"
)

// buildApps sizes the build workloads so each app's cold build costs
// about the same host time.
var buildApps = []appInput{
	{beacon.FMSeeding, beacon.PinusTaeda, 8_000, 120},
	{beacon.HashSeeding, beacon.PinusTaeda, 2_000, 120},
	{beacon.KmerCounting, beacon.Human, 8_000, 240},
	{beacon.PreAlignment, beacon.PinusTaeda, 8_000, 360},
}

// genomeSpecies maps the datasets the benchmark uses onto the genome
// package's species.
var genomeSpecies = map[beacon.Species]genome.Species{
	beacon.PinusTaeda: genome.PinusTaeda,
	beacon.Human:      genome.HumanLike,
}

// buildWorkload: a closed loop with one client, each op one cold
// beacon.NewWorkloadCached (genome, kernel, verify, encode, put) into a
// fresh on-disk cache with a per-op seed. There is no simulation: the
// mirror image of replay.
type buildWorkload struct {
	dir string
	wc  *beacon.WorkloadCache
	raw *wcache.Cache
}

func (w *buildWorkload) setUp(o options) error {
	dir, err := os.MkdirTemp(o.workdir, "build-")
	if err != nil {
		return err
	}
	w.dir = dir
	if w.wc, err = beacon.OpenWorkloadCache(filepath.Join(dir, "cache")); err != nil {
		return err
	}
	if w.raw, err = wcache.Open(filepath.Join(dir, "traced")); err != nil {
		return err
	}
	// One cold build per app lets lazy runtime state settle before timing.
	for i, a := range buildApps {
		if _, err := w.coldBuild(a, mix64(o.seed, 3, uint64(i))); err != nil {
			return err
		}
	}
	return nil
}

func (w *buildWorkload) tearDown() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
	*w = buildWorkload{}
}

// coldBuild is one untraced op: a cache miss that must build, verify and
// store.
func (w *buildWorkload) coldBuild(a appInput, seed uint64) (int64, error) {
	before := w.wc.Stats()
	wl, err := beacon.NewWorkloadCached(a.app, a.config(seed), w.wc)
	if err != nil {
		return 0, err
	}
	after := w.wc.Stats()
	switch {
	case !wl.Verified:
		return 0, fmt.Errorf("build %s: not verified", wl.Name)
	case after.Misses != before.Misses+1:
		return 0, fmt.Errorf("build %s: expected a cache miss", wl.Name)
	case after.Puts != before.Puts+1:
		return 0, fmt.Errorf("build %s: cache put failed", wl.Name)
	}
	return int64(wl.Steps), nil
}

// buildOp is the i-th op of the build schedule: the apps in turn, each
// op with its own workload seed.
func buildOp(seed uint64, i int) (appInput, uint64) {
	return buildApps[i%len(buildApps)], mix64(seed, 2, uint64(i))
}

func (w *buildWorkload) run(o options, tr *tracer) (*runStats, error) {
	n := len(buildApps)
	if tr == nil {
		return measure(o.seconds, n, nil, func(i int) (int64, error) {
			return w.coldBuild(buildOp(o.seed, i))
		})
	}
	encoded := make(map[int][32]byte) // first traced op of each app
	var encBytes, encodes float64
	st, err := measure(o.seconds, n, nil, func(i int) (int64, error) {
		a, seed := buildOp(o.seed, i)
		tw, enc, err := w.tracedBuild(tr, i, a, seed)
		if err != nil {
			return 0, err
		}
		encBytes += float64(len(enc))
		encodes++
		if i < n {
			encoded[i] = sha256.Sum256(enc)
		}
		return int64(tw.TotalSteps()), nil
	})
	if err != nil {
		return nil, err
	}
	st.layer["trace.encoded_kb"] = metric{encBytes / 1e3 / encodes, "KB"}
	// The decomposition must produce exactly the bytes the real path
	// stores, or its spans would describe some other computation.
	for i := 0; i < n; i++ {
		got, err := w.realEncoding(buildOp(o.seed, i))
		if err != nil {
			return nil, err
		}
		if sha256.Sum256(got) != encoded[i] {
			st.failed++
			fmt.Fprintf(os.Stderr, "perfbench: traced %v build differs from beacon.NewWorkload\n", buildApps[i].app)
		}
	}
	return st, nil
}

// realEncoding builds a workload through beacon.NewWorkloadCached into an
// empty cache and returns the stored trace's encoding.
func (w *buildWorkload) realEncoding(a appInput, seed uint64) ([]byte, error) {
	dir, err := os.MkdirTemp(w.dir, "check-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	wc, err := beacon.OpenWorkloadCache(dir)
	if err != nil {
		return nil, err
	}
	if _, err := beacon.NewWorkloadCached(a.app, a.config(seed), wc); err != nil {
		return nil, err
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.bwl"))
	if err != nil || len(files) != 1 {
		return nil, fmt.Errorf("check cache holds %d entries, want 1 (%v)", len(files), err)
	}
	c, err := wcache.Open(dir)
	if err != nil {
		return nil, err
	}
	e, err := c.Get(strings.TrimSuffix(filepath.Base(files[0]), ".bwl"))
	if err != nil || e == nil {
		return nil, fmt.Errorf("reading check entry: %v", err)
	}
	return trace.EncodeWorkload(e.Workload), nil
}

// tracedBuild performs beacon.NewWorkloadCached's miss path one layer call
// at a time, in NewWorkload's order, with a span around each call.
func (w *buildWorkload) tracedBuild(tr *tracer, op int, a appInput, seed uint64) (*trace.Workload, []byte, error) {
	root := tr.begin(op, -1, "op")
	defer tr.end(root)
	do := func(name string, f func() error) error { return tr.do(op, root, name, f) }
	cfg := a.config(seed)

	var ref *genome.Sequence
	var reads []genome.Read
	err := do("genome.synth", func() (err error) {
		ref, err = genome.SpeciesGenome(genomeSpecies[cfg.Species], cfg.GenomeScale)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	err = do("genome.sample", func() (err error) {
		reads, err = genome.SampleReads(ref, genome.ReadConfig{
			Count: cfg.Reads, Length: cfg.ReadLength, ErrorRate: cfg.ErrorRate,
			ReverseFraction: 0.5, Seed: cfg.Seed,
		})
		return err
	})
	if err != nil {
		return nil, nil, err
	}

	var tw *trace.Workload
	switch a.app {
	case beacon.FMSeeding:
		tw, err = tracedFM(do, cfg, ref, reads)
	case beacon.HashSeeding:
		tw, err = tracedHash(do, cfg, ref, reads)
	case beacon.KmerCounting:
		tw, err = tracedKmer(do, cfg, reads)
	case beacon.PreAlignment:
		err = do("prealign.filter", func() (err error) {
			pcfg := prealign.Config{MaxEdits: cfg.MaxEdits, Candidates: cfg.Candidates}
			_, tw, err = prealign.FilterReads(ref, reads, pcfg, cfg.Seed, fmt.Sprintf("pre-alignment/%s", cfg.Species))
			return err
		})
	}
	if err != nil {
		return nil, nil, err
	}

	var enc []byte
	_ = do("trace.encode", func() error {
		enc = trace.EncodeWorkload(tw)
		return nil
	})
	key := wcache.Key("perfbench|" + beacon.WorkloadSpec{App: a.app, Config: cfg}.CanonicalString())
	err = do("wcache.put", func() error {
		return w.raw.Put(key, &wcache.Entry{Workload: tw, App: a.app.String(), Verified: true})
	})
	if err != nil {
		return nil, nil, err
	}
	return tw, enc, nil
}

type doFunc func(name string, f func() error) error

func tracedFM(do doFunc, cfg beacon.WorkloadConfig, ref *genome.Sequence, reads []genome.Read) (*trace.Workload, error) {
	var idx *fmindex.Index
	if err := do("fmindex.build", func() (err error) { idx, err = fmindex.Build(ref); return err }); err != nil {
		return nil, err
	}
	scfg := fmindex.SeedingConfig{SeedLen: cfg.SeedLen, MaxHits: cfg.MaxHits}
	var results []fmindex.SeedingResult
	var tw *trace.Workload
	err := do("fmindex.seed", func() (err error) {
		results, tw, err = fmindex.SeedReads(idx, reads, scfg, fmt.Sprintf("fm-seeding/%s", cfg.Species))
		return err
	})
	if err != nil {
		return nil, err
	}
	return tw, do("fmindex.verify", func() error { return fmindex.VerifySeeding(ref, reads, scfg, results) })
}

func tracedHash(do doFunc, cfg beacon.WorkloadConfig, ref *genome.Sequence, reads []genome.Read) (*trace.Workload, error) {
	hcfg := hashindex.DefaultConfig()
	hcfg.MaxHits = cfg.MaxHits
	var idx *hashindex.Index
	if err := do("hashindex.build", func() (err error) { idx, err = hashindex.Build(ref, hcfg); return err }); err != nil {
		return nil, err
	}
	var results []hashindex.Result
	var tw *trace.Workload
	err := do("hashindex.seed", func() (err error) {
		results, tw, err = hashindex.SeedReads(idx, reads, fmt.Sprintf("hash-seeding/%s", cfg.Species))
		return err
	})
	if err != nil {
		return nil, err
	}
	return tw, do("hashindex.verify", func() error { return hashindex.VerifySeeding(ref, reads, hcfg.K, results) })
}

func tracedKmer(do doFunc, cfg beacon.WorkloadConfig, reads []genome.Read) (*trace.Workload, error) {
	kcfg := kmer.DefaultConfig()
	kcfg.K = cfg.K
	name := fmt.Sprintf("kmer-multipass/%s", cfg.Species)
	var res *kmer.FlowResult
	if err := do("kmer.count", func() (err error) { res, err = kmer.CountMultiPass(reads, kcfg, 8, name); return err }); err != nil {
		return nil, err
	}
	return res.Workload, do("kmer.verify", func() error {
		for m, want := range kmer.CountExact(reads, kcfg.K) {
			if got := res.Counts[m]; got != want {
				return fmt.Errorf("count(%s)=%d want %d", m.String(kcfg.K), got, want)
			}
		}
		return nil
	})
}
