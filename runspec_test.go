package beacon

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// quickSpec is a small runnable spec for the RunSpec tests.
func quickSpec() RunSpec {
	return NewRunSpec(FMSeeding, quickCfg(PinusTaeda))
}

// TestRunSpecJSONRoundTrip pins that marshal→unmarshal is the identity on
// normalized specs, across platforms, flows, faults and co-run sets.
func TestRunSpecJSONRoundTrip(t *testing.T) {
	t.Parallel()
	specs := []RunSpec{
		quickSpec(),
		func() RunSpec {
			s := NewRunSpec(KmerCounting, quickCfg(Human))
			s.Workload.Config.Flow = SinglePass
			s.Kind = BeaconS
			s.Opts = Vanilla()
			s.Opts.IdealComm = true
			s.Faults = "heavy"
			s.FaultSeed = 42
			return s
		}(),
		func() RunSpec {
			s := quickSpec()
			s.CoRun = []WorkloadSpec{
				{App: PreAlignment, Config: quickCfg(PinusTaeda)},
				{App: HashSeeding, Config: quickCfg(PiceaGlauca)},
			}
			return s
		}(),
		func() RunSpec {
			s := NewRunSpec(PreAlignment, quickCfg(AmbystomaMexicanum))
			s.Kind = CPU
			return s
		}(),
	}
	for i, want := range specs {
		data, err := json.Marshal(want)
		if err != nil {
			t.Fatalf("spec %d: marshal: %v", i, err)
		}
		got, err := ParseRunSpec(data)
		if err != nil {
			t.Fatalf("spec %d: parse: %v\n%s", i, err, data)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("spec %d: round trip diverged:\nwant %+v\ngot  %+v", i, want, got)
		}
		if got.CanonicalHash() != want.CanonicalHash() {
			t.Errorf("spec %d: round trip changed the canonical hash", i)
		}
	}
}

// TestRunSpecJSONNormalizes pins that marshaling canonicalizes the spelling
// of default names, so the wire form is unambiguous.
func TestRunSpecJSONNormalizes(t *testing.T) {
	t.Parallel()
	s := quickSpec()
	s.Faults = "" // same meaning as "off"
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"faults":"off"`) {
		t.Errorf("marshal did not normalize faults: %s", data)
	}
	if strings.Contains(string(data), `"scheduler"`) {
		t.Errorf("wire form carries the version 1 scheduler key: %s", data)
	}
}

// TestRunSpecStrictDecoding pins the rejection surface: unknown fields at
// every nesting level, trailing data, wrong versions, unknown enum names.
func TestRunSpecStrictDecoding(t *testing.T) {
	t.Parallel()
	valid, err := json.Marshal(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(mut func(map[string]any)) string {
		var m map[string]any
		if err := json.Unmarshal(valid, &m); err != nil {
			t.Fatal(err)
		}
		mut(m)
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	cases := []struct {
		name     string
		body     string
		sentinel error
	}{
		{"top-level unknown field", mutate(func(m map[string]any) { m["surprise"] = 1 }), ErrBadConfig},
		{"workload unknown field", mutate(func(m map[string]any) {
			m["workload"].(map[string]any)["coverage"] = 30
		}), ErrBadConfig},
		{"options unknown field", mutate(func(m map[string]any) {
			m["options"].(map[string]any)["turbo"] = true
		}), ErrBadConfig},
		{"trailing data", string(valid) + `{"version":1}`, ErrBadConfig},
		{"future version", mutate(func(m map[string]any) { m["version"] = RunSpecVersion + 1 }), ErrBadConfig},
		{"missing version", mutate(func(m map[string]any) { delete(m, "version") }), ErrBadConfig},
		{"version 1 body with scheduler", mutate(func(m map[string]any) {
			m["version"] = 1
			m["scheduler"] = "calendar"
		}), ErrBadConfig},
		{"unknown application", mutate(func(m map[string]any) {
			m["workload"].(map[string]any)["app"] = "protein-folding"
		}), ErrUnsupportedApp},
		{"unknown platform", mutate(func(m map[string]any) { m["platform"] = "tpu" }), ErrBadConfig},
		{"unknown flow", mutate(func(m map[string]any) {
			m["workload"].(map[string]any)["flow"] = "three-pass"
		}), ErrBadConfig},
		{"not json", "platform=beacon-d", ErrBadConfig},
	}
	for _, tc := range cases {
		_, err := ParseRunSpec([]byte(tc.body))
		if !errors.Is(err, tc.sentinel) || HTTPStatus(err) != HTTPStatus(tc.sentinel) {
			t.Errorf("%s: err = %v (status %d), want %v", tc.name, err, HTTPStatus(err), tc.sentinel)
		}
	}
}

// TestRunSpecCanonicalStringGolden pins the canonical encoding byte for
// byte. Changing it silently would orphan every cache entry and change
// every job ID — if this test fails, bump workloadGenVersion /
// RunSpecVersion deliberately instead of editing the expectation casually.
func TestRunSpecCanonicalStringGolden(t *testing.T) {
	t.Parallel()
	spec := NewRunSpec(FMSeeding, DefaultWorkloadConfig(PinusTaeda))
	const want = "beacon.RunSpec/v2" +
		"|app=fm-seeding|species=Pt|scale=30000|reads=500|readlen=100" +
		"|errrate=0.01|seed=12495879|seedlen=20|maxhits=8|mem=false" +
		"|memminlen=19|k=28|flow=multi-pass|maxedits=5|candidates=8" +
		"|platform=beacon-d|pack=true|maopt=true|place=true|coal=true|ideal=false" +
		"|faults=off|faultseed=0|corun=0"
	if got := spec.CanonicalString(); got != want {
		t.Errorf("canonical string drifted:\ngot  %s\nwant %s", got, want)
	}
}

// TestRunSpecCanonicalHashCoversEveryField mutates every spec knob — the
// whole WorkloadConfig plus every platform-side field — and checks the
// canonical hash changes. Together with the unkeyed-literal compile guards
// in runspec.go this makes stale cache hits and job-ID collisions across
// differing specs impossible by construction. (It subsumes the former
// per-field workload cache key test: the cache key embeds this encoding.)
func TestRunSpecCanonicalHashCoversEveryField(t *testing.T) {
	t.Parallel()
	base := NewRunSpec(FMSeeding, DefaultWorkloadConfig(PinusTaeda))
	baseHash := base.CanonicalHash()
	mutations := map[string]func(*RunSpec){
		"Version":           func(s *RunSpec) { s.Version++ },
		"Workload.App":      func(s *RunSpec) { s.Workload.App = HashSeeding },
		"Config.Species":    func(s *RunSpec) { s.Workload.Config.Species = Human },
		"Config.Scale":      func(s *RunSpec) { s.Workload.Config.GenomeScale++ },
		"Config.Reads":      func(s *RunSpec) { s.Workload.Config.Reads++ },
		"Config.ReadLength": func(s *RunSpec) { s.Workload.Config.ReadLength++ },
		"Config.ErrorRate":  func(s *RunSpec) { s.Workload.Config.ErrorRate += 0.001 },
		"Config.Seed":       func(s *RunSpec) { s.Workload.Config.Seed++ },
		"Config.SeedLen":    func(s *RunSpec) { s.Workload.Config.SeedLen++ },
		"Config.MaxHits":    func(s *RunSpec) { s.Workload.Config.MaxHits++ },
		"Config.MEMSeeding": func(s *RunSpec) { s.Workload.Config.MEMSeeding = true },
		"Config.MEMMinLen":  func(s *RunSpec) { s.Workload.Config.MEMMinLen++ },
		"Config.K":          func(s *RunSpec) { s.Workload.Config.K++ },
		"Config.Flow":       func(s *RunSpec) { s.Workload.Config.Flow = SinglePass },
		"Config.MaxEdits":   func(s *RunSpec) { s.Workload.Config.MaxEdits++ },
		"Config.Candidates": func(s *RunSpec) { s.Workload.Config.Candidates++ },
		"Kind":              func(s *RunSpec) { s.Kind = BeaconS },
		"Opts.DataPacking":  func(s *RunSpec) { s.Opts.DataPacking = false },
		"Opts.MemAccessOpt": func(s *RunSpec) { s.Opts.MemAccessOpt = false },
		"Opts.Placement":    func(s *RunSpec) { s.Opts.Placement = false },
		"Opts.Coalescing":   func(s *RunSpec) { s.Opts.Coalescing = false },
		"Opts.IdealComm":    func(s *RunSpec) { s.Opts.IdealComm = true },
		"Faults":            func(s *RunSpec) { s.Faults = "heavy" },
		"FaultSeed":         func(s *RunSpec) { s.FaultSeed++ },
		"CoRun": func(s *RunSpec) {
			s.CoRun = []WorkloadSpec{{App: PreAlignment, Config: DefaultWorkloadConfig(PinusTaeda)}}
		},
	}
	names := make([]string, 0, len(mutations))
	for name := range mutations {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		spec := base
		mutations[name](&spec)
		if spec.CanonicalHash() == baseHash {
			t.Errorf("changing %s does not change the canonical hash", name)
		}
	}
	// Co-run order matters: tenant 0 and tenant 1 are different placements.
	a, b := base, base
	a.CoRun = []WorkloadSpec{
		{App: PreAlignment, Config: DefaultWorkloadConfig(PinusTaeda)},
		{App: HashSeeding, Config: DefaultWorkloadConfig(PinusTaeda)},
	}
	b.CoRun = []WorkloadSpec{a.CoRun[1], a.CoRun[0]}
	if a.CanonicalHash() == b.CanonicalHash() {
		t.Error("swapping co-run order does not change the canonical hash")
	}
}

// TestRunSpecCanonicalNormalization pins that equivalent spellings of the
// default fault name hash identically, and non-equivalent settings do not.
func TestRunSpecCanonicalNormalization(t *testing.T) {
	t.Parallel()
	base := quickSpec()
	for _, alias := range []string{"", "off", "none"} {
		s := base
		s.Faults = alias
		if s.CanonicalHash() != base.CanonicalHash() {
			t.Errorf("faults %q should hash like %q", alias, base.Faults)
		}
	}
	s := base
	s.Faults = "default"
	if s.CanonicalHash() == base.CanonicalHash() {
		t.Error(`faults "default" should not hash like "off"`)
	}
}

// TestRunSpecValidate walks the rejection table: each malformed spec maps
// to its sentinel (and therefore to the right HTTP status).
func TestRunSpecValidate(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name     string
		mutate   func(*RunSpec)
		sentinel error
	}{
		{"wrong version", func(s *RunSpec) { s.Version = 99 }, ErrBadConfig},
		{"zero reads", func(s *RunSpec) { s.Workload.Config.Reads = 0 }, ErrBadConfig},
		{"unknown species", func(s *RunSpec) { s.Workload.Config.Species = "Zz" }, ErrUnknownSpecies},
		{"extension app", func(s *RunSpec) { s.Workload.App = GraphProcessing }, ErrUnsupportedApp},
		{"unknown app", func(s *RunSpec) { s.Workload.App = Application(99) }, ErrUnsupportedApp},
		{"unknown flow", func(s *RunSpec) { s.Workload.Config.Flow = KmerFlow(9) }, ErrBadConfig},
		{"unknown kind", func(s *RunSpec) { s.Kind = PlatformKind(99) }, ErrBadConfig},
		{"unknown faults", func(s *RunSpec) { s.Faults = "catastrophic" }, ErrBadConfig},
		{"co-run on cpu", func(s *RunSpec) {
			s.Kind = CPU
			s.CoRun = []WorkloadSpec{{App: PreAlignment, Config: quickCfg(PinusTaeda)}}
		}, ErrBadConfig},
		{"bad co-run workload", func(s *RunSpec) {
			bad := quickCfg(PinusTaeda)
			bad.Reads = 0
			s.CoRun = []WorkloadSpec{{App: PreAlignment, Config: bad}}
		}, ErrBadConfig},
	}
	for _, tc := range cases {
		spec := quickSpec()
		tc.mutate(&spec)
		if err := spec.Validate(); !errors.Is(err, tc.sentinel) {
			t.Errorf("%s: Validate = %v, want %v", tc.name, err, tc.sentinel)
		}
		if _, err := spec.Execute(nil); !errors.Is(err, tc.sentinel) {
			t.Errorf("%s: Execute = %v, want %v", tc.name, err, tc.sentinel)
		}
	}
	if err := quickSpec().Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestRunSpecExecuteMatchesRun pins the tentpole equivalence: a spec run
// through Execute produces results identical to hand-assembling the
// Platform and calling Run — including under fault injection and with a
// co-run set — so the daemon path and the in-process path are one path.
func TestRunSpecExecuteMatchesRun(t *testing.T) {
	t.Parallel()
	spec := quickSpec()
	spec.Faults = "heavy"
	spec.FaultSeed = 7

	got, err := spec.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := NewWorkload(FMSeeding, quickCfg(PinusTaeda))
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ParseFaultProfile("heavy")
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(Platform{Kind: BeaconD, Opts: AllOptimizations(), Faults: prof, FaultSeed: 7}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Execute diverged from Run:\ngot  %+v\nwant %+v", got.Report, want.Report)
	}

	// Co-located run, built through a shared cache.
	wc, err := OpenWorkloadCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shared := quickSpec()
	shared.CoRun = []WorkloadSpec{{App: PreAlignment, Config: quickCfg(PinusTaeda)}}
	gotShared, err := shared.Execute(wc)
	if err != nil {
		t.Fatal(err)
	}
	second, err := NewWorkload(PreAlignment, quickCfg(PinusTaeda))
	if err != nil {
		t.Fatal(err)
	}
	wantShared, err := Run(Platform{Kind: BeaconD, Opts: AllOptimizations()}, wl, WithCoRun(second))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotShared, wantShared) {
		t.Error("co-run Execute diverged from Run with WithCoRun")
	}
	// Executing the same spec again hits the cache for both workloads and
	// must stay byte-identical.
	again, err := shared.Execute(wc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, gotShared) {
		t.Error("cache-hit Execute diverged from cold Execute")
	}
	if st := wc.Stats(); st.Hits != 2 || st.Misses != 2 {
		t.Errorf("cache stats = %+v, want 2 hits / 2 misses", st)
	}
}

// TestParseEnumInverses pins the parser/String inverses the wire format
// relies on.
func TestParseEnumInverses(t *testing.T) {
	t.Parallel()
	for _, a := range []Application{FMSeeding, HashSeeding, KmerCounting, PreAlignment,
		GraphProcessing, DatabaseSearch, ImageProcessing} {
		got, err := ParseApplication(a.String())
		if err != nil || got != a {
			t.Errorf("ParseApplication(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseApplication("nope"); !errors.Is(err, ErrUnsupportedApp) {
		t.Errorf("unknown app: %v, want ErrUnsupportedApp", err)
	}
	for _, k := range []PlatformKind{CPU, DDRBaseline, BeaconD, BeaconS} {
		got, err := ParsePlatformKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParsePlatformKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParsePlatformKind("abacus"); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown platform: %v, want ErrBadConfig", err)
	}
	for _, f := range []KmerFlow{MultiPass, SinglePass} {
		got, err := ParseKmerFlow(f.String())
		if err != nil || got != f {
			t.Errorf("ParseKmerFlow(%q) = %v, %v", f.String(), got, err)
		}
	}
	if got, err := ParseKmerFlow(""); err != nil || got != MultiPass {
		t.Errorf(`ParseKmerFlow("") = %v, %v, want MultiPass`, got, err)
	}
	if _, err := ParseKmerFlow(fmt.Sprintf("flow(%d)", 9)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown flow: %v, want ErrBadConfig", err)
	}
}
