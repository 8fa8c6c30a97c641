package beacon

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// RunSpecVersion is the wire version of the RunSpec serialization. Bump it
// whenever the JSON shape or the canonical encoding changes incompatibly;
// decoders reject every other version, so a daemon and its clients can
// never silently disagree about what a spec means.
const RunSpecVersion = 2

// WorkloadSpec names one workload to construct: the application plus its
// full configuration. It is the declarative counterpart of NewWorkload —
// two equal specs build byte-identical workloads — and the unit the
// workload cache is keyed over.
type WorkloadSpec struct {
	// App is the application kind.
	App Application
	// Config parameterizes construction.
	Config WorkloadConfig
}

// RunSpec is the versioned, serializable description of one simulation
// run: what to build (workload + co-run set) and where to replay it
// (platform, optimization ladder position, fault profile and seed). It is the single construction path behind the CLIs and the
// beaconsimd daemon: flag sets and HTTP bodies both compile down to a
// RunSpec, Execute turns it into a RunResult, and CanonicalHash gives it a
// stable content address for job IDs and cache keys.
//
// The zero value is not runnable; start from NewRunSpec.
type RunSpec struct {
	// Version is the spec version (RunSpecVersion).
	Version int
	// Workload is the primary workload.
	Workload WorkloadSpec
	// CoRun lists additional workloads co-located with the primary one on
	// a shared BEACON pool (the §II multi-tenant scenario). Empty for
	// single-tenant runs.
	CoRun []WorkloadSpec
	// Kind selects the platform.
	Kind PlatformKind
	// Opts positions BEACON on its optimization ladder.
	Opts Options
	// Faults names the fault-injection profile ("off", "default",
	// "heavy"; "" means "off").
	Faults string
	// FaultSeed seeds the deterministic per-component fault streams.
	FaultSeed uint64
}

// NewRunSpec returns a runnable spec for the given workload on the default
// platform: BEACON-D with the full optimization stack, no faults.
func NewRunSpec(app Application, cfg WorkloadConfig) RunSpec {
	return RunSpec{
		Version:  RunSpecVersion,
		Workload: WorkloadSpec{App: app, Config: cfg},
		Kind:     BeaconD,
		Opts:     AllOptimizations(),
		Faults:   "off",
	}
}

// ParseApplication resolves an application name (the Application.String
// forms). Unknown names report ErrUnsupportedApp.
func ParseApplication(s string) (Application, error) {
	for _, a := range []Application{
		FMSeeding, HashSeeding, KmerCounting, PreAlignment,
		GraphProcessing, DatabaseSearch, ImageProcessing,
	} {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown application %q", ErrUnsupportedApp, s)
}

// ParsePlatformKind resolves a platform name (the PlatformKind.String
// forms: "cpu", "ddr-ndp", "beacon-d", "beacon-s").
func ParsePlatformKind(s string) (PlatformKind, error) {
	for _, k := range []PlatformKind{CPU, DDRBaseline, BeaconD, BeaconS} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown platform %q", ErrBadConfig, s)
}

// String names the counting flow.
func (f KmerFlow) String() string {
	switch f {
	case MultiPass:
		return "multi-pass"
	case SinglePass:
		return "single-pass"
	}
	return fmt.Sprintf("flow(%d)", int(f))
}

// ParseKmerFlow resolves a counting-flow name ("multi-pass", "single-pass";
// "" selects MultiPass).
func ParseKmerFlow(s string) (KmerFlow, error) {
	switch s {
	case "", "multi-pass":
		return MultiPass, nil
	case "single-pass":
		return SinglePass, nil
	}
	return 0, fmt.Errorf("%w: unknown k-mer flow %q", ErrBadConfig, s)
}

// canonicalFaultsName normalizes the fault-profile spelling so equivalent
// specs hash identically ("", "off" and "none" all disable injection).
func canonicalFaultsName(s string) string {
	switch s {
	case "", "off", "none":
		return "off"
	}
	return s
}

// Compile-time guards: the unkeyed literals fail to compile whenever a
// spec-carrying struct gains or loses a field, forcing the canonical
// encoding below (and its golden test) to be revisited. Stale cache hits
// and hash collisions across spec shapes are impossible by construction
// only while the encoding enumerates every field.
var (
	_ = WorkloadConfig{"", 0, 0, 0, 0, 0, 0, 0, false, 0, 0, MultiPass, 0, 0}
	_ = Options{false, false, false, false, false}
	_ = RunSpec{0, WorkloadSpec{}, nil, 0, Options{}, "", 0}
)

// canonicalFields enumerates every WorkloadSpec field as key=value pairs.
func (ws WorkloadSpec) canonicalFields() []string {
	c := ws.Config
	return []string{
		"app=" + ws.App.String(),
		"species=" + string(c.Species),
		"scale=" + strconv.Itoa(c.GenomeScale),
		"reads=" + strconv.Itoa(c.Reads),
		"readlen=" + strconv.Itoa(c.ReadLength),
		"errrate=" + strconv.FormatFloat(c.ErrorRate, 'g', -1, 64),
		"seed=" + strconv.FormatUint(c.Seed, 10),
		"seedlen=" + strconv.Itoa(c.SeedLen),
		"maxhits=" + strconv.Itoa(c.MaxHits),
		"mem=" + strconv.FormatBool(c.MEMSeeding),
		"memminlen=" + strconv.Itoa(c.MEMMinLen),
		"k=" + strconv.Itoa(c.K),
		"flow=" + c.Flow.String(),
		"maxedits=" + strconv.Itoa(c.MaxEdits),
		"candidates=" + strconv.Itoa(c.Candidates),
	}
}

// CanonicalString renders the workload identity as a stable key=value
// enumeration. Every field participates, so two workloads share the string
// exactly when NewWorkload would build them identically.
func (ws WorkloadSpec) CanonicalString() string {
	return strings.Join(ws.canonicalFields(), "|")
}

// CanonicalHash is the SHA-256 content address of CanonicalString — the
// identity the workload cache keys over.
func (ws WorkloadSpec) CanonicalHash() string {
	sum := sha256.Sum256([]byte(ws.CanonicalString()))
	return hex.EncodeToString(sum[:])
}

// Build constructs the workload, backed by the cache when non-nil (exactly
// NewWorkloadCached).
func (ws WorkloadSpec) Build(wc *WorkloadCache) (*Workload, error) {
	return NewWorkloadCached(ws.App, ws.Config, wc)
}

// validate checks the workload half of a spec without building anything.
func (ws WorkloadSpec) validate() error {
	switch ws.App {
	case FMSeeding, HashSeeding, KmerCounting, PreAlignment:
	case GraphProcessing, DatabaseSearch, ImageProcessing:
		return fmt.Errorf("%w: %v has its own constructor and is not runnable from a RunSpec", ErrUnsupportedApp, ws.App)
	default:
		return fmt.Errorf("%w: application(%d)", ErrUnsupportedApp, int(ws.App))
	}
	if err := ws.Config.validate(); err != nil {
		return err
	}
	if _, err := ws.Config.Species.internal(); err != nil {
		return err
	}
	if _, err := ParseKmerFlow(ws.Config.Flow.String()); err != nil {
		return err
	}
	return nil
}

// CanonicalString renders the whole spec as a stable key=value enumeration:
// version, every workload field, every platform knob, the normalized fault
// name, and the co-run set in order. Two specs share the
// string exactly when Execute would produce byte-identical results from
// byte-identical construction work.
func (s RunSpec) CanonicalString() string {
	parts := make([]string, 0, 23+len(s.CoRun))
	parts = append(parts, "beacon.RunSpec/v"+strconv.Itoa(s.Version))
	parts = append(parts, s.Workload.canonicalFields()...)
	parts = append(parts,
		"platform="+s.Kind.String(),
		"pack="+strconv.FormatBool(s.Opts.DataPacking),
		"maopt="+strconv.FormatBool(s.Opts.MemAccessOpt),
		"place="+strconv.FormatBool(s.Opts.Placement),
		"coal="+strconv.FormatBool(s.Opts.Coalescing),
		"ideal="+strconv.FormatBool(s.Opts.IdealComm),
		"faults="+canonicalFaultsName(s.Faults),
		"faultseed="+strconv.FormatUint(s.FaultSeed, 10),
		"corun="+strconv.Itoa(len(s.CoRun)),
	)
	for i, c := range s.CoRun {
		parts = append(parts, "corun"+strconv.Itoa(i)+"={"+c.CanonicalString()+"}")
	}
	return strings.Join(parts, "|")
}

// CanonicalHash is the SHA-256 content address of the spec's canonical
// encoding. Equivalent spellings (empty vs named defaults) hash
// identically; any semantic difference changes the hash. The daemon
// derives job IDs from it and dedupes identical submissions against it.
func (s RunSpec) CanonicalHash() string {
	sum := sha256.Sum256([]byte(s.CanonicalString()))
	return hex.EncodeToString(sum[:])
}

// Platform resolves the spec's platform half: kind, optimization options
// and parsed fault profile. It does not validate the
// workload half (Validate does both).
func (s RunSpec) Platform() (Platform, error) {
	switch s.Kind {
	case CPU, DDRBaseline, BeaconD, BeaconS:
	default:
		return Platform{}, fmt.Errorf("%w: unknown platform kind %d", ErrBadConfig, int(s.Kind))
	}
	prof, err := ParseFaultProfile(canonicalFaultsName(s.Faults))
	if err != nil {
		return Platform{}, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return Platform{
		Kind:      s.Kind,
		Opts:      s.Opts,
		Faults:    prof,
		FaultSeed: s.FaultSeed,
	}, nil
}

// Validate checks the whole spec without building or simulating anything:
// version, workload configuration and dataset, platform knobs, and the
// co-run set. Failures wrap the sentinel errors, so HTTPStatus maps them
// directly onto API status codes.
func (s RunSpec) Validate() error {
	if s.Version != RunSpecVersion {
		return fmt.Errorf("%w: unsupported runspec version %d (this build speaks version %d)",
			ErrBadConfig, s.Version, RunSpecVersion)
	}
	if err := s.Workload.validate(); err != nil {
		return err
	}
	if _, err := s.Platform(); err != nil {
		return err
	}
	if len(s.CoRun) > 0 && s.Kind != BeaconD && s.Kind != BeaconS {
		return fmt.Errorf("%w: co-located runs require a BEACON platform, got %v", ErrBadConfig, s.Kind)
	}
	for i, c := range s.CoRun {
		if err := c.validate(); err != nil {
			return fmt.Errorf("co-run workload %d: %w", i, err)
		}
	}
	return nil
}

// Execute validates the spec, builds its workloads (through the cache when
// non-nil, so identical specs across callers dedupe to one construction)
// and replays them on the resolved platform. Extra options compose on top
// — the daemon attaches WithObserver this way. Determinism: equal specs
// produce byte-identical results.
func (s RunSpec) Execute(wc *WorkloadCache, opts ...RunOption) (*RunResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	p, err := s.Platform()
	if err != nil {
		return nil, err
	}
	wl, err := s.Workload.Build(wc)
	if err != nil {
		return nil, err
	}
	ro := make([]RunOption, 0, len(opts)+1)
	if len(s.CoRun) > 0 {
		co := make([]*Workload, len(s.CoRun))
		for i, cs := range s.CoRun {
			if co[i], err = cs.Build(wc); err != nil {
				return nil, fmt.Errorf("co-run workload %d: %w", i, err)
			}
		}
		ro = append(ro, WithCoRun(co...))
	}
	ro = append(ro, opts...)
	return Run(p, wl, ro...)
}

// workloadWire is the JSON shape of one WorkloadSpec.
type workloadWire struct {
	App         string  `json:"app"`
	Species     string  `json:"species"`
	GenomeScale int     `json:"genome_scale"`
	Reads       int     `json:"reads"`
	ReadLength  int     `json:"read_length"`
	ErrorRate   float64 `json:"error_rate"`
	Seed        uint64  `json:"seed"`
	SeedLen     int     `json:"seed_len"`
	MaxHits     int     `json:"max_hits"`
	MEMSeeding  bool    `json:"mem_seeding"`
	MEMMinLen   int     `json:"mem_min_len"`
	K           int     `json:"k"`
	Flow        string  `json:"flow"`
	MaxEdits    int     `json:"max_edits"`
	Candidates  int     `json:"candidates"`
}

// optionsWire is the JSON shape of the optimization ladder position: Options'
// fields, in order, with wire names, so the two convert into each other.
type optionsWire struct {
	DataPacking  bool `json:"data_packing"`
	MemAccessOpt bool `json:"mem_access_opt"`
	Placement    bool `json:"placement"`
	Coalescing   bool `json:"coalescing"`
	IdealComm    bool `json:"ideal_comm"`
}

// runSpecWire is the JSON shape of a RunSpec.
type runSpecWire struct {
	Version   int            `json:"version"`
	Workload  workloadWire   `json:"workload"`
	CoRun     []workloadWire `json:"co_run,omitempty"`
	Platform  string         `json:"platform"`
	Options   optionsWire    `json:"options"`
	Faults    string         `json:"faults"`
	FaultSeed uint64         `json:"fault_seed"`
}

func workloadToWire(ws WorkloadSpec) workloadWire {
	c := ws.Config
	return workloadWire{
		App:         ws.App.String(),
		Species:     string(c.Species),
		GenomeScale: c.GenomeScale,
		Reads:       c.Reads,
		ReadLength:  c.ReadLength,
		ErrorRate:   c.ErrorRate,
		Seed:        c.Seed,
		SeedLen:     c.SeedLen,
		MaxHits:     c.MaxHits,
		MEMSeeding:  c.MEMSeeding,
		MEMMinLen:   c.MEMMinLen,
		K:           c.K,
		Flow:        c.Flow.String(),
		MaxEdits:    c.MaxEdits,
		Candidates:  c.Candidates,
	}
}

func workloadFromWire(w workloadWire) (WorkloadSpec, error) {
	app, err := ParseApplication(w.App)
	if err != nil {
		return WorkloadSpec{}, err
	}
	flow, err := ParseKmerFlow(w.Flow)
	if err != nil {
		return WorkloadSpec{}, err
	}
	return WorkloadSpec{
		App: app,
		Config: WorkloadConfig{
			Species:     Species(w.Species),
			GenomeScale: w.GenomeScale,
			Reads:       w.Reads,
			ReadLength:  w.ReadLength,
			ErrorRate:   w.ErrorRate,
			Seed:        w.Seed,
			SeedLen:     w.SeedLen,
			MaxHits:     w.MaxHits,
			MEMSeeding:  w.MEMSeeding,
			MEMMinLen:   w.MEMMinLen,
			K:           w.K,
			Flow:        flow,
			MaxEdits:    w.MaxEdits,
			Candidates:  w.Candidates,
		},
	}, nil
}

// MarshalJSON renders the spec in its versioned wire form with a normalized
// fault name, so marshaling is a canonicalizing operation:
// unmarshal(marshal(s)) compares equal for any valid s.
func (s RunSpec) MarshalJSON() ([]byte, error) {
	w := runSpecWire{
		Version:   s.Version,
		Workload:  workloadToWire(s.Workload),
		Platform:  s.Kind.String(),
		Faults:    canonicalFaultsName(s.Faults),
		FaultSeed: s.FaultSeed,
		Options:   optionsWire(s.Opts),
	}
	for _, c := range s.CoRun {
		w.CoRun = append(w.CoRun, workloadToWire(c))
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the versioned wire form strictly: unknown fields,
// trailing data, unknown enum names and any version other than
// RunSpecVersion are rejected (wrapping ErrBadConfig / ErrUnsupportedApp),
// so a daemon never half-understands a client's spec.
func (s *RunSpec) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w runSpecWire
	if err := dec.Decode(&w); err != nil {
		return fmt.Errorf("%w: runspec: %v", ErrBadConfig, err)
	}
	if dec.More() {
		return fmt.Errorf("%w: runspec: trailing data after spec", ErrBadConfig)
	}
	if w.Version != RunSpecVersion {
		return fmt.Errorf("%w: unsupported runspec version %d (this build speaks version %d)",
			ErrBadConfig, w.Version, RunSpecVersion)
	}
	ws, err := workloadFromWire(w.Workload)
	if err != nil {
		return err
	}
	kind, err := ParsePlatformKind(w.Platform)
	if err != nil {
		return err
	}
	out := RunSpec{
		Version:   w.Version,
		Workload:  ws,
		Kind:      kind,
		Faults:    canonicalFaultsName(w.Faults),
		FaultSeed: w.FaultSeed,
		Opts:      Options(w.Options),
	}
	for i, cw := range w.CoRun {
		cs, err := workloadFromWire(cw)
		if err != nil {
			return fmt.Errorf("co-run workload %d: %w", i, err)
		}
		out.CoRun = append(out.CoRun, cs)
	}
	*s = out
	return nil
}

// ParseRunSpec decodes a spec from its JSON wire form (strictly — see
// UnmarshalJSON). Unlike json.Unmarshal, it reports malformed JSON and
// trailing data through ErrBadConfig too, so callers get one failure
// class for "the client sent something unusable".
func ParseRunSpec(data []byte) (RunSpec, error) {
	var s RunSpec
	if err := s.UnmarshalJSON(data); err != nil {
		return RunSpec{}, err
	}
	return s, nil
}
