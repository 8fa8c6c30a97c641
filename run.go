package beacon

import "beacon/internal/obs"

// RunOption customizes a Run call. The zero option set replays the
// workload bare: no instrumentation, single tenant. Fault injection is the
// Platform's (Faults, FaultSeed).
type RunOption func(*runSettings)

type runSettings struct {
	ob    *obs.Obs
	coRun []*Workload
}

// WithObserver attaches an observability sink: component metrics, activity
// spans and snapshot series accumulate in ob during the run. A nil ob is a
// no-op. Instrumentation is observation-only — the returned Report is
// byte-identical either way.
func WithObserver(ob *obs.Obs) RunOption {
	return func(s *runSettings) { s.ob = ob }
}

// WithCoRun co-locates additional workloads with the primary one — the §II
// memory-pooling scenario: all tenants share one pool's DIMMs, fabric and
// NDP modules, their tasks interleaving in the task schedulers. Requires a
// BEACON platform. The result's Report aggregates all tenants; Tenants
// lists each workload's own completion. With no workloads it is a no-op.
func WithCoRun(ws ...*Workload) RunOption {
	return func(s *runSettings) { s.coRun = append(s.coRun, ws...) }
}

// RunResult is the outcome of one Run.
type RunResult struct {
	// Report summarizes the run: the workload's own report for a
	// single-tenant run, the combined (all-tenant) report for a co-located
	// one.
	Report *Report
	// Tenants lists per-workload completions for co-located runs (nil for
	// single-tenant runs).
	Tenants []TenantReport
}

// Run replays the workload on the platform. It is the one way to run a
// simulation on a Platform: RunSpec.Execute ends here, and the Evaluator's
// jobs call the same simulation function, adding only the ablation sweeps'
// machine overrides.
// Options select instrumentation (WithObserver) and multi-tenant
// co-location (WithCoRun); deterministic fault injection is set on the
// Platform (Faults, FaultSeed). They all compose: a co-located run is
// observed and fault-injected like a single-tenant one.
//
// Argument errors — a nil workload, an unknown platform kind, co-location
// on a non-BEACON platform — wrap ErrBadConfig, so HTTPStatus maps them to
// 400.
//
// Determinism: identical platform, workload(s) and options produce a
// byte-identical result.
func Run(p Platform, w *Workload, opts ...RunOption) (*RunResult, error) {
	var s runSettings
	for _, o := range opts {
		o(&s)
	}
	out, err := simulate(p, machineOverrides{}, append([]*Workload{w}, s.coRun...), s.ob)
	if err != nil {
		return nil, err
	}
	return &RunResult{Report: out.rep, Tenants: out.tenants}, nil
}
