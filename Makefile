GO ?= go

.PHONY: all build test race bench perfledger lint beaconlint fmt tidy-check calibrate reachability

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the packages that run concurrently: the
# orchestrator (root), the worker pool, the observability layer, the fault
# subsystem, the event kernel they drive, the on-disk workload cache
# (shared by parallel evaluator jobs), the machines (co-located runs on
# concurrent daemon workers keep per-run hooks) and the per-machine
# request-path slabs they own (the task replay and flow walker, the
# fabric's route memo, the mappers' piece slices), the daemon's admission
# queue, and the CLI progress observer. The full tree runs race-free too,
# but scoping keeps the (~10x slower) instrumented run fast while still
# covering every goroutine the repository creates. CI's race job runs this
# target.
race:
	$(GO) test -race -timeout 15m . ./internal/runner ./internal/obs ./internal/fault ./internal/sim ./internal/wcache ./internal/core ./internal/server ./internal/cliutil ./internal/ndp ./internal/baseline ./internal/cxl ./internal/memmgmt

# Micro-benchmarks. One iteration each of the trace pipeline (cold build,
# cache-hit construction, codec), the build kernels (genome synthesis,
# FM-index and hash-index builds, pre-alignment filtering, multi-pass and
# exact k-mer counting) and the event queue (calendar vs reference heap);
# then the Table I and DDR baseline machines' construction cost and
# allocations, one whole BEACON-D and one DDR replay of a fixed small
# workload (so a run's time and allocations show outside perfbench), and
# the timeline tracer's cost and allocation per recorded span. They write
# no file: the one committed performance baseline is the perf ledger's
# (below).
bench:
	$(GO) test -run=NONE -bench='BenchmarkWorkload|BenchmarkEncodeWorkload|BenchmarkDecodeWorkload|BenchmarkBuilder|BenchmarkEngineChurn|BenchmarkFMBuild|BenchmarkHashBuild|BenchmarkFilterReads|BenchmarkCountMultiPass|BenchmarkCountExact|BenchmarkSynthesize' -benchtime=1x . ./internal/trace ./internal/sim ./internal/fmindex ./internal/hashindex ./internal/prealign ./internal/kmer ./internal/genome
	$(GO) test -run=NONE -bench='BenchmarkNewMachine|BenchmarkReplayRun' -benchmem ./internal/core
	$(GO) test -run=NONE -bench=BenchmarkNewDDRMachine -benchmem ./internal/baseline
	$(GO) test -run=NONE -bench=BenchmarkTracerSpan -benchmem ./internal/obs

# Perf ledger: rerun perfbench's replay workload (seed 1, 2 s, per-layer
# spans) and compare it with the committed BENCH_perf.json. Simulated
# counts must match exactly, per-layer allocation within a fixed bound;
# host times are printed, not gated. Exits 1 naming each metric that moved.
perfledger:
	./tools/perfledger.sh

# The repository's determinism analyzers (see DESIGN.md §4d), including
# the dataflow-backed unitflow/seedflow/errwrap checks. Exit codes: 0
# clean, 1 load error, 2 findings; suppressions need //beaconlint:allow.
# Add -json for one JSON diagnostic per line on stdout.
beaconlint:
	$(GO) run ./tools/beaconlint ./...

# Reachability audit: list the non-test functions no program, example,
# tool, perfbench or public beacon API links, and total them. Keep the
# total falling; tests, the beacon_heapref heap and test oracles account
# for most of what remains.
reachability:
	./tools/reachability.sh

# Timing-model calibration: replay the quick synthetic pattern suite and
# diff against the committed golden curves (see DESIGN.md §4g). Exits 1 on
# envelope violations or golden drift. Regenerate goldens after an
# intentional timing change with `go test ./internal/calib -update`.
calibrate:
	$(GO) run ./cmd/beaconbench -calibrate

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

tidy-check:
	$(GO) mod tidy
	git diff --exit-code -- go.mod go.sum

# Full lint suite. staticcheck and govulncheck run when installed (CI
# installs them; locally they are optional extras, not dependencies).
lint: fmt tidy-check beaconlint
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; \
	fi
