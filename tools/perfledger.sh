#!/usr/bin/env bash
# Perf ledger: reruns perfbench's replay workload with per-layer spans on
# and compares every metric with the committed baseline, BENCH_perf.json
# (the last line of the same command). The gate depends on the unit:
#
#   count, bytes, ratio  simulated counts (sim.events_per_op, wcache.hit_ratio,
#                        every cxl.* and dram.* metric): deterministic, so
#                        they must match exactly.
#   MB                   heap allocated per op (*.alloc_mb): within
#                        alloc_bound of the baseline, either way.
#   anything else        host time (ms, ns, %) and sizes replay does not
#                        touch (KB): printed beside the baseline, not gated.
#
# The run must also report no failed op. Every mismatch is named on stderr,
# and the script exits 1 if there is any.
#
# Run from the repository root: `make perfledger`. Regenerate the baseline
# only for a deliberate model change, in a commit of its own naming why:
#
#   bash perfbench/run.sh --workload replay --seed 1 --seconds 2 --trace 1 | tail -1 > BENCH_perf.json
set -euo pipefail

# Relative bound on *.alloc_mb: over twice the worst spread measured
# across 23 runs at GOMAXPROCS 1, 2 and 4 (9.4%, CHANGES.md). A change of
# allocation per op by more than a fifth fails.
alloc_bound=0.20

fresh=$(bash perfbench/run.sh --workload replay --seed 1 --seconds 2 --trace 1 | tail -1)
python3 - BENCH_perf.json "$fresh" "$alloc_bound" <<'EOF'
import json, sys

base = json.load(open(sys.argv[1]))
fresh = json.loads(sys.argv[2])
bound = float(sys.argv[3])
bad = []
if not fresh["correct"] or fresh["failed"]:
    bad.append(f"run: {fresh['failed']} of {fresh['attempted']} ops failed")
bm, fm = base["metrics"], fresh["metrics"]
bad += [f"{k}: in the baseline only" for k in sorted(bm.keys() - fm.keys())]
bad += [f"{k}: not in the baseline" for k in sorted(fm.keys() - bm.keys())]
print(f"{'metric':40} {'unit':>5} {'baseline':>14} {'this run':>14}  gate")
for k in sorted(bm.keys() & fm.keys()):
    unit, want, got = bm[k]["unit"], bm[k]["value"], fm[k]["value"]
    if unit in ("count", "bytes", "ratio"):
        gate, ok = "exact", got == want
    elif unit == "MB":
        gate, ok = f"±{bound:.0%}", abs(got - want) <= bound * want
    else:
        gate, ok = "-", True
    print(f"{k:40} {unit:>5} {want:14.6g} {got:14.6g}  {gate}{'' if ok else '  MISMATCH'}")
    if not ok:
        bad.append(f"{k}: {got!r} {unit}, baseline {want!r} ({gate})")
for b in bad:
    print("perfledger: " + b, file=sys.stderr)
if bad:
    sys.exit(1)
print(f"perfledger: {fresh['attempted']} ops, every gated metric matches BENCH_perf.json")
EOF
