#!/usr/bin/env bash
#
# Engine throughput benchmark: measures simulated cycles per second
# under the event and reference stepping engines and appends one
# entry to the history array in BENCH_speed.json at the repo root
# (one entry per run, keyed by commit — the per-PR speed record).
# The headline number is the memory-bound speedup (event over
# reference), which the event engine must keep >= 1.3x. Also gates
# the cycle-attribution profiler: the off-path (profiler disabled,
# every default bench run) must stay within 2% of the identical
# unprofiled measurement.
#
# Methodology: wall-clock on a loaded single-core box is noisy, so
# bench_micro runs with 8 repetitions under random interleaving and
# reports aggregates only; medians are compared. The end-to-end
# number is perfbench's sweep_cold workload (perfbench/run.py), not
# this script.
#
#   scripts/bench_speed.sh [builddir]   # default: ./build (Release)

set -euo pipefail
cd "$(dirname "$0")/.."

builddir=${1:-build}
out=BENCH_speed.json
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

echo "==> bench_micro BM_Engine + BM_Attribution (8 interleaved repetitions)"
"$builddir/bench/bench_micro" \
    --benchmark_filter='BM_Engine|BM_Attribution' \
    --benchmark_repetitions=8 \
    --benchmark_enable_random_interleaving=true \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json \
    > "$scratch/micro.json"

commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

python3 - "$scratch/micro.json" "$out" "$commit" <<'EOF'
import json
import sys

micro_path, out_path, commit = sys.argv[1:4]

with open(micro_path) as f:
    micro = json.load(f)

med = {}
for b in micro["benchmarks"]:
    if b.get("aggregate_name") != "median":
        continue
    for case in ("event_mem", "reference_mem",
                 "event_compute", "reference_compute"):
        if f"BM_Engine/{case}" in b["run_name"]:
            med[case] = b["cycles_per_sec"]
    for case in ("off", "on"):
        if f"BM_Attribution/{case}" in b["run_name"]:
            med[f"attribution_{case}"] = b["cycles_per_sec"]
missing = [c for c in ("event_mem", "reference_mem",
                       "event_compute", "reference_compute",
                       "attribution_off", "attribution_on")
           if c not in med]
assert not missing, f"missing medians for {missing}"


entry = {
    "commit": commit,
    "source": "bench_micro BM_Engine, medians of 8 interleaved "
              "repetitions",
    "cycles_per_sec": med,
    "speedup": {
        "memory_bound": med["event_mem"] / med["reference_mem"],
        "compute_bound":
            med["event_compute"] / med["reference_compute"],
    },
    # Cycle-attribution profiler cost. "off" is the default bench
    # path (profiler branch untaken) and must stay within 2% of the
    # twin BM_Engine/event_mem measurement; "on" is informational.
    "attribution": {
        "off_cycles_per_sec": med["attribution_off"],
        "on_cycles_per_sec": med["attribution_on"],
        "off_path_overhead":
            1.0 - med["attribution_off"] / med["event_mem"],
        "on_path_overhead":
            1.0 - med["attribution_on"] / med["attribution_off"],
    },
}

# BENCH_speed.json holds the whole history, one entry per run. A
# pre-history file (a single object) is absorbed as the first entry.
history = []
try:
    with open(out_path) as f:
        old = json.load(f)
    if isinstance(old, dict) and "history" in old:
        history = old["history"]
    elif isinstance(old, dict):
        old.setdefault("commit", "pre-history")
        history = [old]
except (OSError, ValueError):
    pass
history.append(entry)
with open(out_path, "w") as f:
    json.dump({"history": history}, f, indent=2)
    f.write("\n")
print(json.dumps(entry, indent=2))
print(f"history: {len(history)} entries")
mem = entry["speedup"]["memory_bound"]
assert mem >= 1.3, f"memory-bound speedup {mem:.3f}x < 1.3x"
print(f"OK: memory-bound speedup {mem:.3f}x >= 1.3x")
off = entry["attribution"]["off_path_overhead"]
assert off < 0.02, \
    f"attribution off-path overhead {off:.1%} >= 2%"
print(f"OK: attribution off-path overhead {off:.1%} < 2% "
      f"(on-path {entry['attribution']['on_path_overhead']:.1%})")
EOF

echo "==> wrote $out"
