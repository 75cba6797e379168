#!/usr/bin/env bash
#
# Tier-1 gate: configure, build and run the full test suite under
# the plain Release preset, under ASan+UBSan, under standalone
# UBSan, and under TSan, then smoke-check the parallel sweep
# executor: a small bench_fig6 sweep must print byte-identical
# stdout at --jobs 1 and --jobs 4, cold and warm cache, and with
# the cache off it must match the cold-cache run in stdout and
# --trace JSONL (the TSan binary runs the same sweeps to catch
# races in the executor, the shared result cache and the Runner's
# shared baseline memo), and bench_ablations' paid and free-
# preemption runs must write no duplicate --trace line. Every
# preset also runs the serving smoke: a short Poisson arrival trace
# through bench_serving must print byte-identical stdout and trace
# JSONL across two runs and across --jobs 1 vs 4, with and without
# admission-path fault injection, and its --stats-json accounting
# must conserve every arrival and count every simulated cycle as
# stepped or skipped.
# Every preset also runs the timeline smoke: --timeline
# must leave stdout byte-identical, export one valid JSON document
# that is byte-identical across --jobs 1 vs 4, and the cycle-
# attribution breakdowns in --stats-json must conserve every SM
# cycle, and the report must be schema 4 with a metrics object of
# qos.* and engine.* counters only. A warm traced rerun must print
# the same stdout, report "trace":"" on every cached case, and
# leave no .meta sidecar in the cache directory. --stats-json to
# an unwritable path must fail at startup with nothing on stdout,
# and so must a negative integer option (bench_fig5 --cycles -5,
# bench_serving --drain-grace -1), whose error must name the
# option. The default preset additionally
# runs the engine differential smoke: every simulating figure bench,
# and bench_serving under the serving, naive, rollover, elastic,
# rollover-time and spart policies, must print byte-identical
# stdout (and byte-identical --trace JSONL) under --engine event and
# --engine reference, and so must bench_fig8 and bench_serving
# --policy serving under --config large (56 SMs, 2 schedulers per
# SM). The same event-engine runs are also the golden stage:
# their stdout must equal tests/golden/<bench>.out and the digest of
# their --stats-json (scripts/golden_digest.py) must equal
# tests/golden/<bench>.digest (tests/golden/large.<bench>.* for the
# --config large runs), so a model change that moves both
# engines the same way still fails until the golden files are
# regenerated and the diff is reviewed. bench_table1, which only
# prints the machine configuration, is golden by stdout alone. The
# default preset also runs `python3 perfbench/run.py --selftest`,
# which builds the repository benchmark against the current src/
# and runs its tests, so an API change that breaks it fails here.
# It also runs the examples smoke: each of the five examples/
# binaries runs with --cycles 20000 from a temporary directory and
# must exit 0 with non-empty stdout.
#
#   scripts/check.sh            # all four presets + smokes
#   scripts/check.sh default    # just the fast one
#   scripts/check.sh asan       # just the address-sanitized one
#   scripts/check.sh ubsan      # just the UB-sanitized one
#   scripts/check.sh tsan       # just the thread-sanitized one
#   scripts/check.sh --update-golden   # default preset; rewrite
#                                      # tests/golden/ instead of
#                                      # comparing against it
#
# Each preset's sweep smoke runs with --jobs 4, so every check.sh
# invocation exercises the multi-threaded path.

set -euo pipefail
cd "$(dirname "$0")/.."

update_golden=0
presets=()
for arg in "$@"; do
    case "$arg" in
        --update-golden) update_golden=1 ;;
        *) presets+=("$arg") ;;
    esac
done
if [ ${#presets[@]} -eq 0 ]; then
    if [ "$update_golden" = 1 ]; then
        presets=(default)
    else
        presets=(default asan ubsan tsan)
    fi
fi
golden=tests/golden

builddir_for() {
    case "$1" in
        default) echo build ;;
        *) echo "build-$1" ;;
    esac
}

# rejects_option SCRATCH OPTION CMD...: CMD must exit non-zero with
# nothing on stdout and an error on stderr that names --OPTION.
rejects_option() {
    local scratch="$1" option="$2"
    shift 2
    if timeout 60 "$@" > "$scratch/reject.out" 2> "$scratch/reject.err"; then
        echo "negative-option smoke: --$option was accepted" >&2
        return 1
    fi
    [ ! -s "$scratch/reject.out" ] || {
        echo "negative-option smoke: output before the --$option error" >&2
        return 1; }
    grep -q -- "--$option" "$scratch/reject.err" || {
        echo "negative-option smoke: the error does not name --$option" >&2
        cat "$scratch/reject.err" >&2
        return 1; }
}

sweep_smoke() {
    local preset="$1"
    local bin
    bin="$(builddir_for "$preset")/bench/bench_fig6"
    local flags="--cycles 20000 --warmup 4000 --pairs 2 --trios 2"
    local scratch
    scratch="$(mktemp -d)"
    trap 'rm -rf "$scratch"' RETURN

    echo "==> [$preset] sweep smoke (jobs 1 vs 4, cold + warm)"
    # shellcheck disable=SC2086 # word-splitting of $flags is wanted
    "$bin" $flags --jobs 1 --cache "$scratch/c1" \
        > "$scratch/j1.cold" 2>/dev/null
    "$bin" $flags --jobs 4 --cache "$scratch/c4" \
        > "$scratch/j4.cold" 2>/dev/null
    "$bin" $flags --jobs 4 --cache "$scratch/c1" \
        > "$scratch/j4.warm" 2>/dev/null
    cmp "$scratch/j1.cold" "$scratch/j4.cold"
    cmp "$scratch/j1.cold" "$scratch/j4.warm"

    # Fault-injected sweeps must be deterministic at any job count.
    GQOS_FAULT="cache_write:0.5" GQOS_FAULT_SEED=7 \
        "$bin" $flags --jobs 1 --cache "$scratch/f1" \
        > "$scratch/fault.j1" 2>/dev/null
    GQOS_FAULT="cache_write:0.5" GQOS_FAULT_SEED=7 \
        "$bin" $flags --jobs 4 --cache "$scratch/f4" \
        > "$scratch/fault.j4" 2>/dev/null
    cmp "$scratch/fault.j1" "$scratch/fault.j4"

    # Cache off: the sweep still simulates each isolated baseline
    # exactly once (the pre-pass fills the Runner memo all workers
    # share), so stdout and trace match the cold-cache run: byte for
    # byte at --jobs 1, as a sorted record set at --jobs 4.
    echo "==> [$preset] sweep smoke (cache off matches cold cache)"
    # shellcheck disable=SC2086
    "$bin" $flags --jobs 1 --cache "$scratch/tc" \
        --trace "$scratch/cold.jsonl" > "$scratch/cold.out" 2>/dev/null
    # shellcheck disable=SC2086
    "$bin" $flags --jobs 1 --no-cache \
        --trace "$scratch/nc1.jsonl" > "$scratch/nc1.out" 2>/dev/null
    # shellcheck disable=SC2086
    "$bin" $flags --jobs 4 --no-cache \
        --trace "$scratch/nc4.jsonl" > "$scratch/nc4.out" 2>/dev/null
    cmp "$scratch/j1.cold" "$scratch/cold.out"
    cmp "$scratch/cold.out" "$scratch/nc1.out"
    cmp "$scratch/cold.jsonl" "$scratch/nc1.jsonl"
    cmp "$scratch/cold.out" "$scratch/nc4.out"
    cmp <(sort "$scratch/cold.jsonl") <(sort "$scratch/nc4.jsonl")

    # bench_ablations traces its paid and its free-preemption runs
    # into one file; their labels differ, so no line appears twice.
    echo "==> [$preset] sweep smoke (ablations trace has no duplicate line)"
    "$(builddir_for "$preset")/bench/bench_ablations" --cycles 20000 \
        --warmup 4000 --pairs 2 --jobs 1 --no-cache \
        --trace "$scratch/abl.jsonl" > /dev/null 2>&1
    local dups
    dups="$(sort "$scratch/abl.jsonl" | uniq -d | wc -l)"
    [ "$dups" = 0 ] || {
        echo "ablations trace: $dups duplicate lines" >&2
        return 1; }

    trace_smoke "$preset"
}

trace_smoke() {
    local preset="$1"
    local bin
    bin="$(builddir_for "$preset")/bench/bench_fig6"
    local flags="--cycles 20000 --warmup 4000 --pairs 2 --trios 2"
    local scratch
    scratch="$(mktemp -d)"
    trap 'rm -rf "$scratch"' RETURN

    echo "==> [$preset] trace smoke (--trace/--stats-json, tracing is observer-only)"
    # Telemetry must not perturb the simulation: stdout with tracing
    # on must be byte-identical to the same fresh sweep without it.
    # shellcheck disable=SC2086 # word-splitting of $flags is wanted
    "$bin" $flags --jobs 4 --cache "$scratch/t0" \
        > "$scratch/plain.out" 2>/dev/null
    "$bin" $flags --jobs 4 --cache "$scratch/t1" \
        --trace "$scratch/epochs.jsonl" \
        --timeline "$scratch/timeline.json" \
        --stats-json "$scratch/stats.json" \
        > "$scratch/traced.out" 2>/dev/null
    cmp "$scratch/plain.out" "$scratch/traced.out"
    # Identical cache contents too: the cache file holds sealed
    # result lines only, traced or not.
    cmp <(sort "$scratch/t0/"*.csv) <(sort "$scratch/t1/"*.csv)
    # A warm traced rerun serves every case from the cache, so none
    # of its records reach this run's trace: the report says so
    # with an empty trace path on each cached case.
    # shellcheck disable=SC2086
    "$bin" $flags --jobs 4 --cache "$scratch/t1" \
        --trace "$scratch/warm.jsonl" \
        --stats-json "$scratch/warm.json" \
        > "$scratch/warm.out" 2>/dev/null
    cmp "$scratch/plain.out" "$scratch/warm.out"
    # The cache keeps no trace sidecar next to its file.
    local meta
    meta="$(find "$scratch/t1" -name '*.meta')"
    [ -z "$meta" ] || {
        echo "trace smoke: cache left a sidecar: $meta" >&2; return 1; }

    [ -s "$scratch/epochs.jsonl" ] || {
        echo "trace smoke: empty trace file" >&2; return 1; }
    [ -s "$scratch/stats.json" ] || {
        echo "trace smoke: empty stats file" >&2; return 1; }

    if command -v python3 >/dev/null 2>&1; then
        python3 - "$scratch/epochs.jsonl" "$scratch/stats.json" \
            "$scratch/timeline.json" "$scratch/warm.json" <<'EOF'
import json, sys
trace, stats, timeline, warm = sys.argv[1:5]
kinds = {}
with open(trace) as f:
    for n, line in enumerate(f, 1):
        rec = json.loads(line)   # every line must parse alone
        kinds[rec["type"]] = kinds.get(rec["type"], 0) + 1
        assert "schema_version" in rec, f"line {n} lacks schema_version"
assert kinds.get("epoch_kernel", 0) > 0, "no epoch_kernel records"
assert kinds.get("epoch_mem", 0) > 0, "no epoch_mem records"
assert kinds.get("sm_slice", 0) > 0, "no sm_slice records"
with open(stats) as f:
    rep = json.load(f)
assert rep["schema_version"] == 4, "stats report is not schema 4"
assert rep["cases"], "stats report has no cases"
assert rep["sweeps"], "stats report has no sweeps"
# The registry holds only counters with no other home in the report:
# a harness, serving or cycle total would copy the entries.
assert list(rep["metrics"]) == ["counters"], rep["metrics"].keys()
counters = rep["metrics"]["counters"]
assert counters, "stats report has no counters"
stray = [n for n in counters if not n.startswith(("qos.", "engine."))]
assert not stray, f"counters outside qos.*/engine.*: {stray}"
cats = ("issued", "quota_gated", "mem_stall", "no_ready_warp",
        "drain_preempt", "inert_skipped")
for case in rep["cases"]:
    if case["from_cache"]:
        continue
    assert case["cycle_breakdown"], case["key"]
    # Conservation: the six categories telescope to one total per
    # kernel, and every kernel of a case covers the same cycles.
    totals = {sum(b[c] for c in cats) for b in case["cycle_breakdown"]}
    assert len(totals) == 1 and totals.pop() > 0, case["key"]
with open(timeline) as f:
    tl = json.load(f)            # the timeline must be one JSON doc
assert tl["schema_version"] >= 2, "timeline lacks schema_version"
phases = {}
for ev in tl["traceEvents"]:
    phases[ev["ph"]] = phases.get(ev["ph"], 0) + 1
assert phases.get("X", 0) > 0, "timeline has no SM occupancy slices"
assert phases.get("C", 0) > 0, "timeline has no counter tracks"
assert phases.get("M", 0) > 0, "timeline has no track metadata"
with open(warm) as f:
    warm_cases = json.load(f)["cases"]
assert warm_cases and all(c["from_cache"] for c in warm_cases), \
    "warm rerun simulated a case"
stale = [c["key"] for c in warm_cases if c["trace"] != ""]
assert not stale, f"cached cases name a trace: {stale[:3]}"
print("trace smoke: %d trace records, %d cases, %d sweeps, "
      "%d timeline events"
      % (sum(kinds.values()), len(rep["cases"]), len(rep["sweeps"]),
         len(tl["traceEvents"])))
EOF
    else
        echo "trace smoke: python3 not found; skipping JSON validation"
    fi

    # An unwritable --stats-json path is a startup error: non-zero
    # exit before any case runs, so nothing reaches stdout.
    echo "==> [$preset] stats-json smoke (unwritable path fails at startup)"
    local fig5
    fig5="$(builddir_for "$preset")/bench/bench_fig5"
    if "$fig5" --stats-json /nonexistent/dir/s.json \
        --cache "$scratch/unwritable" \
        > "$scratch/unwritable.out" 2>/dev/null; then
        echo "stats-json smoke: unwritable path did not fail" >&2
        return 1
    fi
    [ ! -s "$scratch/unwritable.out" ] || {
        echo "stats-json smoke: output before the failure" >&2
        return 1; }

    # A negative integer option is a startup error naming the
    # option. It must never wrap to ~2^64: fig5 would simulate
    # forever, and serving would stop before its last arrival.
    echo "==> [$preset] negative-option smoke (fails at startup, names the option)"
    rejects_option "$scratch" cycles \
        "$fig5" --cycles -5 --no-cache --pairs 1 --jobs 1
    rejects_option "$scratch" drain-grace \
        "$(builddir_for "$preset")/bench/bench_serving" \
        --launches 40 --loads 1.0 --drain-grace -1

    timeline_smoke "$preset"
}

timeline_smoke() {
    local preset="$1"
    local bin
    bin="$(builddir_for "$preset")/bench/bench_serving"
    local flags="--launches 60 --loads 1.0,2.0 --rate 0.08 --quiet"
    local scratch
    scratch="$(mktemp -d)"
    trap 'rm -rf "$scratch"' RETURN

    echo "==> [$preset] timeline smoke (--timeline is observer-only, jobs 1 vs 4)"
    # The exporter must be invisible to the run (byte-identical
    # stdout) and deterministic (byte-identical timeline file at any
    # job count).
    # shellcheck disable=SC2086 # word-splitting of $flags is wanted
    "$bin" $flags --jobs 1 > "$scratch/plain.out" 2>/dev/null
    # shellcheck disable=SC2086
    "$bin" $flags --jobs 1 --timeline "$scratch/t1.json" \
        --stats-json "$scratch/stats.json" \
        > "$scratch/t1.out" 2>/dev/null
    # shellcheck disable=SC2086
    "$bin" $flags --jobs 4 --timeline "$scratch/t4.json" \
        > "$scratch/t4.out" 2>/dev/null
    cmp "$scratch/plain.out" "$scratch/t1.out"
    cmp "$scratch/plain.out" "$scratch/t4.out"
    cmp "$scratch/t1.json" "$scratch/t4.json"

    if command -v python3 >/dev/null 2>&1; then
        python3 - "$scratch/t1.json" "$scratch/stats.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    tl = json.load(f)
names = {ev["name"] for ev in tl["traceEvents"]}
# SM tracks are thread_name metadata records; the occupancy slices
# on them are "X" events named after the resident kernel.
tracks = {ev["args"]["name"] for ev in tl["traceEvents"]
          if ev["ph"] == "M" and ev["name"] == "thread_name"}
assert any(t.startswith("SM ") for t in tracks), "no SM tracks"
assert any(ev["ph"] == "X" for ev in tl["traceEvents"]), "no slices"
assert any(n.startswith("queue ") for n in names), "no queue counters"
assert "admission level" in names, "no admission-level counter"
for inst in ("arrival", "dispatch", "complete"):
    assert inst in names, f"no {inst} instants"
with open(sys.argv[2]) as f:
    rep = json.load(f)
cats = ("issued", "quota_gated", "mem_stall", "no_ready_warp",
        "drain_preempt", "inert_skipped")
assert rep["serving"], "no serving entries"
for point in rep["serving"]:
    totals = {sum(b[c] for c in cats)
              for b in point["cycle_breakdown"]}
    assert len(totals) == 1 and totals.pop() > 0, point["label"]
print("timeline smoke: %d events, %d serving points conserved"
      % (len(tl["traceEvents"]), len(rep["serving"])))
EOF
    else
        echo "timeline smoke: python3 not found; skipping JSON validation"
    fi
}

serving_smoke() {
    local preset="$1"
    local bin
    bin="$(builddir_for "$preset")/bench/bench_serving"
    # Short Poisson trace at three load points, small enough for the
    # sanitizer builds: ~60 launches per point.
    local flags="--launches 60 --loads 1.0,2.0,4.0 --rate 0.08 --quiet"
    local scratch
    scratch="$(mktemp -d)"
    trap 'rm -rf "$scratch"' RETURN

    echo "==> [$preset] serving smoke (rerun + jobs 1 vs 4, byte-identical)"
    # shellcheck disable=SC2086 # word-splitting of $flags is wanted
    "$bin" $flags --jobs 1 --trace "$scratch/a.jsonl" \
        --stats-json "$scratch/a.stats" > "$scratch/a.out" 2>/dev/null
    # shellcheck disable=SC2086
    "$bin" $flags --jobs 1 --trace "$scratch/b.jsonl" \
        > "$scratch/b.out" 2>/dev/null
    # shellcheck disable=SC2086
    "$bin" $flags --jobs 4 --trace "$scratch/c.jsonl" \
        > "$scratch/c.out" 2>/dev/null
    cmp "$scratch/a.out" "$scratch/b.out"
    cmp "$scratch/a.out" "$scratch/c.out"
    cmp "$scratch/a.jsonl" "$scratch/b.jsonl"
    cmp "$scratch/a.jsonl" "$scratch/c.jsonl"

    # Admission-path fault injection: the overloaded server must
    # degrade deterministically, at any job count, never wedge.
    # shellcheck disable=SC2086
    GQOS_FAULT="queue_overflow:0.1,admission_project:0.2" \
        GQOS_FAULT_SEED=7 \
        "$bin" $flags --jobs 1 > "$scratch/f1.out" 2>/dev/null
    # shellcheck disable=SC2086
    GQOS_FAULT="queue_overflow:0.1,admission_project:0.2" \
        GQOS_FAULT_SEED=7 \
        "$bin" $flags --jobs 4 > "$scratch/f4.out" 2>/dev/null
    cmp "$scratch/f1.out" "$scratch/f4.out"

    if command -v python3 >/dev/null 2>&1; then
        python3 - "$scratch/a.stats" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    rep = json.load(f)
serving = rep.get("serving", [])
assert len(serving) == 3, f"expected 3 load points, got {len(serving)}"
for point in serving:
    for t in point["tenants"]:
        rejected = t["rejected"]
        assert t["arrivals"] == t["admitted"] + rejected, t
        assert t["admitted"] == (t["completed"] + t["abandoned"] +
                                 t["dropped_at_shutdown"]), t
    assert not point["engine_stalled"], point["label"]
    assert not point["tenant_stalled"], point["label"]
# Every simulated cycle is stepped or skipped.
eng = rep["metrics"]["counters"]
cycles = sum(point["end_cycle"] for point in serving)
assert (eng["engine.stepped_cycles"] + eng["engine.skipped_cycles"] ==
        cycles), (eng, cycles)
print("serving smoke: %d load points, accounting conserved"
      % len(serving))
EOF
    else
        echo "serving smoke: python3 not found; skipping JSON validation"
    fi
}

# golden_check NAME STDOUT STATS_JSON: compare one event-engine run
# with tests/golden/NAME.{out,digest}, or rewrite both files under
# --update-golden.
golden_check() {
    local name="$1" out="$2" stats="$3"
    local digest
    digest="$(python3 scripts/golden_digest.py "$stats")"
    if [ "$update_golden" = 1 ]; then
        mkdir -p "$golden"
        cp "$out" "$golden/$name.out"
        echo "$digest" > "$golden/$name.digest"
        return 0
    fi
    cmp "$out" "$golden/$name.out" || {
        echo "golden: $name stdout differs from $golden/$name.out" >&2
        return 1; }
    [ "$digest" = "$(cat "$golden/$name.digest")" ] || {
        echo "golden: $name stats digest differs from" \
             "$golden/$name.digest" >&2
        return 1; }
}

engine_smoke() {
    local preset="$1"
    local bdir
    bdir="$(builddir_for "$preset")/bench"
    local flags="--cycles 20000 --warmup 4000 --pairs 2 --trios 2 --jobs 1"
    local scratch
    scratch="$(mktemp -d)"
    trap 'rm -rf "$scratch"' RETURN

    echo "==> [$preset] engine smoke (event vs reference, byte-identical;" \
         "event vs $golden)"
    # The event engine must be an unobservable optimization: every
    # simulating figure bench prints byte-identical stdout and emits
    # a byte-identical --trace JSONL under both engines. Each engine
    # gets its own cold cache so both actually simulate.
    # (bench_table1 prints a static table and never runs the cycle
    # loop, so it has no engine pair; its stdout alone is golden,
    # checked below.)
    local benches="bench_fig5 bench_fig6 bench_fig7 bench_fig8 \
bench_fig9 bench_fig10 bench_fig11 bench_fig12_13 bench_fig14 \
bench_ablations bench_fairness"
    local b
    for b in $benches; do
        # shellcheck disable=SC2086 # word-splitting of $flags is wanted
        "$bdir/$b" $flags --engine event \
            --cache "$scratch/$b.ev" \
            --trace "$scratch/$b.ev.jsonl" \
            --stats-json "$scratch/$b.ev.json" \
            > "$scratch/$b.ev.out" 2>/dev/null
        # shellcheck disable=SC2086
        "$bdir/$b" $flags --engine reference \
            --cache "$scratch/$b.ref" \
            --trace "$scratch/$b.ref.jsonl" \
            > "$scratch/$b.ref.out" 2>/dev/null
        cmp "$scratch/$b.ev.out" "$scratch/$b.ref.out" || {
            echo "engine smoke: $b stdout differs" >&2; return 1; }
        cmp "$scratch/$b.ev.jsonl" "$scratch/$b.ref.jsonl" || {
            echo "engine smoke: $b trace differs" >&2; return 1; }
        golden_check "$b" "$scratch/$b.ev.out" "$scratch/$b.ev.json"
        echo "    $b: identical"
    done

    "$bdir/bench_table1" > "$scratch/bench_table1.out"
    if [ "$update_golden" = 1 ]; then
        cp "$scratch/bench_table1.out" "$golden/bench_table1.out"
    else
        cmp "$scratch/bench_table1.out" "$golden/bench_table1.out" || {
            echo "golden: bench_table1 stdout differs from" \
                 "$golden/bench_table1.out" >&2
            return 1; }
    fi
    echo "    bench_table1: matches golden"

    # Serving is the path with the most skips: between arrivals only
    # the policy's control points need the clock.
    local sflags="--launches 60 --loads 1.0,4.0 --rate 0.08 --jobs 1"
    local p
    for p in serving naive rollover elastic rollover-time spart; do
        local e
        # shellcheck disable=SC2086
        "$bdir/bench_serving" $sflags --policy "$p" --engine event \
            --trace "$scratch/srv.$p.event.jsonl" \
            --stats-json "$scratch/srv.$p.event.json" \
            > "$scratch/srv.$p.event.out" 2>/dev/null
        # shellcheck disable=SC2086
        "$bdir/bench_serving" $sflags --policy "$p" --engine reference \
            --trace "$scratch/srv.$p.reference.jsonl" \
            > "$scratch/srv.$p.reference.out" 2>/dev/null
        cmp "$scratch/srv.$p.event.out" "$scratch/srv.$p.reference.out" || {
            echo "engine smoke: bench_serving --policy $p stdout differs" >&2
            return 1; }
        cmp "$scratch/srv.$p.event.jsonl" \
            "$scratch/srv.$p.reference.jsonl" || {
            echo "engine smoke: bench_serving --policy $p trace differs" >&2
            return 1; }
        golden_check "bench_serving.$p" "$scratch/srv.$p.event.out" \
            "$scratch/srv.$p.event.json"
        echo "    bench_serving --policy $p: identical"
    done

    # The large config (56 SMs, 2 schedulers per SM) nearly fills
    # the Gpu's 64-bit parked-SM mask and is the only shipped config
    # with another scheduler count: both engines must agree on it
    # too, and its event runs are golden (tests/golden/large.*), so
    # two-scheduler arbitration is pinned as well.
    local e
    for e in event reference; do
        # shellcheck disable=SC2086
        "$bdir/bench_fig8" $flags --config large --engine "$e" \
            --cache "$scratch/large.fig8.$e" \
            --trace "$scratch/large.fig8.$e.jsonl" \
            --stats-json "$scratch/large.fig8.$e.json" \
            > "$scratch/large.fig8.$e.out" 2>/dev/null
        # shellcheck disable=SC2086
        "$bdir/bench_serving" $sflags --policy serving --config large \
            --engine "$e" --trace "$scratch/large.srv.$e.jsonl" \
            --stats-json "$scratch/large.srv.$e.json" \
            > "$scratch/large.srv.$e.out" 2>/dev/null
    done
    local leg
    for leg in fig8 srv; do
        cmp "$scratch/large.$leg.event.out" \
            "$scratch/large.$leg.reference.out" || {
            echo "engine smoke: --config large $leg stdout differs" >&2
            return 1; }
        cmp "$scratch/large.$leg.event.jsonl" \
            "$scratch/large.$leg.reference.jsonl" || {
            echo "engine smoke: --config large $leg trace differs" >&2
            return 1; }
    done
    golden_check large.bench_fig8 "$scratch/large.fig8.event.out" \
        "$scratch/large.fig8.event.json"
    golden_check large.bench_serving.serving \
        "$scratch/large.srv.event.out" "$scratch/large.srv.event.json"
    echo "    --config large bench_fig8, bench_serving --policy serving:" \
         "identical, matches golden"
}

examples_smoke() {
    local preset="$1"
    local bdir
    bdir="$(cd "$(builddir_for "$preset")/examples" && pwd)"
    local scratch
    scratch="$(mktemp -d)"
    trap 'rm -rf "$scratch"' RETURN

    echo "==> [$preset] examples smoke (exit 0, non-empty stdout)"
    # The examples write .qos_cache/ into their working directory.
    local ex
    for ex in characterize quickstart policy_trace video_analytics \
              datacenter_trio; do
        (cd "$scratch" && "$bdir/$ex" --cycles 20000) \
            > "$scratch/$ex.out" 2>/dev/null || {
            echo "examples smoke: $ex failed" >&2; return 1; }
        [ -s "$scratch/$ex.out" ] || {
            echo "examples smoke: $ex printed nothing" >&2; return 1; }
        echo "    $ex: ok"
    done
}

for preset in "${presets[@]}"; do
    echo "==> [$preset] configure"
    cmake --preset "$preset"
    echo "==> [$preset] build"
    cmake --build --preset "$preset" -j "$(nproc)"
    if [ "$update_golden" = 1 ]; then
        engine_smoke "$preset"
        echo "==> rewrote $golden/"
        continue
    fi
    echo "==> [$preset] test"
    ctest --preset "$preset"
    sweep_smoke "$preset"
    serving_smoke "$preset"
    # The engine differential smoke simulates 11 benches twice; run
    # it once, on the fast Release binary.
    if [ "$preset" = default ]; then
        engine_smoke "$preset"
        examples_smoke "$preset"
        echo "==> [$preset] perfbench selftest"
        python3 perfbench/run.py --selftest
    fi
done

echo "==> all checks passed"
