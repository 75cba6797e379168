#!/usr/bin/env python3
"""Record simulator speed in BENCH_speed.json.

    python3 scripts/bench_speed.py

Runs every workload of BENCHMARK.json through perfbench/run.py
(--seed 1, the benchmark's run length, --trace 0) five times,
alternating workloads, and appends one entry to the history in
BENCH_speed.json: the commit (stamped -dirty when, as the runs
start, the tree differs from HEAD in anything but BENCH_speed.json),
the host identity, and
the median, q1 and q3 of every end-to-end metric per workload.

Exits 1 when a run fails perfbench's correctness gate or reports a
failed operation, or when a median is worse than in the newest
earlier perfbench entry from the same host identity by more than the
metric's relative bound in BENCHMARK.json. The entry is written
either way, so a regression stays on record.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "BENCH_speed.json")
RUNS = 5
SOURCE = "perfbench"


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=True).stdout.strip()


def run_once(workload, seconds):
    """One untraced perfbench run: (host identity, JSON result)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        host = json.loads(next(l for l in lines if l.startswith("host "))[5:])
        result = json.loads(lines[-1])
    except (StopIteration, IndexError, ValueError):
        sys.exit("bench_speed: %s printed no result (exit %d)"
                 % (workload, proc.returncode))
    del host["loadavg"]
    return host, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    commit = git("rev-parse", "--short", "HEAD")
    if git("status", "--porcelain", "--", ".",
           ":(exclude)BENCH_speed.json"):
        commit += "-dirty"
    ok = True
    samples = {w: {m["name"]: [] for m in metrics} for w in workloads}
    for i in range(RUNS):
        for w in workloads:
            host, result = run_once(w, bench["run_seconds"])
            print("run %d/%d %-17s correct=%s failed=%d"
                  % (i + 1, RUNS, w, result["correct"], result["failed"]))
            if not result["correct"] or result["failed"] > 0:
                ok = False
            for m in metrics:
                samples[w][m["name"]].append(
                    result["metrics"][m["name"]]["value"])

    entry = {"commit": commit, "source": SOURCE, "host": host,
             "workloads": {}}
    for w in workloads:
        entry["workloads"][w] = {}
        for name, vals in samples[w].items():
            q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
            entry["workloads"][w][name] = {"median": med, "q1": q1, "q3": q3}

    with open(OUT) as f:
        history = json.load(f)["history"]
    prev = next((e for e in reversed(history)
                 if e.get("source") == SOURCE and e["host"] == host), None)
    history.append(entry)
    with open(OUT, "w") as f:
        json.dump({"history": history}, f, indent=2)
        f.write("\n")

    print("%s on %s; against %s" % (commit, json.dumps(host),
                                     prev["commit"] if prev else "nothing"))
    base = prev["workloads"] if prev else {}
    for w in workloads:
        for m in metrics:
            new = entry["workloads"][w][m["name"]]["median"]
            line = "%-17s %-18s %12.4f %s" % (w, m["name"], new, m["unit"])
            old = base.get(w, {}).get(m["name"], {}).get("median")
            if old:
                worse = (new - old if m["better"] == "lower"
                         else old - new) / old
                line += "  %+.1f%% vs %.4f" % (100 * (new / old - 1), old)
                if worse > m["bound"]:
                    line += "  REGRESSION (bound %.0f%%)" % (100 * m["bound"])
                    ok = False
            print(line)
    print("appended entry %d to BENCH_speed.json" % len(history))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
