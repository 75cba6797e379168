#!/usr/bin/env python3
"""Print the sha256 of the simulated physics in a --stats-json report.

The digest covers only what the model computes, so it is the same on
every host, at every job count and under either stepping engine:

  - per case: key, kernels, cycle_breakdown, preemptions,
    dram_per_kcycle and instr_per_watt, sorted by key;
  - the serving section;
  - metrics.counters, minus the engine.* and harness.* counters.

Host-time and cache fields (wall_sec, sim_cycles_per_sec, from_cache,
engine, trace, samples, sweeps) are left out, and so is a case's
free_preemption flag: it says which Runner ran the case, and the
golden files predate it.

    scripts/golden_digest.py STATS.json
"""

import hashlib
import json
import sys

CASE_FIELDS = ("key", "kernels", "cycle_breakdown", "preemptions",
               "dram_per_kcycle", "instr_per_watt")
HOST_COUNTER_PREFIXES = ("engine.", "harness.")


def canonical(report):
    cases = sorted(
        ({f: case.get(f) for f in CASE_FIELDS}
         for case in report.get("cases", [])),
        key=lambda c: c["key"])
    counters = {
        name: value
        for name, value in report.get("metrics", {})
        .get("counters", {}).items()
        if not name.startswith(HOST_COUNTER_PREFIXES)
    }
    return {
        "cases": cases,
        "serving": report.get("serving", []),
        "counters": counters,
    }


def main(argv):
    if len(argv) != 2:
        print("usage: scripts/golden_digest.py STATS.json", file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        report = json.load(f)
    dump = json.dumps(canonical(report), sort_keys=True,
                      separators=(",", ":"))
    print(hashlib.sha256(dump.encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
