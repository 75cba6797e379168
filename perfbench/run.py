#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark package (perfbench/)
is configured and built with CMake into $CARGO_TARGET_DIR (default
.bench_build) under the checkout, then the perfbench binary runs the
workload in a fresh private directory that is removed afterwards.
Traced runs (--trace 1) keep their span files under
<build dir>/traces/.

The last line of standard output is the benchmark's JSON result. The
exit status is non-zero when the build fails, the simulator sources
are missing, or the correctness gate finds a mismatch.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_cold", "serving_overload", "sweep_retrace")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return target


def run_logged(cmd, **kw):
    """Run a build step with its output on stderr; raise on failure."""
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                   **kw)


def build(targets):
    out = os.path.join(build_root(), "perfbench-build")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"])
    run_logged(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                "--target", *targets])
    return out


def run_child(cmd, cwd):
    """Run @p cmd to completion (killed after RUN_TIMEOUT_S)."""
    with subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    return proc.returncode, stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: simulator sources not found under %s" % ROOT,
              file=sys.stderr)
        return 2

    try:
        out = build(["perfbench_tests"] if args.selftest else ["perfbench"])
    except (subprocess.CalledProcessError, OSError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 2

    runs = os.path.join(build_root(), "runs")
    os.makedirs(runs, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=runs)
    try:
        if args.selftest:
            code, stdout = run_child(
                [os.path.join(out, "perfbench_tests")], workdir)
            sys.stdout.write(stdout)
            return code
        traces = os.path.join(build_root(), "traces")
        os.makedirs(traces, exist_ok=True)
        code, stdout = run_child(
            [os.path.join(out, "perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir, "--spans-out", traces], workdir)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %ds" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(stdout)
        print("run.py: benchmark printed no result", file=sys.stderr)
        return code or 4
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
