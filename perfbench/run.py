#!/usr/bin/env python3
"""End-to-end benchmark of wlgen: builds the benchmark program, runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload sharded_warm --seed 1991 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, both modes

The program (perfbench/main.cpp) is built from source in the build
directory ($CARGO_TARGET_DIR, else .bench_build) with the build description in
perfbench/CMakeLists.txt, which links the repository's libwlgen.  With
--trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics, with --trace 1 the per-layer metrics.  Build output goes
to standard error.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["sharded_warm", "contended_sweep", "wide_spill"]
# The program's time limit beyond --seconds: set-up, the last repetition's
# overrun and the traced run's replays all fit well inside it.
SLACK_S = 145


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds the program; returns its path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "scenario", "run.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("the wlgen sources are missing (%s not found under %s)" % (needed, ROOT))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out_dir, "--target", "wlgen_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out_dir, "wlgen_perfbench")


def run_once(program, out_dir, workload, seed, seconds, trace, size):
    """Runs the program once; echoes its output and returns (code, result)."""
    cmd = [program, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--size", size, "--work-dir", out_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=SLACK_S + seconds, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: the program exceeded %d s" % (SLACK_S + seconds), file=sys.stderr)
        return 1, None
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    sys.stdout.write("\n".join(lines[:-1] if result else lines) + "\n")
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="%s or all" % ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1991)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the smoke-test size (no pinned digests)")
    args = parser.parse_args()
    if args.workload != "all" and args.workload not in WORKLOADS:
        fail("unknown workload %r" % args.workload)

    out_dir = build_dir()
    try:
        program = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as exc:
        fail("build failed: %s" % exc)

    if args.workload != "all":
        code, result = run_once(program, out_dir, args.workload, args.seed, args.seconds,
                                args.trace, args.size)
        if result is None:
            return code or 1
        print(json.dumps(result))
        return code

    # Every workload untraced then traced, with a closing table of both.
    rows = []
    worst = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_once(program, out_dir, workload, args.seed, args.seconds,
                                    trace, args.size)
            worst = max(worst, code if result else (code or 1))
            if result:
                print(json.dumps(result))
                failed = result["failed"] / max(1, result["attempted"])
                rows.append((workload, "runs_failed", failed, "ratio"))
                for name, metric in result["metrics"].items():
                    rows.append((workload, name, metric["value"], metric["unit"]))
    print("\n%-16s %-32s %16s  %s" % ("workload", "metric", "value", "unit"))
    for workload, name, value, unit in rows:
        print("%-16s %-32s %16.6g  %s" % (workload, name, value, unit))
    return worst


if __name__ == "__main__":
    sys.exit(main())
