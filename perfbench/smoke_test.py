#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at the tiny workload size.

    python3 perfbench/smoke_test.py

Runs every workload untraced and traced.  Each run must report correct
results (the traced run fails itself when its per-point aggregates differ
from the untraced run's), and must print every metric BENCHMARK.json names,
with its unit.  Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                   "--seed", "7", "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            label = "%s trace=%d" % (workload, trace)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                problems.append("%s: exit %d" % (label, proc.returncode))
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: not correct: %s" % (label, lines[-1]))
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append("%s: metrics %s, expected %s" % (label, got, expected[trace]))
            text = "\n".join(lines[:-1])
            for name, unit in expected[trace].items():
                if name not in text or unit not in text:
                    problems.append("%s: %s [%s] missing from the printed table" %
                                    (label, name, unit))
            if trace == 0 and "runs_failed" not in text:
                problems.append("%s: runs_failed missing from the printed table" % label)
            print("%-28s %s" % (label, "ok" if not problems else "FAILED"), flush=True)
            if problems:
                break
        if problems:
            break
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
