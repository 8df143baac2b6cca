#!/usr/bin/env python3
"""Tiny-scale smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload named in BENCHMARK.json through perfbench/run.py at a
few dozen KiB per database, untraced and traced, and checks that each run
exits 0, that its last line is a result object with exactly the four result
keys, that it emits exactly the metrics BENCHMARK.json declares (with their
units), that every answer check passed, and that fail_frac is 0. After the
first build it takes a few seconds per workload.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIZE_KB = "96"
SECONDS = "1"


def check_run(workload, trace, declared):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "42", "--seconds", SECONDS,
           "--trace", str(trace), "--size-kb", SIZE_KB]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          check=False, cwd=ROOT)
    errors = []
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return [f"exit {proc.returncode}"]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("answer checks failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted < 1")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in declared}:
        errors.append(f"metrics {sorted(metrics)} != declared "
                      f"{sorted(m['name'] for m in declared)}")
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {got.get('unit')}")
        if not isinstance(got.get("value"), (int, float)):
            errors.append(f"{m['name']}: value {got.get('value')}")
        elif trace == 0 and got["value"] <= 0:
            errors.append(f"{m['name']}: end-to-end value {got['value']}")
    if trace == 1 and metrics.get("fail_frac", {}).get("value") != 0:
        errors.append("fail_frac != 0")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for workload in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            errors = check_run(workload["name"], trace, declared)
            status = "ok" if not errors else "FAIL " + "; ".join(errors)
            print(f"{workload['name']} trace={trace}: {status}")
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
