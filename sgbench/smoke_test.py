#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

    python3 sgbench/smoke_test.py

Runs every workload through sgbench/run.py with --small, once timed
(--trace 0) and once traced (--trace 1), and checks that:
  - each run exits 0 and its last stdout line is the result JSON with
    exactly the keys correct, attempted, failed and metrics, correct true;
  - a timed run prints every end_to_end metric of BENCHMARK.json, and a
    traced run every per_layer metric, each with the unit BENCHMARK.json
    gives it, both on a "metric" line and in the result JSON;
  - every workload reports its ops and ops_failed counts.
Exits 0 when all hold, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace):
    command = [sys.executable, str(ROOT / "sgbench" / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace), "--small"]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    return result.returncode, result.stdout.splitlines(), result.stderr


def check_metrics(label, lines, expected, errors):
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{label}: result keys {sorted(result)}")
        return result
    if result["correct"] is not True or result["attempted"] < 1:
        errors.append(f"{label}: correct={result['correct']} attempted={result['attempted']}")
    printed = {}
    for line in lines[:-1]:
        words = line.split()
        if len(words) == 4 and words[0] == "metric":
            printed[words[1]] = words[3]
    for metric in expected:
        name, unit = metric["name"], metric["unit"]
        if printed.get(name) != unit:
            errors.append(f"{label}: metric line for {name} [{unit}] missing or wrong: {printed.get(name)}")
        got = result["metrics"].get(name)
        if got is None or got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{label}: result JSON lacks {name} [{unit}]: {got}")
    extra = set(result["metrics"]) - {metric["name"] for metric in expected}
    if extra:
        errors.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    traced = None
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload} --trace {trace}"
            if trace == 1 and traced is not None:
                continue  # The traced run covers every workload; once is enough.
            code, lines, stderr = run(workload, trace)
            if code != 0 or not lines:
                errors.append(f"{label}: exit {code}\n{stderr[-2000:]}")
                continue
            result = check_metrics(label, lines, expected, errors)
            if trace == 1:
                traced = result
    if traced is not None:
        for short in ("web", "campaign", "track"):
            for count in ("ops", "ops_failed"):
                if f"{count}.{short}" not in traced["metrics"]:
                    errors.append(f"traced run lacks {count}.{short}")
    for error in errors:
        print("FAIL:", error)
    print("smoke test:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
