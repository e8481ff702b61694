#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size.

Run from the repository root::

    python3 perfbench/smoke.py

For every workload and both trace modes it runs ``perfbench/run.py``
with ``--scale 0.02 --seconds 0`` in a fresh process and checks that the
run exits 0, that its last line is the result object with exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``, that every
metric ``BENCHMARK.json`` names for that mode is present with its unit
and a finite value, and that the run's correctness checks passed.  It
also runs the benchmark in a copy holding only ``BENCHMARK.json`` and
the benchmark's own files, where it must exit non-zero without printing
a result.  Exits 0 when everything holds.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_mix", "fleet_replay", "ingest_failover")
TIMEOUT_S = 180


def run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=TIMEOUT_S,
    )


def check_run(workload: str, trace: int, units: dict) -> list:
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
               "--trace", str(trace), "--scale", "0.02")
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: checks failed: "
                        f"{proc.stdout.strip().splitlines()[-2][:500]}")
    if not (isinstance(result.get("attempted"), int)
            and result["attempted"] >= 1):
        problems.append(f"{where}: attempted {result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(units):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(units))}")
    for name, unit in units.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{where}: {name} unit {entry.get('unit')!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r}")
    return problems


def check_without_program() -> list:
    """Only BENCHMARK.json and perfbench/: must fail without a result."""
    bare = os.path.join(HERE, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, "--workload", "serve_mix", "--seed", "0",
                   "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare checkout: exit {proc.returncode}, "
                f"stdout {proc.stdout[:200]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    modes = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = check_without_program()
    for workload in WORKLOADS:
        for trace, units in modes.items():
            found = check_run(workload, trace, units)
            print(f"{workload} --trace {trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
