"""Benchmark fixtures: shared configuration plus a results collector.

Every benchmark regenerates one of the paper's tables or figures.  Besides
the pytest-benchmark timing, each test renders its rows through the
``record`` fixture; at the end of the session everything is written to
``benchmarks/out/RESULTS.md`` so the paper-vs-measured comparison of
EXPERIMENTS.md can be refreshed from one run.

Session outputs go to the git-ignored ``benchmarks/out/`` directory, so a
test run never rewrites a tracked file.  The committed
``benchmarks/RESULTS.md`` and ``benchmarks/BENCH.json`` are reference
snapshots of a full run; refresh them by copying a full session's
outputs over them on purpose.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

import pytest

from repro.core.config import derive_configuration
from repro.operators.library import default_library

# The parity oracles (tests/oracles) back several benchmark assertions.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests"))

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")
RESULTS_PATH = os.path.join(OUT_DIR, "RESULTS.md")
BENCH_PATH = os.path.join(OUT_DIR, "BENCH.json")

#: Machine-readable perf telemetry of one benchmark session, written to
#: ``benchmarks/out/BENCH.json`` at session end so the perf trajectory is
#: comparable across PRs (CI uploads it as an artifact):
#: ``tests`` maps each benchmark test to its real wall-clock seconds;
#: ``metrics`` holds structured per-benchmark numbers (executor
#: events/sec, speedups, simulated makespans) recorded through the
#: ``bench_metrics`` fixture.  Like RESULTS.md, the committed copy must
#: come from a *full* benchmark run — a partial session (e.g. the CI
#: perf-smoke's ``-k smoke``) rewrites the file with only its own cells.
_BENCH: Dict[str, Dict] = {"schema": 1, "tests": {}, "metrics": {}}


@pytest.fixture(scope="session")
def library():
    return default_library(names=("Diff", "S-NN", "NN", "Motion", "License",
                                  "OCR"))


@pytest.fixture(scope="session")
def full_library():
    return default_library()


@pytest.fixture(scope="session")
def configuration(library):
    return derive_configuration(library)


class _Recorder:
    def __init__(self):
        self.sections: Dict[str, List[str]] = {}

    def __call__(self, section: str, text: str) -> None:
        self.sections.setdefault(section, []).append(text)

    def render(self) -> str:
        parts = ["# Benchmark results (regenerated)\n"]
        for section in sorted(self.sections):
            parts.append(f"\n## {section}\n")
            parts.extend(f"```\n{text}\n```\n"
                         for text in self.sections[section])
        return "".join(parts)


@pytest.fixture(scope="session")
def _recorder():
    recorder = _Recorder()
    yield recorder
    if recorder.sections:
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(RESULTS_PATH, "w") as f:
            f.write(recorder.render())


@pytest.fixture()
def record(_recorder):
    return _recorder


class _BenchMetrics:
    """Collector behind the ``bench_metrics`` fixture.

    ``bench_metrics("executor_scale/q256_s4", wall_seconds=..., ...)``
    lands under ``metrics`` in BENCH.json; keys are stable across PRs so
    trajectories can be diffed mechanically.
    """

    def __call__(self, name: str, **fields) -> None:
        _BENCH["metrics"][name] = fields


@pytest.fixture()
def bench_metrics():
    return _BenchMetrics()


def pytest_runtest_logreport(report):
    """Record each benchmark test's real wall-clock (call phase only)."""
    if report.when == "call" and "benchmarks/" in report.nodeid.replace(
            os.sep, "/"):
        _BENCH["tests"][report.nodeid] = round(report.duration, 4)


def pytest_sessionfinish(session):
    """Write BENCH.json whenever this session ran any benchmark."""
    if _BENCH["tests"] or _BENCH["metrics"]:
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(BENCH_PATH, "w") as f:
            json.dump(_BENCH, f, indent=1, sort_keys=True)
            f.write("\n")
