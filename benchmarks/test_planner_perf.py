"""Planner performance: the vectorized profiling plane vs the scalar path.

For 5/10/15-consumer workloads, runs heuristic, distance and (where the
CF count is affordable) exhaustive planning twice — once on the legacy
per-call scalar surfaces (the ``oracles.profiler`` test oracle) and once
on the shared :class:`~repro.codec.tables.ProfileTable` — and compares
wall time, codec-surface evaluation counts and profiler invocations.
Plans must be identical in both modes; the vectorized plane must cut
per-call surface evaluations by at least 5x on the 10-consumer workload.

The numbers land in ``benchmarks/RESULTS.md`` so future PRs have a perf
trajectory to regress against.
"""

import time

import pytest

from repro.analysis.tables import format_profiling_summary_table
from repro.codec.model import SURFACE_CALLS
from repro.codec.tables import clear_profile_table_cache
from repro.core.coalesce import StorageFormatPlanner
from repro.core.consumption import ConsumptionPlanner
from repro.operators.library import Consumer
from repro.profiler.coding_profiler import CodingProfiler
from repro.profiler.profiler import OperatorProfiler

from oracles.profiler import ScalarCodingProfiler

#: (operator, profiling dataset) in workload order; consumers are taken
#: in accuracy-major order below, so prefixes mix fast and slow operators.
_OPERATORS = (
    ("Motion", "dashcam"), ("License", "dashcam"), ("OCR", "dashcam"),
    ("Diff", "jackson"), ("NN", "jackson"), ("S-NN", "jackson"),
)
_ACCURACIES = (0.95, 0.9, 0.8, 0.7)
SIZES = (5, 10, 15)


@pytest.fixture(scope="module")
def all_decisions(full_library):
    planners = {
        ds: ConsumptionPlanner(OperatorProfiler(full_library, ds))
        for ds in ("dashcam", "jackson")
    }
    decisions = []
    for acc in _ACCURACIES:
        for op, ds in _OPERATORS:
            decisions.append(planners[ds].derive(Consumer(op, acc)))
    return decisions


def _measure(method, decisions, use_table, cold=True, **kwargs):
    if cold:
        clear_profile_table_cache()
    scalar0, grid0 = SURFACE_CALLS.scalar, SURFACE_CALLS.grid
    t0 = time.perf_counter()
    profiler = (CodingProfiler if use_table else ScalarCodingProfiler)(
        activity=0.6)
    plan = getattr(StorageFormatPlanner(profiler), method)(
        decisions, **kwargs
    )
    wall = time.perf_counter() - t0
    evals = (SURFACE_CALLS.scalar - scalar0) + (SURFACE_CALLS.grid - grid0)
    return plan, wall, evals, profiler.stats


def test_planner_perf(benchmark, record, full_library, all_decisions):
    lines = [
        f"{'consumers':>9} {'planner':>10} {'mode':>7} {'wall ms':>8} "
        f"{'surface evals':>13} {'prof runs':>9} {'memo hits':>10}"
    ]
    speedups = {}
    memo_rows = []
    for size in SIZES:
        decisions = all_decisions[:size]
        unique_cfs = len({d.fidelity for d in decisions})
        methods = [("heuristic", "heuristic_coalesce", {}),
                   ("distance", "distance_coalesce", {"target_count": 4})]
        if unique_cfs <= 8:  # Bell(8) = 4140 partitions: affordable
            methods.append(("exhaustive", "exhaustive", {}))
        for name, method, kwargs in methods:
            plan_s, wall_s, evals_s, stats_s = _measure(
                method, decisions, use_table=False, **kwargs
            )
            plan_v, wall_v, evals_v, stats_v = _measure(
                method, decisions, use_table=True, **kwargs
            )
            # Steady state: the shared table is already built (every
            # profiler in a process reuses it), so planning is pure lookups.
            plan_w, wall_w, evals_w, stats_w = _measure(
                method, decisions, use_table=True, cold=False, **kwargs
            )
            assert (sorted(sf.label for sf in plan_w.formats)
                    == sorted(sf.label for sf in plan_v.formats))
            # Parity: the vectorized plane must not change the plan.
            assert (sorted(sf.label for sf in plan_s.formats)
                    == sorted(sf.label for sf in plan_v.formats))
            assert (plan_s.storage_bytes_per_second
                    == plan_v.storage_bytes_per_second)
            assert plan_s.ingest_cores == plan_v.ingest_cores
            for mode, wall, evals, stats in (
                ("scalar", wall_s, evals_s, stats_s),
                ("cold", wall_v, evals_v, stats_v),
                ("warm", wall_w, evals_w, stats_w),
            ):
                lines.append(
                    f"{size:>9} {name:>10} {mode:>7} {wall * 1e3:>8.1f} "
                    f"{evals:>13} {stats.runs:>9} {stats.memo_hits:>10}"
                )
            speedups[(size, name)] = (
                evals_s / max(1, evals_v),
                wall_s / max(wall_v, 1e-9),
                wall_s / max(wall_w, 1e-9),
            )
            memo_rows.append({
                "label": f"{size}c {name}",
                "runs": stats_v.runs,
                "memo_hits": stats_v.memo_hits + stats_v.adequacy_hits,
            })

    lines.append("")
    for (size, name), (eval_ratio, cold_ratio, warm_ratio) in \
            speedups.items():
        lines.append(
            f"{size:>3} consumers {name:>10}: surface-eval reduction "
            f"{eval_ratio:>7.1f}x, wall speedup {cold_ratio:>5.2f}x cold / "
            f"{warm_ratio:>5.2f}x warm"
        )
    record("Planner performance — vectorized profiling plane",
           "\n".join(lines))
    record("Planner performance — profiler memoization",
           format_profiling_summary_table(memo_rows))
    benchmark.pedantic(
        lambda: _measure("heuristic_coalesce", all_decisions[:10], True),
        rounds=1, iterations=1,
    )

    # Acceptance: >=5x fewer codec-surface evaluations on the 10-consumer
    # heuristic workload (in practice the reduction is orders of magnitude:
    # the table costs a handful of grid passes, then planning is lookups).
    assert speedups[(10, "heuristic")][0] >= 5.0
    assert speedups[(10, "distance")][0] >= 5.0
