"""Golden snapshot of the derived configuration (Section 4, end to end).

Backward derivation is deterministic: the same library on the same
profiling clips must yield the same consumption formats, the same
coalesced storage formats, the same erosion plan and the same profiling
accounting, to the last bit.  This test pins all of it for the six
benchmark operators of queries A and B and for the full Table-2 library,
floats spelled with ``float.hex`` so a one-ULP drift fails.

Regenerate after an *intentional* planner or profiler change with::

    PYTHONPATH=src python -m pytest tests/test_configuration_golden.py --update-golden

and review the diff.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

import pytest

from repro.clock import SimClock
from repro.core.config import derive_configuration
from repro.operators.library import default_library
from repro.profiler.profiler import OperatorProfiler

GOLDEN = Path(__file__).parent / "golden" / "configuration.json"

#: The libraries the snapshot covers: the benchmark's six query operators
#: and the full nine-operator default library.
LIBRARIES = {
    "benchmark": ("Diff", "S-NN", "NN", "Motion", "License", "OCR"),
    "default": None,
}


def _hex(value: float) -> str:
    return float(value).hex()


def _hex_map(mapping: Dict) -> Dict[str, str]:
    return {str(key): _hex(value) for key, value in sorted(mapping.items())}


def _snapshot(names) -> dict:
    library = default_library() if names is None else default_library(
        names=names)
    clock = SimClock()
    profilers: Dict[str, OperatorProfiler] = {}
    config = derive_configuration(library, clock=clock, profilers=profilers)
    plan, erosion, stats = config.plan, config.erosion, config.stats
    coding = config.coding_profiler.stats
    return {
        "decisions": [
            {
                "consumer": d.consumer.label,
                "fidelity": d.fidelity.label,
                "accuracy": _hex(d.accuracy),
                "speed": _hex(d.consumption_speed),
            }
            for d in config.decisions
        ],
        "formats": [
            {
                "label": sf.label,
                "golden": sf.golden,
                "demands": [
                    {
                        "consumer": demand.consumer.label,
                        "cf": demand.cf_fidelity.label,
                        "required_speed": _hex(demand.required_speed),
                        "legacy": demand.legacy,
                    }
                    for demand in sf.demands
                ],
            }
            for sf in plan.formats
        ],
        "storage_bytes_per_second": _hex(plan.storage_bytes_per_second),
        "ingest_cores": _hex(plan.ingest_cores),
        "rounds": plan.rounds,
        "erosion": {
            "k": _hex(erosion.k),
            "pmin": _hex(erosion.pmin),
            "lifespan_days": erosion.lifespan_days,
            "labels": list(erosion.labels),
            "fractions": _hex_map(erosion.fractions),
            "overall_speed": _hex_map(erosion.overall_speed),
            "residual_bytes": _hex_map(erosion.residual_bytes),
        },
        "config_stats": {
            "operator_runs": stats.operator_runs,
            "operator_seconds": _hex(stats.operator_seconds),
            "coding_runs": stats.coding_runs,
            "coding_memo_hits": stats.coding_memo_hits,
            "coding_seconds": _hex(stats.coding_seconds),
            "coalesce_rounds": stats.coalesce_rounds,
        },
        "coding_profiler_stats": {
            "runs": coding.runs,
            "memo_hits": coding.memo_hits,
            "adequacy_hits": coding.adequacy_hits,
            "seconds": _hex(coding.seconds),
        },
        "operator_profilers": {
            dataset: {
                "runs": p.stats.runs,
                "memo_hits": p.stats.memo_hits,
                "seconds": _hex(p.stats.seconds),
                "runs_by_operator": dict(sorted(
                    p.stats.runs_by_operator.items())),
                "seconds_by_operator": _hex_map(p.stats.seconds_by_operator),
            }
            for dataset, p in sorted(profilers.items())
        },
        "clock": {
            "now": _hex(clock.now),
            "by_category": _hex_map(clock.by_category),
        },
    }


def _canonical_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=1,
                       ensure_ascii=True) + "\n").encode("utf-8")


def test_configuration_matches_golden(request):
    data = _canonical_bytes(
        {name: _snapshot(names) for name, names in LIBRARIES.items()})
    if request.config.getoption("--update-golden"):
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_bytes(data)
        return
    assert GOLDEN.exists(), (
        f"missing golden configuration {GOLDEN}; generate it with "
        f"pytest tests/test_configuration_golden.py --update-golden"
    )
    assert GOLDEN.read_bytes() == data, (
        f"the derived configuration drifted from {GOLDEN}; if the planner "
        f"change is intentional, regenerate with --update-golden and "
        f"review the diff"
    )
