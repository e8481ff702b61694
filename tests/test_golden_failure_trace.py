"""Golden trace for a fail -> degraded-read -> rebuild campaign.

The replicated-shard plane adds three behaviors whose exact interleaving
matters: a failed shard's reads reroute to surviving replicas, degraded
shards charge their slowdown factor, and every destroyed replica becomes
a background re-replication job contending with foreground queries.  A
changed tie-break anywhere in that machinery would reorder the trace, so
this test pins one small campaign byte-for-byte the same way
``test_golden_traces.py`` pins the healthy scheduler.

Regenerate after an *intentional* change with::

    PYTHONPATH=src python -m pytest tests/test_golden_failure_trace.py \
        --update-golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.codec.decoder import DecoderPool
from repro.core.store import VStore
from repro.obs.trace import validate_events
from repro.operators.library import default_library
from repro.query.scheduler import OperatorContextPool
from repro.storage.disk import DiskBandwidthPool
from repro.storage.failures import FailureCampaign

from oracles.executor import run as run_on

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "trace_failure_campaign.json"

#: Shard 0 dies at t=2 (each destroyed replica becomes a class-1 rebuild
#: job) while shard 1 limps at 6x; queries arriving after the failure
#: route around the dead shard onto degraded survivors.  Both shards
#: return at t=30, past the last arrival, so the trailing recover events
#: extend the pinned makespan.
CAMPAIGN = "fail@2:0,degrade@2:1:6,recover@30:0,recover@30:1"

#: Two arrivals before the failure, two after it (degraded window).
SPECS = (
    {"query": "A", "dataset": "jackson", "accuracy": 0.9,
     "t0": 0.0, "t1": 16.0, "arrival": 0.0, "tenant": "ops"},
    {"query": "B", "dataset": "dashcam", "accuracy": 0.9,
     "t0": 0.0, "t1": 16.0, "arrival": 1.0, "tenant": "ops",
     "deadline": 12.0},
    {"query": "A", "dataset": "jackson", "accuracy": 0.8,
     "t0": 0.0, "t1": 16.0, "arrival": 3.0, "tenant": "forensics"},
    {"query": "B", "dataset": "dashcam", "accuracy": 0.9,
     "t0": 0.0, "t1": 8.0, "arrival": 5.0, "tenant": "forensics"},
)


@pytest.fixture()
def failure_store(tmp_path_factory):
    """A *fresh* store per run: rebuild commits persist new replica
    placements, so a reused store would have nothing left to fail."""

    def build():
        lib = default_library(names=("Diff", "S-NN", "NN", "Motion",
                                     "License", "OCR"))
        store = VStore(workdir=str(tmp_path_factory.mktemp("goldenfail")),
                       library=lib, shards=4, replication=2)
        store.configure()
        store.ingest("jackson", n_segments=4)
        store.ingest("dashcam", n_segments=4)
        return store

    return build


def _round(value: float) -> float:
    return round(value, 9)


def _run_campaign(build_store, core=None):
    """One canonical campaign run; returns (payload, raw trace events)."""
    store = build_store()
    ex = store.executor(
        disk_pool=DiskBandwidthPool(1),
        decoder_pool=DecoderPool(1),
        operator_pool=OperatorContextPool(2),
        trace=True,
    )
    campaign = FailureCampaign.parse(CAMPAIGN)
    store._admit_with_failures(ex, [dict(s) for s in SPECS], campaign)
    outcomes = run_on(ex, core)
    store.close()
    stats = ex.stats()
    payload = {
        "campaign": CAMPAIGN,
        "makespan": _round(stats.makespan),
        "events": [
            {
                "event": e["event"],
                "t": _round(e["t"]),
                "query": e["query"],
                "kind": e["kind"],
                "operator": e["operator"],
                "resource": e["resource"],
                "duration": _round(e["duration"]),
            }
            for e in ex.trace_events
        ],
        "queries": [
            {
                "label": o.session.label,
                "latency": _round(o.latency),
                "service": _round(o.service_seconds),
                "finished_at": _round(o.session.finished_at),
            }
            for o in outcomes
        ],
    }
    return payload, list(ex.trace_events)


def _canonical_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=1,
                       ensure_ascii=True) + "\n").encode("utf-8")


def test_campaign_trace_matches_golden(failure_store, request):
    payload, _ = _run_campaign(failure_store)
    data = _canonical_bytes(payload)
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        GOLDEN_PATH.write_bytes(data)
        return
    assert GOLDEN_PATH.exists(), (
        f"missing golden trace {GOLDEN_PATH}; generate it with "
        f"pytest tests/test_golden_failure_trace.py --update-golden"
    )
    assert GOLDEN_PATH.read_bytes() == data, (
        f"the failure-campaign trace drifted from {GOLDEN_PATH}; if the "
        f"change is intentional, regenerate with --update-golden and "
        f"review the diff"
    )


def test_campaign_trace_is_schema_valid(failure_store):
    _, events = _run_campaign(failure_store)
    validate_events(events)


def test_campaign_trace_tells_the_whole_story(failure_store):
    """fail, degraded reads, rebuild traffic, and recovery all appear."""
    payload, _ = _run_campaign(failure_store)
    kinds = {e["kind"] for e in payload["events"]}
    assert {"fail", "degrade", "recover", "replicate"} <= kinds
    # Rebuild jobs ran as background sessions alongside the queries.
    labels = [q["label"] for q in payload["queries"]]
    assert any(":rebuild:" in label for label in labels)
    assert sum(":rebuild:" not in label for label in labels) == 4
    # The trailing recover events pin the makespan at the campaign end.
    assert payload["makespan"] == pytest.approx(30.0)


def test_campaign_heap_replays_reference(failure_store):
    heap, _ = _run_campaign(failure_store, "heap")
    ref, _ = _run_campaign(failure_store, "reference")
    assert _canonical_bytes(heap) == _canonical_bytes(ref)
