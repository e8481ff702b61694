"""The benchmark's three workloads, built on the public ``repro`` API.

Every workload is one *round* repeated: a fresh store is set up
(:meth:`Workload.setup`, timed as ``setup_s``), then the measured phase
runs (:meth:`Workload.phase`), then the round's outputs are checked
(:meth:`Workload.check`).  Inputs come from the workload seed alone and
are generated here, not inside the store: arrival instants are handed
to ``VStore.serve`` as ``ArrivalSpec(kind="trace")`` timestamps, and
fleet stream assignments are drawn before the fleet is admitted.

* ``serve_mix`` -- the user path.  Three tenants with Poisson arrivals,
  EDF admission, deadline scheduling, a 5 s SLO and 18 distinct query
  specs, so nearly every arrival repeats an earlier spec.  Planning is
  most of the host time.
* ``fleet_replay`` -- a batch: one query A per camera client over 16
  aliased camera streams, admitted at t=0 from plans made during set-up.
  FIFO over bounded pools, so the run takes the vectorized event core
  and planning costs nothing in the measured phase.
* ``ingest_failover`` -- writes beside reads.  Six datasets are ingested
  in the measured phase, then about 300 arrivals (each its own 8 s
  window) are served while shard 1 fails at 60 s and recovers at 250 s;
  every replica the failure destroys is rebuilt in the background.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.slo import percentile
from repro.codec.decoder import DecoderPool
from repro.codec.tables import clear_profile_table_cache
from repro.core.store import VStore
from repro.operators.library import default_library
from repro.query.cascade import QUERY_A
from repro.query.scheduler import (
    AdmissionConfig,
    DeadlinePolicy,
    FIFOPolicy,
    OperatorContextPool,
)
from repro.query.workload import ArrivalSpec, QueryMixEntry, TenantSpec
from repro.storage.disk import DiskBandwidthPool
from repro.units import GB, SEGMENT_SECONDS

#: The six benchmark operators of the paper's queries A and B.
OPERATORS = ("Diff", "S-NN", "NN", "Motion", "License", "OCR")
ALL_DATASETS = ("jackson", "miami", "tucson", "dashcam", "park", "airport")
ACCURACIES = (0.8, 0.9, 0.95)
SHARDS = 4
REPLICATION = 2
SLO_SECONDS = 5.0


def _pools() -> Dict[str, object]:
    """The bounded simulated hardware every workload runs on."""
    return {
        "disk_pool": DiskBandwidthPool(1),  # one I/O channel per shard
        "decoder_pool": DecoderPool(2),
        "operator_pool": OperatorContextPool(4),
    }


def _poisson_trace(rng: np.random.Generator, count: int,
                   horizon: float) -> Tuple[float, ...]:
    """``count`` Poisson arrivals over ``[0, horizon)``.

    A Poisson process conditioned on its arrival count places the
    arrivals as sorted independent uniforms; fixing the count keeps the
    offered load equal across seeds while the instants still vary.
    """
    return tuple(float(t) for t in np.sort(rng.uniform(0.0, horizon, count)))


@dataclass
class Round:
    """One set-up plus measured phase, and what they produced."""

    store: Optional[VStore] = None
    #: Host seconds spent in ``VStore.ingest`` and the video seconds it
    #: stored (set-up ingest for serve_mix/fleet_replay, measured-phase
    #: ingest for ingest_failover).
    ingest_s: float = 0.0
    ingested_video_s: float = 0.0
    #: Bytes held across all shards, every replica counted, after ingest.
    stored_bytes: float = 0.0
    outcomes: list = field(default_factory=list)
    stats: object = None
    report: object = None  # ServeReport, for the serve-based workloads
    #: Replicas on the shards the campaign fails (ingest_failover).
    destroyed_replicas: int = 0
    specs: List[dict] = field(default_factory=list)

    def close(self) -> None:
        if self.store is not None:
            self.store.close()


class Workload:
    """Shared round structure; subclasses set inputs, setup and phase."""

    name = ""
    #: Span names whose measured-phase busy time this workload was chosen
    #: to exercise (see ``phase.chosen_layer_share``).
    chosen_layers: Tuple[str, ...] = ()

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.library = default_library(names=OPERATORS)

    def scaled(self, n: int, floor: int = 1) -> int:
        return max(floor, int(round(n * self.scale)))

    # -- the round ------------------------------------------------------------

    def new_store(self, workdir: str) -> VStore:
        # The codec profile table is memoized per process; clearing it
        # makes every set-up pay what a fresh process pays.
        clear_profile_table_cache()
        store = VStore(workdir=workdir, library=self.library, shards=SHARDS,
                       replication=REPLICATION)
        store.configure()
        return store

    def ingest(self, rnd: Round, plan: Sequence[Tuple[str, int, Optional[str]]]
               ) -> None:
        """Ingest ``(dataset, n_segments, stream)`` triples into the store."""
        start = perf_counter()
        for dataset, n_segments, stream in plan:
            rnd.store.ingest(dataset, n_segments=n_segments, stream=stream)
        rnd.ingest_s += perf_counter() - start
        rnd.ingested_video_s += sum(n for _, n, _ in plan) * SEGMENT_SECONDS
        rnd.stored_bytes = float(sum(rnd.store.disk_array.shard_bytes))

    def setup(self, workdir: str) -> Round:
        raise NotImplementedError

    def phase(self, rnd: Round) -> None:
        raise NotImplementedError

    @property
    def expected_arrivals(self) -> List[float]:
        """Sorted arrival instants of every query the phase must serve."""
        raise NotImplementedError

    # -- results ------------------------------------------------------------

    @staticmethod
    def foreground(rnd: Round) -> list:
        return [o for o in rnd.outcomes if o.session.klass == 0]

    def check(self, rnd: Round) -> List[str]:
        """Names of the correctness checks this round failed."""
        fg = self.foreground(rnd)
        if (any(o.session.finished_at is None for o in rnd.outcomes)
                or sorted(o.session.arrival_at for o in fg)
                != self.expected_arrivals):
            return ["one_outcome_per_arrival"]
        failed = []
        lat = [o.latency for o in fg]
        if not (percentile(lat, 0.50) <= percentile(lat, 0.95)
                <= percentile(lat, 0.99)):
            failed.append("percentiles_ordered")
        if rnd.report is not None and rnd.report.slo.queue_timeline:
            _, queued, in_flight = rnd.report.slo.queue_timeline[-1]
            if (queued, in_flight) != (0, 0):
                failed.append("admission_drains")
        return failed

    def sim_metrics(self, rnd: Round) -> Dict[str, float]:
        """Simulated outcomes of the round (identical for one seed)."""
        fg = self.foreground(rnd)
        lat = [o.latency for o in fg]
        n = len(lat)
        tail_q = 0.99 if n * 0.01 >= 10 else 0.95
        dated = [o for o in fg if o.deadline_met is not None]
        misses = sum(1 for o in dated if o.deadline_met is False)
        video = sum(o.result.video_seconds for o in fg)
        makespan = rnd.stats.makespan
        waited = [o.waited_seconds for o in fg]
        queued = [o.queued_seconds for o in fg]
        out = {
            "sim_mean_s": sum(lat) / n,
            "sim_p50_s": percentile(lat, 0.50),
            "sim_p95_s": percentile(lat, 0.95),
            "sim_p99_s": percentile(lat, 0.99),
            "sim_tail_s": percentile(lat, tail_q),
            "sim_tail_quantile": tail_q,
            "sim_samples": n,
            "sim_miss_rate": misses / len(dated) if dated else 0.0,
            "sim_video_x": video / makespan if makespan > 0 else 0.0,
            "sim_makespan_s": makespan,
            "sim.waited_mean_s": sum(waited) / n,
            "admission.queued_p99_s": percentile(queued, 0.99),
            "admission.peak_queued": (rnd.report.slo.peak_queued
                                      if rnd.report is not None else 0),
            "core.events": rnd.stats.events,
        }
        disks = [r for r in rnd.stats.capacities if r.startswith("disk")]
        out["sim.util.disk"] = sum(
            rnd.stats.utilization(r) or 0.0 for r in disks) / len(disks)
        for resource in ("decoder", "operators"):
            out[f"sim.util.{resource}"] = (
                rnd.stats.utilization(resource) or 0.0)
        availability = getattr(rnd.report, "availability", None)
        out.update({
            "sim_lost_keys": availability.lost_keys,
            "sim_rebuild_s": availability.rebuild_seconds or 0.0,
            "rebuild.replicas": availability.replicas_rebuilt,
        } if availability is not None else {
            "sim_lost_keys": 0, "sim_rebuild_s": 0.0, "rebuild.replicas": 0,
        })
        return out

    def properties(self, rnd: Round) -> Dict[str, object]:
        """Input properties an optimisation claim can cite."""
        fg = self.foreground(rnd)
        specs = {(o.session.plan.label, o.session.dataset, o.session.stream,
                  o.session.accuracy, o.session.t0, o.session.t1) for o in fg}
        return {
            "arrivals": len(fg),
            "distinct_specs": len(specs),
            "repeat_share": 1.0 - len(specs) / len(fg) if fg else 0.0,
            "background_jobs": len(rnd.outcomes) - len(fg),
            "core.kind": rnd.stats.core,
        }

    @staticmethod
    def digest(rnd: Round) -> str:
        """SHA-256 over every simulated outcome, in admission order."""
        h = hashlib.sha256()
        for o in rnd.outcomes:
            s = o.session
            h.update(repr((
                s.qid, s.klass, s.tenant, s.plan.label, s.dataset, s.stream,
                s.accuracy, s.t0, s.t1, s.arrival_at, s.finished_at,
                s.deadline,
            )).encode())
        availability = getattr(rnd.report, "availability", None)
        if availability is not None:
            h.update(repr((availability.lost_keys,
                           availability.replicas_rebuilt,
                           availability.rebuilt_bytes)).encode())
        return h.hexdigest()


class _Served(Workload):
    """Open-loop workloads: Poisson tenants through ``VStore.serve``.

    Every tenant draws the same mix under EDF admission (six queries in
    flight), deadline-ordered scheduling and a 5 s SLO.
    """

    TENANTS = 3
    ARRIVALS_PER_TENANT = 0
    HORIZON = 0.0

    def make_tenants(self, mix: Tuple[QueryMixEntry, ...]) -> None:
        per_tenant = self.scaled(self.ARRIVALS_PER_TENANT)
        self.tenants = [
            TenantSpec(
                name=f"tenant{i}",
                arrivals=ArrivalSpec(kind="trace", trace=_poisson_trace(
                    self.rng, per_tenant, self.HORIZON)),
                mix=mix,
                slo_seconds=SLO_SECONDS,
            )
            for i in range(self.TENANTS)
        ]

    @property
    def expected_arrivals(self) -> List[float]:
        return sorted(t for tenant in self.tenants
                      for t in tenant.arrivals.trace)

    def serve(self, rnd: Round, **kwargs) -> None:
        rnd.report = rnd.store.serve(
            self.tenants, horizon=self.HORIZON, seed=self.seed,
            admission=AdmissionConfig(max_in_flight=6, queue_policy="edf"),
            policy=DeadlinePolicy(), **_pools(), **kwargs,
        )
        rnd.outcomes = rnd.report.outcomes
        rnd.stats = rnd.report.stats


class ServeMix(_Served):
    name = "serve_mix"
    chosen_layers = ("plan",)
    DATASETS = ("jackson", "miami", "tucson")
    ARRIVALS_PER_TENANT = 400  # 2 arrivals/s per tenant over 200 s
    HORIZON = 200.0
    SEGMENTS = 64  # stored per dataset; queries read the first 16 s

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.make_tenants(tuple(
            QueryMixEntry(query=q, dataset=d, accuracy=a, t0=0.0, t1=16.0)
            for q in ("A", "B") for d in self.DATASETS for a in ACCURACIES
        ))

    def setup(self, workdir: str) -> Round:
        rnd = Round(store=self.new_store(workdir))
        self.ingest(rnd, [(d, self.scaled(self.SEGMENTS, 2), None)
                          for d in self.DATASETS])
        return rnd

    def phase(self, rnd: Round) -> None:
        self.serve(rnd)


class FleetReplay(Workload):
    name = "fleet_replay"
    chosen_layers = ("core.run",)
    STREAMS = 16
    CLIENTS = 16384
    SEGMENTS = 16  # stored per camera; each query reads the first 64 s
    SPAN = 64.0
    ACCURACY = 0.9

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.assignment = [
            f"cam{int(i):02d}" for i in
            self.rng.integers(0, self.STREAMS, self.scaled(self.CLIENTS))
        ]

    @property
    def expected_arrivals(self) -> List[float]:
        return [0.0] * len(self.assignment)

    def setup(self, workdir: str) -> Round:
        rnd = Round(store=self.new_store(workdir))
        streams = [f"cam{i:02d}" for i in range(self.STREAMS)]
        self.ingest(rnd, [("jackson", self.scaled(self.SEGMENTS, 8), s)
                          for s in streams])
        engine = rnd.store.engine("jackson")
        plans = {
            s: engine.plan(QUERY_A, self.ACCURACY, rnd.store.segments, 0.0,
                           self.SPAN, stream=s)
            for s in streams
        }
        rnd.specs = [
            {"query": QUERY_A, "dataset": "jackson",
             "accuracy": self.ACCURACY, "t0": 0.0, "t1": self.SPAN,
             "stream": s, "plan": plans[s]}
            for s in self.assignment
        ]
        return rnd

    def phase(self, rnd: Round) -> None:
        rnd.outcomes = rnd.store.execute_many(
            rnd.specs, policy=FIFOPolicy(), **_pools())
        rnd.stats = rnd.store.last_run.stats


class IngestFailover(_Served):
    name = "ingest_failover"
    chosen_layers = ("ingest", "failures.rebuild_jobs", "admit_job",
                     "core.run")
    SEGMENTS = 512  # per dataset, all six datasets
    ARRIVALS_PER_TENANT = 100
    HORIZON = 300.0
    CAMPAIGN = "fail@60:1,recover@250:1"
    FAILED_SHARDS = (1,)
    #: One HDD spindle per shard (the scale benchmarks' disk), so the
    #: rebuild runs through most of the degraded window and contends
    #: with foreground reads.
    READ_BW = 0.125 * GB
    WRITE_BW = 0.1 * GB

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.segments = self.scaled(self.SEGMENTS, 4)
        self.make_tenants(tuple(
            QueryMixEntry(query=q, dataset=d, accuracy=0.9,
                          t0=j * SEGMENT_SECONDS,
                          t1=(j + 1) * SEGMENT_SECONDS)
            for q in ("A", "B") for d in ALL_DATASETS
            for j in range(self.segments)
        ))

    def setup(self, workdir: str) -> Round:
        rnd = Round(store=self.new_store(workdir))
        for disk in rnd.store.disk_array.disks:
            disk.read_bandwidth = self.READ_BW
            disk.write_bandwidth = self.WRITE_BW
        return rnd

    def phase(self, rnd: Round) -> None:
        self.ingest(rnd, [(d, self.segments, None) for d in ALL_DATASETS])
        rnd.destroyed_replicas = sum(
            1 for shards in rnd.store.disk_array.replica_assignments().values()
            if any(s in shards for s in self.FAILED_SHARDS)
        )
        self.serve(rnd, failures=self.CAMPAIGN)

    def check(self, rnd: Round) -> List[str]:
        failed = super().check(rnd)
        availability = rnd.report.availability
        if availability.lost_keys != 0:
            failed.append("no_lost_keys")
        replicas = rnd.store.disk_array.replica_assignments().values()
        if (availability.replicas_rebuilt != rnd.destroyed_replicas
                or any(len(set(r)) != REPLICATION for r in replicas)):
            failed.append("every_replica_rebuilt")
        return failed


WORKLOADS = {w.name: w for w in (ServeMix, FleetReplay, IngestFailover)}


def chosen_share(workload: Workload, busy: Dict[str, float],
                 wall: float) -> float:
    """Share of a measured phase spent in the workload's chosen layers."""
    if wall <= 0:
        return 0.0
    return sum(busy.get(name, 0.0) for name in workload.chosen_layers) / wall
