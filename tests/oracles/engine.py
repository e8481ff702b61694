"""The sequential engine oracle: the original single-query data path.

``QueryEngine.execute`` is the N=1, uncontended case of the concurrent
executor.  :func:`execute_sequential` is the loop it replaced, kept
verbatim: it streams each segment through the reader and the operators,
charging one clock in order, and tests require ``execute`` to reproduce
it bit-identically.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.clock import SimClock
from repro.errors import QueryError
from repro.operators.library import Consumer
from repro.query.alternatives import AlternativeScheme, vstore_scheme
from repro.query.cascade import QueryCascade
from repro.query.engine import ExecutionResult, QueryEngine
from repro.retrieval.reader import SegmentReader
from repro.rng import rng_for
from repro.storage.segment_store import SegmentStore
from repro.video.segment import segments_for_range

__all__ = ["execute_sequential"]


def execute_sequential(
    self: QueryEngine,
    query: QueryCascade,
    accuracy: float,
    store: SegmentStore,
    t0: float,
    t1: float,
    scheme: Optional[AlternativeScheme] = None,
    clock: Optional[SimClock] = None,
    contexts: int = 1,
) -> ExecutionResult:
    """Reference implementation: the original single-query loop.

    Kept verbatim so tests can assert that :meth:`execute` — now the
    N=1 case of the concurrent executor — reproduces it bit-identically.
    """
    from repro.query.scheduler import dispatch

    if t1 <= t0:
        raise QueryError(f"empty query range [{t0}, {t1})")
    scheme = scheme or vstore_scheme(self.config)
    clock = clock or SimClock()
    segments = segments_for_range(self.dataset, t0, t1)
    active = list(segments)
    positives: Dict[str, int] = {}
    touched: Dict[str, int] = {}

    for name in query:
        op = self.library.get(name)
        consumer = Consumer(name, accuracy)
        fidelity = scheme.consumption_fidelity(consumer)
        fmt = scheme.storage_format(consumer)
        reader = SegmentReader(store, fmt, fidelity, self.codec, clock)
        survivors = []
        n_pos = 0
        consume_costs = []
        for segment in active:
            retrieved = reader.read(self.dataset, segment.index)
            clip = self._content.clip(segment.t0, segment.seconds)
            consume_costs.append(
                op.cost_per_frame(fidelity) * retrieved.n_frames
            )
            rng = rng_for("query", name, self.dataset, segment.index,
                          fidelity.label)
            output = op.run(clip, fidelity, rng)
            hits = int(np.asarray(output).sum())
            if hits > 0:
                survivors.append(segment)
                n_pos += hits
        clock.charge(dispatch(consume_costs, contexts).makespan,
                     "consume")
        positives[name] = n_pos
        touched[name] = len(active)
        active = survivors

    video_seconds = t1 - t0
    compute = clock.now
    return ExecutionResult(
        query=query.label,
        dataset=self.dataset,
        video_seconds=video_seconds,
        compute_seconds=compute,
        speed=float("inf") if compute <= 0 else video_seconds / compute,
        positives_per_stage=positives,
        segments_per_stage=touched,
    )
