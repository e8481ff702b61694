"""The executor's parity oracles: the reference loop and a forced heap core.

Production :meth:`ConcurrentExecutor.run
<repro.query.scheduler.ConcurrentExecutor.run>` picks its core from the
fleet: qualifying fleets take the vectorized fast path, the rest the
O(log n) event-heap core.  The tests hold both against two oracles that
run between the same prologue and epilogue (``ConcurrentExecutor._run``):

* ``"reference"`` — :func:`reference_loop`, the original O(n)-per-event
  rescan loop, kept verbatim.  The golden traces were produced by it;
* ``"heap"`` — the event-heap core even on fleets the fast path would
  take, so one fleet can be replayed through all three.

:func:`run` drives one admitted executor; :func:`use_core` switches every
executor run inside a ``with`` block, for facade calls such as
``VStore.serve`` that build their executor internally.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.errors import QueryError
from repro.query.eventloop import TimelineCursor
from repro.query.scheduler import (
    ConcurrentExecutor,
    QueryOutcome,
    QuerySession,
    _Running,
    _RunTask,
    _Waiting,
)

__all__ = ["CORES", "reference_loop", "run", "use_core"]


def reference_loop(self: ConcurrentExecutor,
                   chains: Dict[int, List[_RunTask]]) -> None:
    """The original O(n)-per-event rescan loop — the parity oracle.

    The golden traces were produced by this loop, and the Hypothesis
    property replays random fleets through both cores.  Do not
    optimize it: for closed-loop fleets (every arrival at or before
    the run start, no admission control) the flow below reduces
    exactly to the first concurrent executor — ``arrivals`` is empty,
    ``arrive`` is a plain ``submit_next``, and the completion loop is
    the original ``while running`` — which the golden traces still pin
    byte-for-byte.  Open-loop fleets interleave future arrivals with
    completions in simulated-time order, completions winning ties,
    mirroring the heap core's batching rule.
    """
    waiting: List[_Waiting] = []
    running: List[_Running] = []
    completed: set = set()  # uids of finished runtime tasks
    seq = 0

    def submit_next(session: QuerySession) -> None:
        nonlocal seq
        tasks = chains[session.qid]
        if session._cursor >= len(tasks):
            session.finished_at = self.clock.now
            return
        task = tasks[session._cursor]
        session._cursor += 1
        waiting.append(_Waiting(session, task, seq, self.clock.now))
        seq += 1

    def grant() -> None:
        nonlocal seq
        while True:
            fitting = [
                w for w in waiting
                if self._pools[w.task.resource].fits(w.task.units)
                and all(d in completed for d in w.task.deps)
            ]
            if not fitting:
                return
            w = min(
                fitting,
                # The class band mirrors the heap core's: a constant
                # prefix for all-foreground fleets, so pre-existing
                # schedules are unchanged.
                key=lambda w: (
                    w.session.klass,
                    self.policy.priority(w.session, w.task, w.seq),
                    w.seq,
                ),
            )
            waiting.remove(w)
            pool = self._pools[w.task.resource]
            pool.in_use += w.task.units
            now = self.clock.now
            w.session.waited_seconds += now - w.since
            running.append(
                _Running(w.session, w.task, now, now + w.task.duration, seq)
            )
            self._trace("start", w.session, w.task, now)
            seq += 1

    admission = self._admission
    start = self.clock.now
    arrivals = TimelineCursor(
        sorted((s for s in self._sessions if s.arrival_at > start),
               key=lambda s: (s.arrival_at, s.qid)),
        timestamp=lambda s: s.arrival_at,
    )

    def enter_all(entering: List[QuerySession]) -> None:
        work = list(entering)
        while work:
            s = work.pop(0)
            s.entered_at = self.clock.now
            s.queued_seconds = self.clock.now - s.arrival_at
            submit_next(s)
            if (s.finished_at is not None and admission is not None
                    and s.klass == 0):
                work.extend(admission.finish(s, self.clock.now))

    def arrive(s: QuerySession) -> None:
        if admission is None or s.klass != 0:
            enter_all([s])
        else:
            enter_all(admission.arrive(s, self.clock.now))

    for session in self._sessions:
        if session.arrival_at <= start:
            arrive(session)
    grant()

    failures = TimelineCursor(self._failure_events,
                              timestamp=lambda e: e.t)
    while running or len(arrivals) or len(failures):
        done = (min(running, key=lambda r: (r.end, r.seq))
                if running else None)
        next_arrival = arrivals.next_t()
        next_failure = failures.next_t()
        if done is not None and (
                done.end <= min(next_arrival, next_failure)):
            running.remove(done)
            completed.add(done.task.uid)
            self._complete(done)
            submit_next(done.session)
            if (done.session.finished_at is not None
                    and admission is not None
                    and done.session.klass == 0):
                enter_all(admission.finish(done.session, self.clock.now))
            grant()
        elif len(failures) and next_failure <= next_arrival:
            if next_failure > self.clock.now:
                self.clock.advance_to(next_failure, "idle")
            for event in failures.pop_batch():
                self._apply_failure_event(event)
        else:
            self.clock.advance_to(next_arrival, "idle")
            for session in arrivals.pop_batch():
                arrive(session)
            grant()

    if waiting:  # pragma: no cover - guarded by the acyclic dedup graph
        raise self._deadlock_error(waiting)
    if admission is not None and admission.queued:  # pragma: no cover
        raise QueryError(
            f"admission queue stuck with {admission.queued} session(s) "
            f"and nothing running"
        )


def _reference(self: ConcurrentExecutor, chains) -> None:
    self._core_used = "reference"
    reference_loop(self, chains)


#: The loops an oracle run can force, by the name ``ExecutorStats.core``
#: reports for them.
CORES = {"heap": ConcurrentExecutor._run_heap, "reference": _reference}


def run(executor: ConcurrentExecutor,
        core: Optional[str] = None) -> List[QueryOutcome]:
    """Run an admitted executor on ``core`` (``None``: production choice)."""
    if core is None:
        return executor.run()
    return executor._run(CORES[core])


@contextmanager
def use_core(core: str) -> Iterator[None]:
    """Run every executor inside the block on ``core``."""
    original = ConcurrentExecutor.run
    ConcurrentExecutor.run = lambda self: run(self, core)
    try:
        yield
    finally:
        ConcurrentExecutor.run = original
