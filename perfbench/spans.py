"""Host-side spans around the public entry points of each layer.

The tracer wraps functions and methods of the installed ``repro``
package from outside: it replaces the attribute on its class or module
with a wrapper that records a ``perf_counter`` span, and puts the
original back on :meth:`Tracer.uninstall`.  Nothing under ``src/`` is
modified, and the benchmark installs the wrappers only for its traced
rounds, so untraced rounds run the unwrapped code.

Each span records its name, start, end, parent span and request id.
The request id is the arrival index of the query being admitted (the
``admit`` span sets it for everything nested inside); work that belongs
to no arrival (ingest, rebuild jobs, the event core) carries ``-1``.
Spans are kept in memory; :meth:`Tracer.aggregate` folds them into
per-layer busy time, self time (busy minus the time covered by child
spans) and call counts, and :meth:`Tracer.dump` writes them out as JSON
lines at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name, item counter).  The attribute is
#: patched where callers look it up: ``derive_configuration`` is bound
#: into ``repro.core.store`` at import, the other module-level functions
#: are imported inside the functions that call them, so patching their
#: home module is enough.  The item counter, when set, turns a call's
#: return value into a count of work items (segments ingested).
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.core.store", "derive_configuration", "config", None),
    ("repro.ingest.pipeline", "IngestionPipeline.ingest_segments",
     "ingest", len),
    ("repro.video.content", "ContentModel.clip", "content.clip", None),
    ("repro.query.engine", "QueryEngine.plan", "plan", None),
    ("repro.retrieval.reader", "SegmentReader.assess_many",
     "retrieval.assess", None),
    ("repro.storage.segment_store", "SegmentStore.meta", "store.meta", None),
    ("repro.storage.segment_store", "SegmentStore.put", "store.put", None),
    ("repro.storage.segment_store", "SegmentStore.commit_replica",
     "store.commit_replica", None),
    ("repro.storage.kvstore", "KVStore.get", "kv.get", None),
    ("repro.storage.kvstore", "KVStore.put", "kv.put", None),
    ("repro.storage.failures", "apply_event", "failures.apply", None),
    ("repro.storage.failures", "rebuild_jobs", "failures.rebuild_jobs",
     None),
    ("repro.query.workload", "build_workload", "workload.build", None),
    ("repro.query.scheduler", "ConcurrentExecutor.admit", "admit", None),
    ("repro.query.scheduler", "ConcurrentExecutor.admit_job", "admit_job",
     None),
    ("repro.query.scheduler", "ConcurrentExecutor.run", "core.run", None),
    ("repro.analysis.slo", "slo_report", "report.slo", None),
    ("repro.analysis.availability", "availability_report",
     "report.availability", None),
)

#: Every span name :data:`TARGETS` can produce.
SPAN_NAMES: Tuple[str, ...] = tuple(t[2] for t in TARGETS)


class LayerTotals:
    """Per-layer busy/self seconds, calls and item counts of some spans."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = dict.fromkeys(SPAN_NAMES, 0.0)
        self.self_s: Dict[str, float] = dict.fromkeys(SPAN_NAMES, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(SPAN_NAMES, 0)
        self.items: Dict[str, int] = dict.fromkeys(SPAN_NAMES, 0)
        #: Calls of ``child`` made (transitively) inside a ``parent`` span,
        #: keyed ``(parent, child)``.
        self.nested_calls: Dict[Tuple[str, str], int] = {}
        #: Seconds covered by spans with no traced parent.
        self.top_level_s = 0.0


class Tracer:
    """Installs span wrappers and keeps the recorded spans in memory."""

    def __init__(self) -> None:
        self.enabled = False
        #: (name, start, end, parent index, request id, items)
        self.spans: List[Tuple[str, float, float, int, int, int]] = []
        self._stack: List[int] = []
        self._request = -1
        self._admits = 0
        self._patched: List[Tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module_name, path, name, counter in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, counter))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, original, name: str, counter: Optional[Callable]):
        tracer = self
        spans = self.spans
        stack = self._stack
        is_admit = name == "admit"

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            if is_admit:
                tracer._request = tracer._admits
                tracer._admits += 1
            request = tracer._request
            spans.append((name, 0.0, 0.0, parent, request, 0))
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if is_admit:
                    tracer._request = -1
                items = 0 if counter is None or result is None \
                    else counter(result)
                spans[index] = (name, start, end, parent, request, items)

        return functools.wraps(original)(traced)

    # -- recording ------------------------------------------------------------

    def start(self) -> int:
        """Enable recording; returns the span index this section starts at.

        Request ids restart at 0 for each section, so they equal the
        arrival index of the section's serve or fleet run.
        """
        self._admits = 0
        self._request = -1
        self.enabled = True
        return len(self.spans)

    def stop(self) -> None:
        self.enabled = False

    def aggregate(self, first: int = 0, last: Optional[int] = None
                  ) -> LayerTotals:
        """Fold spans ``[first, last)`` into per-layer totals."""
        spans = self.spans[first:last]
        totals = LayerTotals()
        child_s = [0.0] * len(spans)
        for i in range(len(spans) - 1, -1, -1):
            name, start, end, parent, _, items = spans[i]
            duration = end - start
            totals.calls[name] += 1
            totals.items[name] += items
            totals.self_s[name] += duration - child_s[i]
            local_parent = parent - first
            if local_parent >= 0:
                child_s[local_parent] += duration
            else:
                totals.top_level_s += duration
            # Busy time counts a layer once even if it re-enters itself.
            ancestor, nested_same = local_parent, False
            seen = set()
            while ancestor >= 0:
                aname = spans[ancestor][0]
                if aname == name:
                    nested_same = True
                if aname not in seen:
                    seen.add(aname)
                    key = (aname, name)
                    totals.nested_calls[key] = (
                        totals.nested_calls.get(key, 0) + 1
                    )
                ancestor = spans[ancestor][3] - first
            if not nested_same:
                totals.busy[name] += duration
        return totals

    def drop(self, first: int) -> None:
        """Forget spans from index ``first`` on (keeps memory bounded)."""
        del self.spans[first:]

    def dump(self, path: str, first: int = 0, last: Optional[int] = None,
             label: str = "") -> None:
        """Write spans ``[first, last)`` as JSON lines, times relative."""
        spans = self.spans[first:last]
        origin = spans[0][1] if spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, start, end, parent, request, items) in \
                    enumerate(spans):
                out.write(json.dumps({
                    "id": i,
                    "name": name,
                    "start_s": start - origin,
                    "end_s": end - origin,
                    "parent": parent - first if parent >= first else -1,
                    "request": request,
                    "items": items,
                    "section": label,
                }) + "\n")
