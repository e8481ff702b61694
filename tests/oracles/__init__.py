"""Parity oracles: reference implementations the shipped code must match.

Each module keeps an implementation the production package replaced,
so tests can hold the replacement to bit-identical results:

* :mod:`oracles.executor` — the verbatim rescan event loop, and a way to
  force the event-heap core on fleets the fast path would take;
* :mod:`oracles.engine` — the original sequential single-query loop;
* :mod:`oracles.profiler` — the per-call scalar codec surfaces behind a
  drop-in coding profiler;
* :mod:`oracles.operators` — per-call operator scoring that rebuilds
  every array a probe needs instead of reading the clip's knob views.

The shipped package never imports from here.  ``tests/`` is on
``sys.path`` for test modules (and ``benchmarks/conftest.py`` adds it
for the benchmarks), so import them as ``oracles.<module>``.
"""
