"""Whole-trace replay and the synthetic traces it runs.

* :func:`~repro.engine.trace.run_trace` — replays a fixed access sequence
  through a hierarchy, on a specialised inner loop when every level is a
  plain write-back :class:`~repro.cache.cache.Cache`;
* :mod:`~repro.engine.workloads` — the Figure 6 channel loop and seeded
  random traces, for benchmarks and differential tests;
* :class:`~repro.engine.fast_set.FastSet` — the struct-of-arrays cache
  set (defined in :mod:`repro.cache.cache_set`).
"""

from repro.engine.fast_set import FastSet
from repro.engine.trace import TraceResult, event_stream, run_trace, run_trace_summary
from repro.engine.workloads import fig6_workload, random_workload

__all__ = [
    "FastSet",
    "TraceResult",
    "event_stream",
    "fig6_workload",
    "random_workload",
    "run_trace",
    "run_trace_summary",
]
