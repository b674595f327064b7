"""Per-layer metrics from the traced passes' ledgers.

Every metric is reported on every workload; a layer a workload does not
reach reads 0.  Each value is the median over the run's traced passes,
which all replay the same inputs.  ``WORKLOADS.md`` maps each metric to
the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from ledger import LayerStat, experiment_span_name
from workloads import DIRECT_WORKLOADS, SERVICE_EXPERIMENTS

#: Every experiment some workload runs, for ``experiments.<id>.wall_s``.
ALL_EXPERIMENTS: Tuple[str, ...] = tuple(
    experiment_id
    for experiments in DIRECT_WORKLOADS.values()
    for experiment_id in experiments
) + SERVICE_EXPERIMENTS

#: Spans reported as ``<name>.calls`` and ``<name>.self_s``.
TIMED_LAYERS = (
    "cache.build",
    "cache.access",
    "channels.transmit",
    "channels.decode",
    "scenario.compile",
    "analysis.score",
    "orchestration.observe",
    "service.compute",
    "service.store.get",
    "service.store.put",
)

#: name -> unit, in report order.
METRICS: Dict[str, str] = {}
for _layer in TIMED_LAYERS:
    METRICS[f"{_layer}.calls"] = "count"
    METRICS[f"{_layer}.self_s"] = "s"
METRICS.update({
    "engine.sets_built": "count",
    "cache.access.ns_per_call": "ns",
    "cpu.smt.runs": "count",
    "cpu.smt.self_s": "s",
    "telemetry.events": "count",
    "telemetry.emit.self_s": "s",
    "service.queue_wait_ms.p50": "ms",
    "service.queue_wait_ms.p90": "ms",
    "service.queue_wait.samples": "count",
    "service.jobs": "count",
    "service.store_hit_ratio": "ratio",
    "service.coalesced_ratio": "ratio",
    "experiments.self_s": "s",
})
for _experiment in ALL_EXPERIMENTS:
    METRICS[f"experiments.{_experiment}.wall_s"] = "s"
METRICS.update({
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
})


def percentile(values: List[float], share: float) -> float:
    """Linear-interpolated percentile within the observed range (0 if none)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def pass_metrics(stats: Dict[str, LayerStat], queue_waits_ns: List[int],
                 outcome) -> Dict[str, float]:
    """The per-layer values of one traced pass."""
    empty = LayerStat()
    values: Dict[str, float] = {}
    for layer in TIMED_LAYERS:
        stat = stats.get(layer, empty)
        values[f"{layer}.calls"] = stat.calls
        values[f"{layer}.self_s"] = stat.self_s
    access = stats.get("cache.access", empty)
    smt = stats.get("cpu.smt", empty)
    emit = stats.get("telemetry.emit", empty)
    values["engine.sets_built"] = stats.get("engine.sets_built", empty).calls
    values["cache.access.ns_per_call"] = (
        access.self_ns / access.calls if access.calls else 0.0
    )
    values["cpu.smt.runs"] = smt.calls
    values["cpu.smt.self_s"] = smt.self_s
    values["telemetry.events"] = emit.calls
    values["telemetry.emit.self_s"] = emit.self_s
    waits_ms = [wait / 1e6 for wait in queue_waits_ns]
    values["service.queue_wait_ms.p50"] = percentile(waits_ms, 0.5)
    values["service.queue_wait_ms.p90"] = percentile(waits_ms, 0.9)
    values["service.queue_wait.samples"] = len(waits_ms)
    served = [job for job in outcome.jobs if job.source != "direct"]
    values["service.jobs"] = len(served)
    for name, source in (("store_hit", "store"), ("coalesced", "coalesced")):
        hits = sum(job.source == source for job in served)
        values[f"service.{name}_ratio"] = hits / len(served) if served else 0.0
    values["experiments.self_s"] = 0.0
    for experiment_id in ALL_EXPERIMENTS:
        stat = stats.get(experiment_span_name(experiment_id), empty)
        values[f"experiments.{experiment_id}.wall_s"] = stat.total_s
        values["experiments.self_s"] += stat.self_s
    return values


def layer_metrics(ledgers, traced, untraced) -> Dict[str, dict]:
    """Median per-layer values over the traced passes, with units."""
    per_pass = [
        pass_metrics(
            ledger.stats(), ledger.intervals_ns("submitted", "running"), outcome
        )
        for ledger, outcome in zip(ledgers, traced)
    ]
    untraced_wall = statistics.median(o.wall_s for o in untraced)
    traced_wall = statistics.median(o.wall_s for o in traced)
    metrics: Dict[str, dict] = {}
    for name, unit in METRICS.items():
        if name == "trace.untraced_wall_s":
            value = untraced_wall
        elif name == "trace.traced_wall_s":
            value = traced_wall
        elif name == "trace.overhead_s":
            value = traced_wall - untraced_wall
        else:
            value = statistics.median(values[name] for values in per_pass)
        metrics[name] = {"value": value, "unit": unit}
    return metrics
