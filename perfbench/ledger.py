"""Per-layer ledger: nested spans with self time, plus counters.

The ledger is recorded from outside the program.  :func:`instrument`
wraps the public entry points of each ``repro`` layer (see
:data:`SPANS` and :data:`COUNTERS`) for the duration of a ``with``
block and restores every original on exit, so untraced passes run the
program exactly as shipped.

A span's *self time* is its duration minus the part of it covered by
child spans.  A call that re-enters the span already on top of the
stack (a subclass ``__init__`` calling ``super().__init__``, a scorer
calling another scorer) is folded into that span: it adds neither a call
nor a second copy of its time.  Each thread keeps its own stack and
table, so spans on the service's executor threads nest correctly; the
tables are merged when the ledger is read.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class LayerStat:
    """What one span or counter name accumulated."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0

    @property
    def self_s(self) -> float:
        return self.self_ns / 1e9

    @property
    def total_s(self) -> float:
        return self.total_ns / 1e9


class Ledger:
    """Thread-aware span recorder.  ``clock`` is injectable for tests."""

    def __init__(self, clock: Callable[[], int] = perf_counter_ns) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: List[Dict[str, List[int]]] = []
        self._stamps: Dict[str, Dict[str, int]] = {}

    def _state(self) -> Tuple[list, Dict[str, List[int]]]:
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack = []
            local.table = {}
            with self._lock:
                self._tables.append(local.table)
            return local.stack, local.table

    def enter(self, name: str) -> Optional[list]:
        """Open a span; returns its frame, or None when folded."""
        stack, _ = self._state()
        if stack and stack[-1][0] == name:
            return None
        frame = [name, self._clock(), 0]
        stack.append(frame)
        return frame

    def leave(self, frame: Optional[list]) -> None:
        """Close the span ``enter`` opened (no-op for a folded call)."""
        if frame is None:
            return
        end = self._clock()
        stack, table = self._state()
        stack.pop()
        name, start, child_ns = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        row = table.get(name)
        if row is None:
            row = table[name] = [0, 0, 0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - child_ns

    def count(self, name: str, amount: int = 1) -> None:
        """Bump a counter (a row with calls only, no time)."""
        _, table = self._state()
        row = table.get(name)
        if row is None:
            row = table[name] = [0, 0, 0]
        row[0] += amount

    def stamp(self, kind: str, key: str, when: Optional[int] = None) -> None:
        """Remember the first time ``key`` reached ``kind`` (in ns)."""
        when = self._clock() if when is None else when
        with self._lock:
            self._stamps.setdefault(kind, {}).setdefault(key, when)

    def now(self) -> int:
        return self._clock()

    def intervals_ns(self, start_kind: str, end_kind: str) -> List[int]:
        """``end - start`` for every key stamped with both kinds."""
        with self._lock:
            starts = dict(self._stamps.get(start_kind, {}))
            ends = dict(self._stamps.get(end_kind, {}))
        return [ends[key] - starts[key] for key in sorted(ends) if key in starts]

    def stats(self) -> Dict[str, LayerStat]:
        """Every row, merged across threads."""
        merged: Dict[str, LayerStat] = {}
        with self._lock:
            tables = [dict(table) for table in self._tables]
        for table in tables:
            for name, (calls, total, self_ns) in table.items():
                stat = merged.setdefault(name, LayerStat())
                stat.calls += calls
                stat.total_ns += total
                stat.self_ns += self_ns
        return merged


# ----------------------------------------------------------------------
# Instrumentation of the program's layers
# ----------------------------------------------------------------------

#: (span name, module, attribute path) for every wrapped entry point.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("cache.access", "repro.cache.hierarchy", "CacheHierarchy.access"),
    ("cache.access", "repro.coherence.hierarchy", "CoherentHierarchy.access"),
    ("cpu.smt", "repro.cpu.smt", "SMTCore.run"),
    ("channels.transmit", "repro.channels.wb.protocol", "transmit_symbol_schedule"),
    ("channels.decode", "repro.channels.threshold", "ThresholdDecoder.classify_many"),
    ("channels.decode", "repro.channels.threshold",
     "AdaptiveThresholdDecoder.classify_many"),
    ("scenario.compile", "repro.scenario.compile", "compile_scenario"),
    ("analysis.score", "repro.analysis.ber", "evaluate_transmission"),
    ("analysis.score", "repro.analysis.ber", "bit_error_rate"),
    ("analysis.score", "repro.analysis.edit_distance", "edit_distance"),
    ("analysis.score", "repro.analysis.edit_distance", "edit_distance_alignment"),
    ("telemetry.emit", "repro.telemetry.bus", "TelemetryBus.emit"),
    ("orchestration.observe", "repro.orchestration.aggregator", "FleetAggregator.observe"),
    ("service.compute", "repro.service.scheduler", "compute_group"),
    ("service.store.get", "repro.service.store", "ResultStore.get_bytes"),
    ("service.store.put", "repro.service.store", "ResultStore.put"),
)

#: (counter name, module, attribute path): counted, not timed.
COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("engine.sets_built", "repro.engine.fast_set", "FastSet.__init__"),
    ("engine.sets_built", "repro.cache.cache_set", "CacheSet.__init__"),
)

#: Every cache level is built by ``Cache.__init__`` or a subclass's own
#: ``__init__`` (the fast engine and the defended caches); all of them
#: are spans named ``cache.build``.
BUILD_SPAN = ("cache.build", "repro.cache.cache", "Cache")

#: Queue wait of a served job: from the call to ``JobScheduler.submit``
#: to the job's first ``running`` frame on the service stream.
SUBMIT_STAMP = ("submitted", "repro.service.scheduler", "JobScheduler.submit")
RUNNING_STAMP = ("running", "repro.service.stream", "ServiceStream.publish_job")

#: ``run_experiment`` gets a span named after the experiment it runs.
EXPERIMENT_SPAN = ("repro.experiments.registry", "run_experiment")


def experiment_span_name(experiment_id: str) -> str:
    return f"experiments.{experiment_id}"


def _wrap_span(ledger: Ledger, name: str, function: Callable) -> Callable:
    enter, leave = ledger.enter, ledger.leave

    @functools.wraps(function)
    def traced(*args, **kwargs):
        frame = enter(name)
        try:
            return function(*args, **kwargs)
        finally:
            leave(frame)

    return traced


def _wrap_counter(ledger: Ledger, name: str, function: Callable) -> Callable:
    count = ledger.count

    @functools.wraps(function)
    def counted(*args, **kwargs):
        count(name)
        return function(*args, **kwargs)

    return counted


def _wrap_experiment(ledger: Ledger, function: Callable) -> Callable:
    enter, leave = ledger.enter, ledger.leave

    @functools.wraps(function)
    def traced(experiment_id, *args, **kwargs):
        frame = enter(experiment_span_name(experiment_id))
        try:
            return function(experiment_id, *args, **kwargs)
        finally:
            leave(frame)

    return traced


def _wrap_submit(ledger: Ledger, kind: str, function: Callable) -> Callable:
    @functools.wraps(function)
    async def stamped(*args, **kwargs):
        submitted = ledger.now()
        job = await function(*args, **kwargs)
        ledger.stamp(kind, job.job_id, submitted)
        return job

    return stamped


def _wrap_publish(ledger: Ledger, kind: str, function: Callable) -> Callable:
    @functools.wraps(function)
    def stamped(self, job, *args, **kwargs):
        if job.state == kind:
            ledger.stamp(kind, job.job_id)
        return function(self, job, *args, **kwargs)

    return stamped


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []
        self._originals: Dict[int, Tuple[Callable, Callable]] = {}
        self.missing: List[str] = []

    def set(self, owner: object, attribute: str, value: object) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)
        # A module first imported while the wrappers were live bound a
        # wrapper by name; hand it the original back as well.
        for module in _repro_modules():
            namespace = module.__dict__
            for key, value in list(namespace.items()):
                pair = self._originals.get(id(value))
                if pair is not None and pair[0] is value:
                    namespace[key] = pair[1]
        self._originals.clear()

    def wrap(self, module_name: str, path: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap ``module.path`` (a function or ``Class.method``).

        A module-level function is also replaced wherever another
        ``repro`` module bound it by name (``from x import f``), so every
        caller reaches the wrapper.  A target that no longer exists is
        recorded in :attr:`missing` and skipped.
        """
        try:
            owner: object = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(f"{module_name}:{path}")
            return
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent, None)
        if owner is None or attribute not in getattr(owner, "__dict__", {}):
            self.missing.append(f"{module_name}:{path}")
            return
        original = owner.__dict__[attribute]
        wrapped = make(original)
        self.set(owner, attribute, wrapped)
        if parents:
            return
        self._originals[id(wrapped)] = (wrapped, original)
        for module in _repro_modules():
            if module is owner:
                continue
            for key, value in list(module.__dict__.items()):
                if value is original:
                    self.set(module, key, wrapped)


def _repro_modules() -> List[object]:
    return [
        module
        for name, module in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro."))
        and hasattr(module, "__dict__")
    ]


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _subclasses(sub) if c not in found)
    return found


@contextmanager
def instrument(ledger: Ledger) -> Iterator[Patches]:
    """Wrap every layer entry point for the ``with`` block."""
    patches = Patches()
    try:
        for name, module_name, path in SPANS:
            patches.wrap(
                module_name, path,
                functools.partial(_wrap_span, ledger, name),
            )
        for name, module_name, path in COUNTERS:
            patches.wrap(
                module_name, path,
                functools.partial(_wrap_counter, ledger, name),
            )
        span_name, module_name, class_name = BUILD_SPAN
        try:
            base = getattr(importlib.import_module(module_name), class_name)
        except (ImportError, AttributeError):
            patches.missing.append(f"{module_name}:{class_name}")
            base = None
        for cls in _subclasses(base) if base is not None else ():
            if "__init__" in cls.__dict__:
                patches.wrap(
                    cls.__module__, f"{cls.__qualname__}.__init__",
                    functools.partial(_wrap_span, ledger, span_name),
                )
        kind, module_name, path = SUBMIT_STAMP
        patches.wrap(
            module_name, path, functools.partial(_wrap_submit, ledger, kind)
        )
        kind, module_name, path = RUNNING_STAMP
        patches.wrap(
            module_name, path, functools.partial(_wrap_publish, ledger, kind)
        )
        module_name, path = EXPERIMENT_SPAN
        patches.wrap(
            module_name, path, functools.partial(_wrap_experiment, ledger)
        )
        yield patches
    finally:
        patches.restore()
