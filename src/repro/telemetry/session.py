"""Process-global telemetry session.

The cache hierarchy cannot be handed a bus explicitly everywhere it is
constructed (testbenches, experiment factories, worker processes build
hierarchies deep inside library code), so the active telemetry session
is process-global state consulted by
:class:`~repro.cache.hierarchy.CacheHierarchy` at construction time.

Experiments opt in through :class:`~repro.experiments.profiles.RunProfile
.telemetry` (CLI: ``--telemetry`` / ``--trace-out``); the experiment
registry opens a session around each run, attaches the standard
subscribers (windowed counters, trace recorder, profiler), and folds the
session summary into the experiment result's params — which the run
manifests persist.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Dict, Iterator, Optional

from repro.telemetry.bus import TelemetryBus
from repro.telemetry.subscribers import (
    BusProfiler,
    TraceRecorder,
    WindowedCounters,
)


@dataclasses.dataclass(frozen=True)
class TelemetryConfig:
    """Knobs for the standard session subscribers."""

    #: Logical accesses per counter window.
    window: int = 256
    #: Ring-buffer size of the trace recorder (None = unbounded).
    trace_capacity: Optional[int] = 65536
    #: Directory for JSONL trace export (None = no export).
    trace_out: Optional[str] = None


class TelemetrySession:
    """One bus plus the standard subscriber set, with a summary."""

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config or TelemetryConfig()
        self.bus = TelemetryBus()
        self.counters = WindowedCounters(window=self.config.window)
        self.recorder = TraceRecorder(capacity=self.config.trace_capacity)
        self.profiler = BusProfiler()
        for subscriber in (self.counters, self.recorder, self.profiler):
            self.bus.subscribe(subscriber)

    def finish(self) -> None:
        """Flush subscribers (idempotent for the standard set)."""
        self.bus.close()

    def export_trace(self, path: str) -> int:
        """Write the retained event ring to ``path`` (JSONL); returns count."""
        return self.recorder.to_jsonl(path)

    def summary(self) -> Dict[str, object]:
        """Manifest-ready digest of what the session observed."""
        return {
            "events": self.recorder.total_events,
            "dropped_trace_events": self.recorder.dropped,
            "counters": self.counters.summary(),
            "profile": self.profiler.summary(),
        }


_active: Optional[TelemetrySession] = None

_default_config = TelemetryConfig()


def configure(config: TelemetryConfig) -> TelemetryConfig:
    """Set the process-default session config; returns the previous one.

    The CLI uses this to carry ``--trace-out`` to the session the
    registry opens around each experiment run.
    """
    global _default_config
    previous = _default_config
    _default_config = config
    return previous


def default_config() -> TelemetryConfig:
    """The config sessions use when none is passed explicitly."""
    return _default_config


def active_session() -> Optional[TelemetrySession]:
    """The session currently in effect, if any."""
    return _active


def session_bus() -> Optional[TelemetryBus]:
    """Bus newly constructed hierarchies should attach to (or ``None``).

    This is the hook :class:`~repro.cache.hierarchy.CacheHierarchy`
    consults; with no active session it returns ``None`` and the
    hierarchy carries no bus at all — the zero-cost default.
    """
    if _active is None:
        return None
    return _active.bus


@contextlib.contextmanager
def telemetry_session(
    enabled: bool = True, config: Optional[TelemetryConfig] = None
) -> Iterator[Optional[TelemetrySession]]:
    """Activate a telemetry session for the dynamic extent of the block.

    ``enabled=False`` yields ``None`` and changes nothing, so callers
    can wrap unconditionally::

        with telemetry_session(enabled=profile.telemetry) as session:
            result = runner(profile, seed)
        if session is not None:
            result.params["telemetry"] = session.summary()

    Sessions do not nest: the inner ``with`` keeps the outer session
    active (hierarchies keep attaching to the outer bus) so a library
    call cannot silently steal an experiment's observability.
    """
    global _active
    if not enabled or _active is not None:
        yield None
        return
    session = TelemetrySession(config=config or _default_config)
    _active = session
    try:
        yield session
    finally:
        _active = None
        session.finish()
