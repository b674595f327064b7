"""Structured cache events carried by the telemetry bus.

One :class:`CacheEvent` is emitted per observable hierarchy action —
demand hit/miss at each level walked, eviction, write-back, flush — with
the level, set index, issuing owner, dirty state and a logical timestamp
(the demand-access ordinal drawn from :meth:`TelemetryBus.tick
<repro.telemetry.bus.TelemetryBus.tick>`).

Events are plain :class:`typing.NamedTuple` values so that two cores
emitting "the same" stream compare equal element-wise — the parity suite
in ``tests/test_engine_parity.py`` relies on tuple equality.

This module is a leaf: it must not import anything from
:mod:`repro.cache` (the hierarchy imports the telemetry session, so an
import back into the cache package would cycle).  The aggregate-owner
sentinel is therefore re-declared here; a unit test asserts it matches
:data:`repro.cache.stats.ALL_OWNERS`.
"""

from __future__ import annotations

import enum
from typing import Dict, NamedTuple, Optional

#: Owner key used for aggregate (all-threads) views.  Mirrors
#: :data:`repro.cache.stats.ALL_OWNERS` without importing it.
AGGREGATE_OWNER: int = -1


class EventKind(enum.IntEnum):
    """What happened.  Integer-valued so events stay cheap tuples."""

    #: Demand access served at ``level`` (``dirty`` = line was dirty).
    HIT = 0
    #: Demand access missed at ``level`` (the walk continues deeper).
    MISS = 1
    #: A *clean* victim was evicted by a fill at ``level``.
    EVICT = 2
    #: A *dirty* victim left ``level`` and was written back deeper.
    WRITEBACK = 3
    #: ``clflush`` invalidated a resident copy at ``level``.
    FLUSH = 4
    #: An injected fault (``repro.faults``): not a cache action, but a
    #: disturbance of the machine around the caches.  ``address`` carries
    #: the fault class (see :mod:`repro.faults.injector`), ``owner`` the
    #: disturbed thread, ``time`` the nominal protocol-timeline position.
    FAULT = 5


class CacheEvent(NamedTuple):
    """One observable cache action.

    Attributes
    ----------
    time:
        Logical timestamp: ordinal of the demand access (or flush) that
        caused this event.  All events of one access share a timestamp.
    kind:
        An :class:`EventKind` value.
    level:
        Cache level, 1-based (1 = L1D).
    set_index:
        Set the event happened in, under the *incoming* address's
        mapping (victims share the set with the line displacing them).
    owner:
        Hardware thread the event is attributed to.  For evictions and
        write-backs this is the *victim line's* owner, matching how
        :class:`~repro.cache.stats.CacheStats` attributes write-backs;
        ``None`` marks hierarchy-internal traffic.
    address:
        Line address the event concerns (victim address for
        EVICT/WRITEBACK).
    write:
        Whether the triggering demand access was a store.
    dirty:
        Dirty state observable at the event: the resident line's dirty
        bit for HIT/FLUSH, the victim's for EVICT/WRITEBACK, ``False``
        for MISS.
    """

    time: int
    kind: int
    level: int
    set_index: int
    owner: Optional[int]
    address: int
    write: bool
    dirty: bool

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly view (kind rendered by name)."""
        return {
            "time": self.time,
            "kind": EventKind(self.kind).name.lower(),
            "level": self.level,
            "set": self.set_index,
            "owner": self.owner,
            "address": self.address,
            "write": self.write,
            "dirty": self.dirty,
        }
