"""One set of a set-associative cache, in struct-of-arrays layout.

A :class:`FastSet` keeps parallel arrays instead of per-way line
objects: a tag list, an owner list, and three bitmasks (valid/dirty/
locked) packed into plain ints, plus a ``tag -> way`` dict index and
incremental valid/dirty counters, so lookup and the per-period dirty
polls are O(1).  Replacement metadata is the set's live
:mod:`repro.replacement` policy.

Victim selection order (mirrors real write-allocate caches and supports
the defense models):

1. any invalid way;
2. otherwise the replacement policy's choice, skipping locked ways
   (PLcache) and ways outside the caller's allowed-way mask (partitioned
   caches) by re-querying the policy after a forced touch of the
   forbidden way — bounded, and falling back to the lowest evictable way
   if the policy keeps pointing at forbidden ways.

All line-state changes go through this class; mutating the arrays
directly would desynchronise the index and the counters (``scan_counts``
exists so tests can verify they never drift).  The object-per-line
oracle under ``tests/oracle`` must agree with every public method —
same return values, same exceptions, same policy calls in the same
order — which ``tests/test_engine_parity.py`` checks access for access.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, SimulationError
from repro.cache.line import EvictedLine
from repro.replacement.base import ReplacementPolicy

#: Converts (tag, set_index) back into a line-aligned address so the
#: hierarchy can route write-backs of evicted victims.
AddressReconstructor = Callable[[int, int], int]

#: Normalised per-way state used for cross-core comparisons:
#: (valid, tag, dirty, locked, owner), with tag/owner None when invalid.
WayState = Tuple[bool, Optional[int], bool, bool, Optional[int]]


class FastSet:
    """One set of a set-associative cache, struct-of-arrays layout."""

    __slots__ = (
        "ways",
        "policy",
        "tags",
        "owners",
        "valid_mask",
        "dirty_mask",
        "locked_mask",
        "_full",
        "_index",
        "_valid_count",
        "_dirty_count",
    )

    def __init__(self, ways: int, policy: ReplacementPolicy) -> None:
        if ways <= 0:
            raise ConfigurationError(f"ways must be positive, got {ways}")
        if policy.ways != ways:
            raise ConfigurationError(
                f"policy manages {policy.ways} ways but the set has {ways}"
            )
        self.ways = ways
        self.policy = policy
        self.tags: List[int] = [0] * ways
        self.owners: List[Optional[int]] = [None] * ways
        self.valid_mask = 0
        self.dirty_mask = 0
        self.locked_mask = 0
        self._full = (1 << ways) - 1
        self._index: Dict[int, int] = {}
        self._valid_count = 0
        self._dirty_count = 0

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def find(self, tag: int) -> Optional[int]:
        """Way index holding ``tag``, or None."""
        return self._index.get(tag)

    def touch(self, way: int) -> None:
        """Record a hit on ``way`` with the replacement policy."""
        self.policy.on_hit(way)

    # ------------------------------------------------------------------
    # Fill / eviction
    # ------------------------------------------------------------------
    def _dirty_hint(self) -> Tuple[bool, ...]:
        # Dirty implies valid (eviction/invalidation clears the bit).
        dirty = self.dirty_mask
        return tuple(bool((dirty >> way) & 1) for way in range(self.ways))

    def choose_victim(self, allowed_ways: Optional[Sequence[int]] = None) -> int:
        """Pick the way a fill will (re)use, preferring invalid ways.

        ``allowed_ways`` restricts the choice (way-partitioning defenses).
        Locked lines are never chosen.  Raises :class:`SimulationError`
        when every permitted way is locked — the PLcache "excessive
        locking" failure mode, surfaced loudly instead of silently
        mis-evicting.
        """
        valid = self.valid_mask
        full = self._full
        if allowed_ways is None:
            if valid != full:
                invalid = ~valid & full
                return (invalid & -invalid).bit_length() - 1
            evictable_mask = full & ~self.locked_mask
            if not evictable_mask:
                raise SimulationError(
                    "no evictable way: all permitted ways are locked"
                )
            pol = self.policy
            if pol.wants_dirty_hint:
                pol.notify_dirty_ways(self._dirty_hint())
            if evictable_mask == full:
                # Hot path: nothing locked, first policy choice stands.
                return pol.victim()
            for _ in range(4 * self.ways):
                way = pol.victim()
                if (evictable_mask >> way) & 1:
                    return way
                pol.on_hit(way)
            return (evictable_mask & -evictable_mask).bit_length() - 1

        # Restricted-way path (way-partitioning defenses); cold, so it
        # keeps the plain set-based shape.
        if valid != full:
            for way in allowed_ways:
                if not (valid >> way) & 1:
                    return way
        allowed = set(allowed_ways)
        if not allowed:
            raise ConfigurationError("allowed_ways must not be empty")
        locked = self.locked_mask
        evictable = {way for way in allowed if not (locked >> way) & 1}
        if not evictable:
            raise SimulationError(
                "no evictable way: all permitted ways are locked"
            )
        pol = self.policy
        if pol.wants_dirty_hint:
            pol.notify_dirty_ways(self._dirty_hint())
        for _ in range(4 * self.ways):
            way = pol.victim()
            if way in evictable:
                return way
            pol.on_hit(way)
        return min(evictable)

    def fill(
        self,
        tag: int,
        dirty: bool,
        owner: Optional[int],
        set_index: int,
        address_of: AddressReconstructor,
        allowed_ways: Optional[Sequence[int]] = None,
    ) -> Optional[EvictedLine]:
        """Install ``tag`` into the set, returning the evicted line if any."""
        if tag in self._index:
            raise SimulationError(
                f"fill of tag {tag:#x} that is already present in the set"
            )
        way = self.choose_victim(allowed_ways)
        bit = 1 << way
        evicted: Optional[EvictedLine] = None
        if self.valid_mask & bit:
            victim_dirty = bool(self.dirty_mask & bit)
            evicted = EvictedLine(
                address=address_of(self.tags[way], set_index),
                dirty=victim_dirty,
                owner=self.owners[way],
            )
            del self._index[self.tags[way]]
            self._valid_count -= 1
            if victim_dirty:
                self.dirty_mask &= ~bit
                self._dirty_count -= 1
            self.policy.on_invalidate(way)
        self.tags[way] = tag
        self.owners[way] = owner
        self.valid_mask |= bit
        self.locked_mask &= ~bit
        if dirty:
            self.dirty_mask |= bit
            self._dirty_count += 1
        self._index[tag] = way
        self._valid_count += 1
        self.policy.on_fill(way)
        return evicted

    def invalidate(self, tag: int) -> Optional[EvictedLine]:
        """Drop ``tag`` from the set (clflush), reporting its final state."""
        way = self._index.get(tag)
        if way is None:
            return None
        bit = 1 << way
        was_dirty = bool(self.dirty_mask & bit)
        snapshot = EvictedLine(address=-1, dirty=was_dirty, owner=self.owners[way])
        del self._index[tag]
        self._valid_count -= 1
        if was_dirty:
            self.dirty_mask &= ~bit
            self._dirty_count -= 1
        self.valid_mask &= ~bit
        self.locked_mask &= ~bit
        self.owners[way] = None
        self.policy.on_invalidate(way)
        return snapshot

    def invalidate_all(self) -> None:
        """Drop every line (cache-wide flush, e.g. a defense rekey)."""
        valid = self.valid_mask
        way = 0
        while valid:
            if valid & 1:
                self.owners[way] = None
                self.policy.on_invalidate(way)
            valid >>= 1
            way += 1
        self.valid_mask = 0
        self.dirty_mask = 0
        self.locked_mask = 0
        self._index.clear()
        self._valid_count = 0
        self._dirty_count = 0

    def way_dirty(self, way: int) -> bool:
        """Whether the line in ``way`` is valid and dirty."""
        return bool((self.dirty_mask >> way) & 1)

    def mark_dirty(self, way: int) -> None:
        """Set the dirty bit of the (valid) line in ``way``."""
        bit = 1 << way
        if not self.valid_mask & bit:
            raise SimulationError(f"mark_dirty on invalid way {way}")
        if not self.dirty_mask & bit:
            self.dirty_mask |= bit
            self._dirty_count += 1

    def set_owner(self, way: int, owner: Optional[int]) -> None:
        """Record the hardware thread that last touched ``way``."""
        self.owners[way] = owner

    # ------------------------------------------------------------------
    # Introspection used by experiments, defenses and tests
    # ------------------------------------------------------------------
    def dirty_count(self) -> int:
        """Number of valid dirty lines currently in the set (O(1))."""
        return self._dirty_count

    def valid_count(self) -> int:
        """Number of valid lines currently in the set (O(1))."""
        return self._valid_count

    def scan_counts(self) -> Tuple[int, int]:
        """(valid, dirty) recomputed from the bitmasks (invariant tests)."""
        valid = bin(self.valid_mask).count("1")
        dirty = bin(self.dirty_mask & self.valid_mask).count("1")
        return valid, dirty

    def index_snapshot(self) -> Dict[int, int]:
        """Copy of the tag -> way index (exposed for the staleness tests)."""
        return dict(self._index)

    def resident_tags(self) -> List[int]:
        """Tags of all valid lines (unordered semantics, way order)."""
        valid = self.valid_mask
        return [self.tags[way] for way in range(self.ways) if (valid >> way) & 1]

    def way_states(self) -> Tuple[WayState, ...]:
        """Normalised per-way snapshot for cross-core comparisons.

        Invalid ways report ``(False, None, False, False, None)`` so stale
        tag values cannot create spurious differences.
        """
        states: List[WayState] = []
        for way in range(self.ways):
            bit = 1 << way
            if self.valid_mask & bit:
                states.append(
                    (
                        True,
                        self.tags[way],
                        bool(self.dirty_mask & bit),
                        bool(self.locked_mask & bit),
                        self.owners[way],
                    )
                )
            else:
                states.append((False, None, False, False, None))
        return tuple(states)

    def lock(self, tag: int) -> bool:
        """Lock ``tag`` against eviction (PLcache); False if absent."""
        way = self._index.get(tag)
        if way is None:
            return False
        self.locked_mask |= 1 << way
        return True

    def unlock(self, tag: int) -> bool:
        """Unlock ``tag``; False if absent."""
        way = self._index.get(tag)
        if way is None:
            return False
        self.locked_mask &= ~(1 << way)
        return True

    def randomize_policy_state(self, rng: Optional[random.Random] = None) -> None:
        """Scramble replacement metadata (Table 2 initial conditions)."""
        del rng  # the policy state uses its own generator
        self.policy.randomize_state()
