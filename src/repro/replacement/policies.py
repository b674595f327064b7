"""The replacement policies, each on bit-packed or list state.

Every policy is built as ``Policy(ways, rng, **params)`` and draws from
``rng`` exactly as its definition below says (only the LFSR draws at
construction).  The object-per-line oracle under ``tests/oracle`` keeps
a plainly written twin of each policy; ``tests/test_engine_parity.py``
replays traces through both and requires the same victims, the same
metadata and the same ``rng`` draws in the same order.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Tuple

from repro.common.errors import ConfigurationError
from repro.replacement.base import ReplacementPolicy


def _require_power_of_two(policy: str, ways: int) -> None:
    if ways & (ways - 1):
        raise ConfigurationError(f"{policy} requires power-of-two ways, got {ways}")


def _require_probability(name: str, value: object) -> None:
    if not 0.0 <= value <= 1.0:  # type: ignore[operator]
        raise ConfigurationError(f"{name} must be within [0, 1], got {value}")


# ----------------------------------------------------------------------
# Ordered policies: the LRU family and FIFO.
# ----------------------------------------------------------------------


class TrueLRU(ReplacementPolicy):
    """Exact LRU: evicts the way whose last touch is oldest.

    With an 8-way set, accessing eight fresh lines is guaranteed to evict
    any line that was resident before — the ``N = 8 -> 100%`` column of
    the paper's Table 2.
    """

    __slots__ = ("order",)

    def __init__(self, ways: int, rng: random.Random) -> None:
        super().__init__(ways, rng)
        #: Recency order, least-recently-used first.
        self.order: List[int] = list(range(ways))

    def _touch(self, way: int) -> None:
        order = self.order
        order.remove(way)
        order.append(way)

    on_fill = _touch
    on_hit = _touch

    def victim(self) -> int:
        return self.order[0]

    def on_invalidate(self, way: int) -> None:
        # An invalidated way becomes the immediate eviction candidate.
        order = self.order
        order.remove(way)
        order.insert(0, way)

    def randomize_state(self) -> None:
        self.rng.shuffle(self.order)

    def recency_order(self) -> List[int]:
        """Current LRU-first ordering (a copy)."""
        return list(self.order)


class DirtyProtectingLRU(TrueLRU):
    """LRU with bounded probabilistic protection of dirty victims.

    The behavioural surrogate for the Xeon E5-2650's measured L1.  The
    paper's Table 2 measures that a freshly *written* line survives a
    replacement set of 8 lines 31.2% of the time and 9 lines 18.3% of the
    time, but never survives 10 lines; plain (Tree-)PLRU cannot produce
    that pattern.  When victim selection lands on a dirty line, the cache
    may divert to the next-oldest candidate instead, at most
    ``max_protections`` times per residency; the protected line keeps its
    age, so the very next fill designates it again.  With diversion
    probabilities ``p1 = 0.312`` and ``p2 = 0.587`` the eviction
    probabilities are ``1 - p1 = 68.8%`` at N = 8, ``1 - p1*p2 = 81.7%``
    at N = 9 and, the budget exhausted, 100% at N = 10.  This is a
    calibrated surrogate (microarchitecturally plausible, since evicting
    a dirty victim stalls the fill on the write-back), not reverse
    engineering; DESIGN.md and EXPERIMENTS.md flag it as such.
    """

    __slots__ = ("protect_probs", "max_protections", "dirty_mask", "used")

    #: Calibrated per-attempt diversion probabilities.
    DEFAULT_PROTECT_PROBS = (0.312, 0.587)

    wants_dirty_hint = True

    def __init__(
        self,
        ways: int,
        rng: random.Random,
        protect_probs: Tuple[float, ...] = DEFAULT_PROTECT_PROBS,
    ) -> None:
        super().__init__(ways, rng)
        for prob in protect_probs:
            _require_probability("protect_probs", prob)
        self.protect_probs = tuple(protect_probs)
        #: Protection budget per residency.
        self.max_protections = len(self.protect_probs)
        #: Most recent dirty-ways hint received from the cache set.
        self.dirty_mask: Tuple[bool, ...] = (False,) * ways
        #: Diversions used so far, per way; reset when the way is refilled.
        self.used: List[int] = [0] * ways

    def on_fill(self, way: int) -> None:
        self._touch(way)
        self.used[way] = 0

    def notify_dirty_ways(self, dirty_mask: Tuple[bool, ...]) -> None:
        if len(dirty_mask) != self.ways:
            raise ConfigurationError(
                f"dirty mask has {len(dirty_mask)} entries for {self.ways} ways"
            )
        self.dirty_mask = dirty_mask

    def victim(self) -> int:
        # Scan candidates oldest-first; a dirty candidate with remaining
        # budget may divert the eviction to the next-oldest line (one
        # rng.random() draw per protected dirty candidate).
        rng_random = self.rng.random
        dirty = self.dirty_mask
        used = self.used
        for way in self.order:
            count = used[way]
            if (
                dirty[way]
                and count < self.max_protections
                and rng_random() < self.protect_probs[count]
            ):
                used[way] = count + 1
                continue
            return way
        # Every way protected this round (possible when all are dirty):
        # fall back to plain LRU.
        return self.order[0]

    def protections_used(self) -> List[int]:
        """Per-way diversion counts (a copy)."""
        return list(self.used)


#: The name the surrogate had while it sat on a PLRU base (that variant
#: could not re-designate a protected line quickly enough to reproduce
#: the paper's N = 9 column).
DirtyProtectingPLRU = DirtyProtectingLRU


class FIFO(ReplacementPolicy):
    """First-in first-out eviction; hits do not refresh a line's position.

    A baseline several embedded cores use, and a contrast case for the
    property tests (hits must *not* protect a line).
    """

    __slots__ = ("queue",)

    def __init__(self, ways: int, rng: random.Random) -> None:
        super().__init__(ways, rng)
        self.queue = deque(range(ways))

    def on_fill(self, way: int) -> None:
        queue = self.queue
        if way in queue:
            queue.remove(way)
        queue.append(way)

    def on_hit(self, way: int) -> None:
        pass

    def victim(self) -> int:
        return self.queue[0]

    def on_invalidate(self, way: int) -> None:
        queue = self.queue
        if way in queue:
            queue.remove(way)
            queue.appendleft(way)

    def randomize_state(self) -> None:
        order = list(self.queue)
        self.rng.shuffle(order)
        self.queue = deque(order)

    def queue_order(self) -> List[int]:
        """Eviction order, next victim first (a copy)."""
        return list(self.queue)


# ----------------------------------------------------------------------
# Tree-PLRU: W-1 tree bits packed into one int, O(1) touch via masks.
# ----------------------------------------------------------------------

#: (clear_masks, set_masks) per way, keyed by way count; shared across sets.
_TREE_MASKS: Dict[int, Tuple[List[int], List[int]]] = {}

#: state -> victim lookup tables, keyed by way count; shared across sets.
_TREE_VICTIMS: Dict[int, List[int]] = {}


def _tree_masks(ways: int) -> Tuple[List[int], List[int]]:
    try:
        return _TREE_MASKS[ways]
    except KeyError:
        pass
    levels = ways.bit_length() - 1
    clear_masks: List[int] = []
    set_masks: List[int] = []
    all_bits = (1 << (ways - 1)) - 1
    for way in range(ways):
        node = 0
        touched = 0
        ones = 0
        for level in range(levels - 1, -1, -1):
            went_right = (way >> level) & 1
            touched |= 1 << node
            if not went_right:  # bit becomes 1: LRU side is the right subtree
                ones |= 1 << node
            node = 2 * node + 1 + went_right
        clear_masks.append(all_bits & ~touched)
        set_masks.append(ones)
    _TREE_MASKS[ways] = (clear_masks, set_masks)
    return clear_masks, set_masks


def _tree_victims(ways: int) -> List[int]:
    try:
        return _TREE_VICTIMS[ways]
    except KeyError:
        pass
    levels = ways.bit_length() - 1
    table: List[int] = []
    for state in range(1 << (ways - 1)):
        node = 0
        way = 0
        for _ in range(levels):
            direction = (state >> node) & 1
            way = (way << 1) | direction
            node = 2 * node + 1 + direction
        table.append(way)
    _TREE_VICTIMS[ways] = table
    return table


class TreePLRU(ReplacementPolicy):
    """Binary-tree pseudo-LRU over a power-of-two number of ways.

    The classic approximation of LRU used by many commercial L1 caches.
    ``W - 1`` tree bits sit in heap order (node 0 is the root, node ``i``
    has children ``2i + 1`` and ``2i + 2``), packed into one int; bit 0
    means "the LRU side is the left subtree".  Touching a way points
    every bit on its path at the *other* subtree; the victim follows the
    bits from the root.  Tree-PLRU only approximates recency, which is
    why the paper's Table 2 shows that N = 8 does not guarantee eviction
    (gem5 measured 94.3%) while N = 9 does.
    """

    __slots__ = ("state", "_levels", "_clear", "_set", "_victims")

    def __init__(self, ways: int, rng: random.Random) -> None:
        super().__init__(ways, rng)
        _require_power_of_two(type(self).__name__, ways)
        self.state = 0
        self._levels = ways.bit_length() - 1
        self._clear, self._set = _tree_masks(ways)
        self._victims = _tree_victims(ways)

    def on_fill(self, way: int) -> None:
        self.state = (self.state & self._clear[way]) | self._set[way]

    on_hit = on_fill

    def victim(self) -> int:
        return self._victims[self.state]

    def randomize_state(self) -> None:
        # One rng.randrange(2) per tree node, root first.
        rng = self.rng
        state = 0
        for node in range(self.ways - 1):
            if rng.randrange(2):
                state |= 1 << node
        self.state = state

    def tree_bits(self) -> List[int]:
        """The tree bits in heap order (a copy)."""
        return [(self.state >> node) & 1 for node in range(self.ways - 1)]


class NoisyTreePLRU(TreePLRU):
    """Tree-PLRU whose fills update each path node only probabilistically.

    An alternative model of the E5-2650's undocumented L1 policy: skipped
    fill updates leave stale victim pointers behind, so a freshly-filled
    replacement-set line can itself be chosen as the next victim.
    ``update_prob`` is the per-node probability that a fill updates the
    node (one ``rng.random()`` draw per tree level); 1.0 degenerates to
    exact Tree-PLRU.  Hits update fully.
    """

    __slots__ = ("update_prob",)

    #: Calibrated against the paper's measured E5-2650 column of Table 2.
    DEFAULT_UPDATE_PROB = 0.55

    def __init__(
        self,
        ways: int,
        rng: random.Random,
        update_prob: float = DEFAULT_UPDATE_PROB,
    ) -> None:
        super().__init__(ways, rng)
        _require_probability("update_prob", update_prob)
        self.update_prob = update_prob

    def on_fill(self, way: int) -> None:
        rng_random = self.rng.random
        prob = self.update_prob
        node = 0
        state = self.state
        for level in range(self._levels - 1, -1, -1):
            went_right = (way >> level) & 1
            if rng_random() < prob:
                if went_right:
                    state &= ~(1 << node)
                else:
                    state |= 1 << node
            node = 2 * node + 1 + went_right
        self.state = state

    def on_hit(self, way: int) -> None:
        self.state = (self.state & self._clear[way]) | self._set[way]


# ----------------------------------------------------------------------
# Bit-PLRU / NRU: one reference bit per way, packed.
# ----------------------------------------------------------------------


class BitPLRU(ReplacementPolicy):
    """MRU-bit pseudo-LRU.

    One bit per way marks it "recently used"; the victim is the
    lowest-numbered way whose bit is clear.  When setting a bit would make
    all bits set, the others are cleared first (the MRU-bit reset rule).
    """

    __slots__ = ("mru", "count", "_full")

    def __init__(self, ways: int, rng: random.Random) -> None:
        super().__init__(ways, rng)
        self.mru = 0
        self.count = 0
        self._full = (1 << ways) - 1

    def _touch(self, way: int) -> None:
        bit = 1 << way
        if not self.mru & bit:
            if self.count == self.ways - 1:
                # Setting this bit would saturate: reset the epoch.
                self.mru = 0
                self.count = 0
            self.mru |= bit
            self.count += 1

    on_fill = _touch
    on_hit = _touch

    def victim(self) -> int:
        clear = ~self.mru & self._full
        if not clear:
            return 0  # unreachable given the saturation rule
        return (clear & -clear).bit_length() - 1

    def on_invalidate(self, way: int) -> None:
        bit = 1 << way
        if self.mru & bit:
            self.mru &= ~bit
            self.count -= 1

    def randomize_state(self) -> None:
        rng = self.rng
        mru = 0
        count = 0
        for way in range(self.ways):
            if rng.random() < 0.5:
                mru |= 1 << way
                count += 1
        if count == self.ways:
            mru &= ~(1 << rng.randrange(self.ways))
            count -= 1
        self.mru = mru
        self.count = count

    def mru_bits(self) -> List[bool]:
        """The MRU bits, way order."""
        return [bool((self.mru >> way) & 1) for way in range(self.ways)]


class NRU(ReplacementPolicy):
    """Not-Recently-Used with a rotating scan pointer.

    Like Bit-PLRU but with the reset rule of several x86 LLC designs:
    when every way's reference bit is set, all bits are cleared except the
    one being touched, and the victim scan starts from a rotating pointer
    rather than way 0.
    """

    __slots__ = ("ref", "scan", "_full")

    def __init__(self, ways: int, rng: random.Random) -> None:
        super().__init__(ways, rng)
        self.ref = 0
        self.scan = 0
        self._full = (1 << ways) - 1

    def _touch(self, way: int) -> None:
        self.ref |= 1 << way
        if self.ref == self._full:
            self.ref = 1 << way

    on_fill = _touch
    on_hit = _touch

    def victim(self) -> int:
        ways = self.ways
        ref = self.ref
        scan = self.scan
        for offset in range(ways):
            way = scan + offset
            if way >= ways:
                way -= ways
            if not (ref >> way) & 1:
                self.scan = (way + 1) % ways
                return way
        # All referenced (possible right after randomize): clear, restart.
        self.ref = 0
        self.scan = (scan + 1) % ways
        return scan

    def on_invalidate(self, way: int) -> None:
        self.ref &= ~(1 << way)

    def randomize_state(self) -> None:
        rng = self.rng
        ref = 0
        for way in range(self.ways):
            if rng.random() < 0.5:
                ref |= 1 << way
        self.ref = ref
        self.scan = rng.randrange(self.ways)

    def referenced_bits(self) -> List[bool]:
        """The reference bits, way order."""
        return [bool((self.ref >> way) & 1) for way in range(self.ways)]

    @property
    def scan_start(self) -> int:
        """Current rotating scan pointer."""
        return self.scan


# ----------------------------------------------------------------------
# SRRIP.
# ----------------------------------------------------------------------


class SRRIP(ReplacementPolicy):
    """Static Re-Reference Interval Prediction (Jaleel et al.).

    Each way has a re-reference prediction value (RRPV); fills insert
    with a "long" prediction, hits promote to 0, and the victim is the
    first way at the maximum RRPV (aging every way when none is).  Its
    protection is weaker than LRU's for streaming patterns.
    """

    __slots__ = ("rrpv", "max_rrpv")

    def __init__(self, ways: int, rng: random.Random, rrpv_bits: int = 2) -> None:
        super().__init__(ways, rng)
        if rrpv_bits <= 0:
            raise ConfigurationError(f"rrpv_bits must be positive, got {rrpv_bits}")
        self.max_rrpv = (1 << rrpv_bits) - 1
        # Start everything at "distant" so cold sets behave like fills.
        self.rrpv: List[int] = [self.max_rrpv] * ways

    def on_fill(self, way: int) -> None:
        self.rrpv[way] = self.max_rrpv - 1

    def on_hit(self, way: int) -> None:
        self.rrpv[way] = 0

    def victim(self) -> int:
        rrpv = self.rrpv
        max_rrpv = self.max_rrpv
        while True:
            try:
                return rrpv.index(max_rrpv)
            except ValueError:
                for way in range(self.ways):
                    rrpv[way] += 1

    def on_invalidate(self, way: int) -> None:
        self.rrpv[way] = self.max_rrpv

    def randomize_state(self) -> None:
        rng = self.rng
        self.rrpv = [rng.randrange(self.max_rrpv + 1) for _ in range(self.ways)]

    def rrpv_values(self) -> List[int]:
        """Per-way RRPVs (a copy)."""
        return list(self.rrpv)


# ----------------------------------------------------------------------
# Random policies (Section 6.1).
# ----------------------------------------------------------------------


class UniformRandom(ReplacementPolicy):
    """Victim chosen independently and uniformly on every eviction.

    Matches the paper's analytic formula exactly: with a replacement set
    of L lines over a W-way set holding d dirty lines, at least one dirty
    line is evicted with probability ``1 - ((W - d) / W)^L``.
    """

    __slots__ = ()

    def on_fill(self, way: int) -> None:
        pass

    on_hit = on_fill

    def victim(self) -> int:
        return self.rng.randrange(self.ways)

    def randomize_state(self) -> None:
        pass  # stateless


class LFSRPseudoRandom(ReplacementPolicy):
    """Victim taken from a free-running 8-bit Galois LFSR (ARM-style).

    The register is seeded with ``rng.randrange(1, 256)`` at construction
    and steps once per victim request, so consecutive victims walk a fixed
    pseudo-random cycle — cheaper in hardware than true randomness but
    more predictable, which is why the paper's gem5 "pseudo-random"
    percentages (Table 5) sit below the uniform formula.
    """

    __slots__ = ("_state", "_mask")

    #: Taps for a maximal-length 8-bit Galois LFSR (x^8+x^6+x^5+x^4+1).
    _TAPS = 0xB8

    def __init__(self, ways: int, rng: random.Random) -> None:
        super().__init__(ways, rng)
        _require_power_of_two(type(self).__name__, ways)
        self._state = rng.randrange(1, 256)
        self._mask = ways - 1

    def on_fill(self, way: int) -> None:
        pass

    on_hit = on_fill

    def victim(self) -> int:
        state = self._state
        lsb = state & 1
        state >>= 1
        if lsb:
            state ^= self._TAPS
        self._state = state
        return state & self._mask

    def randomize_state(self) -> None:
        self._state = self.rng.randrange(1, 256)

    @property
    def lfsr_state(self) -> int:
        """Current shift-register contents."""
        return self._state
