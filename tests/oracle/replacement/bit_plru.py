"""Bit-PLRU (MRU-bit) replacement.

One bit per way marks it "recently used"; the victim is the lowest-numbered
way whose bit is clear.  When setting a bit would make all bits set, the
others are cleared first (the classic MRU-bit reset rule).  Used by several
commercial cores and a useful mid-point between FIFO and Tree-PLRU in the
policy comparison experiments.
"""

from __future__ import annotations

import random
from typing import List

from tests.oracle.replacement.base import ReplacementPolicy


class BitPLRU(ReplacementPolicy):
    """MRU-bit pseudo-LRU."""

    def __init__(self, ways: int, rng: random.Random) -> None:
        super().__init__(ways, rng)
        self._mru: List[bool] = [False] * ways

    def _touch(self, way: int) -> None:
        if not self._mru[way] and sum(self._mru) == self.ways - 1:
            # Setting this bit would saturate: reset the epoch.
            self._mru = [False] * self.ways
        self._mru[way] = True

    def on_fill(self, way: int) -> None:
        self._check_way(way)
        self._touch(way)

    def on_hit(self, way: int) -> None:
        self._check_way(way)
        self._touch(way)

    def victim(self) -> int:
        for way, used in enumerate(self._mru):
            if not used:
                return way
        # Unreachable given the saturation rule, but keep a sane fallback.
        return 0

    def on_invalidate(self, way: int) -> None:
        self._check_way(way)
        self._mru[way] = False

    def randomize_state(self) -> None:
        self._mru = [self.rng.random() < 0.5 for _ in range(self.ways)]
        if all(self._mru):
            self._mru[self.rng.randrange(self.ways)] = False

    def mru_bits(self) -> List[bool]:
        """Copy of the MRU bits (exposed for tests)."""
        return list(self._mru)
