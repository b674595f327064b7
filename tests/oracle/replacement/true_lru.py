"""True Least-Recently-Used replacement.

Keeps an exact recency ordering of the ways.  With an 8-way set, accessing
eight fresh lines is guaranteed to evict any line that was resident before —
the ``N = 8 -> 100%`` column of the paper's Table 2.
"""

from __future__ import annotations

import random
from typing import List

from tests.oracle.replacement.base import ReplacementPolicy


class TrueLRU(ReplacementPolicy):
    """Exact LRU: evicts the way whose last touch is oldest."""

    def __init__(self, ways: int, rng: random.Random) -> None:
        super().__init__(ways, rng)
        # Recency order, least-recently-used first.
        self._order: List[int] = list(range(ways))

    def _touch(self, way: int) -> None:
        self._order.remove(way)
        self._order.append(way)

    def on_fill(self, way: int) -> None:
        self._check_way(way)
        self._touch(way)

    def on_hit(self, way: int) -> None:
        self._check_way(way)
        self._touch(way)

    def victim(self) -> int:
        return self._order[0]

    def on_invalidate(self, way: int) -> None:
        # An invalidated way becomes the immediate eviction candidate.
        self._check_way(way)
        self._order.remove(way)
        self._order.insert(0, way)

    def randomize_state(self) -> None:
        self.rng.shuffle(self._order)

    def recency_order(self) -> List[int]:
        """Current LRU-first ordering (exposed for tests and experiments)."""
        return list(self._order)
