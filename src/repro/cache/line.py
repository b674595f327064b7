"""What a cache set reports about a line it evicted or invalidated."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class EvictedLine:
    """Snapshot of a line at the moment it was evicted from a set.

    ``address`` is the full line-aligned address reconstructed by the cache
    (tag + set index), so write-backs can be routed to the next level.
    """

    address: int
    dirty: bool
    owner: Optional[int]
