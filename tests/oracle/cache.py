"""Oracle cache level: the hook-based twin of :class:`repro.cache.cache.Cache`.

Construction, validation and lazy seeding are inherited, so an oracle
level draws the same per-set ``rng`` streams as a production one.  Sets
are object-per-line :class:`~tests.oracle.cache_set.CacheSet`\\ s, and
every structural operation goes through the ``set_for``/``set_index``/
``tag_of`` hooks and :class:`~repro.mem.address.AddressLayout` instead
of the production core's cached-integer arithmetic.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.cache import Cache
from repro.cache.line import EvictedLine
from repro.common.errors import ConfigurationError
from tests.oracle.cache_set import CacheSet


class OracleCache(Cache):
    """One cache level on object-per-line sets."""

    set_class = CacheSet

    def set_index(self, address: int) -> int:
        return self.layout.set_index(address)

    def tag_of(self, address: int) -> int:
        return self.layout.tag(address)

    def _address_of(self, tag: int, set_index: int) -> int:
        return self.layout.compose(tag, set_index)

    def probe(self, address: int) -> bool:
        return self.set_for(address).find(self.tag_of(address)) is not None

    def is_dirty(self, address: int) -> bool:
        cache_set = self.set_for(address)
        way = cache_set.find(self.tag_of(address))
        return way is not None and cache_set.lines[way].dirty

    def lookup(self, address: int, owner: Optional[int]) -> bool:
        cache_set = self.set_for(address)
        way = cache_set.find(self.tag_of(address))
        if way is None:
            return False
        cache_set.touch(way)
        if owner is not None:
            cache_set.set_owner(way, owner)
        return True

    def mark_dirty(self, address: int) -> None:
        cache_set = self.set_for(address)
        way = cache_set.find(self.tag_of(address))
        if way is None:
            raise ConfigurationError(
                f"{self.name}: mark_dirty on non-resident {address:#x}"
            )
        cache_set.mark_dirty(way)

    def fill(
        self, address: int, dirty: bool, owner: Optional[int]
    ) -> Optional[EvictedLine]:
        set_index = self.set_index(address)
        cache_set = self._slots[set_index] or self._build_set(set_index)
        return cache_set.fill(
            tag=self.tag_of(address),
            dirty=dirty,
            owner=owner,
            set_index=set_index,
            address_of=self._address_of,
            allowed_ways=self.allowed_ways(owner),
        )

    def invalidate(self, address: int) -> Optional[EvictedLine]:
        return self.set_for(address).invalidate(self.tag_of(address))
