"""A single set-associative cache level.

Structural behaviour only: the cache answers "hit or miss", installs lines,
and reports evictions; latency accounting and the walk across levels live in
:mod:`repro.cache.hierarchy`.  Write policy (write-back vs write-through)
and allocation policy (write-allocate vs no-write-allocate) are modelled
here because they decide *whether a dirty bit ever exists* — the paper's
Section 8 points out that a write-through cache removes the channel
entirely.
"""

from __future__ import annotations

import enum
import random
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_seed_words, ensure_rng, label_seed
from repro.cache.cache_set import FastSet
from repro.cache.line import EvictedLine
from repro.mem.address import AddressLayout
from repro.replacement.base import PolicyFactory


class WritePolicy(enum.Enum):
    """When stores reach the next level."""

    WRITE_BACK = "write-back"
    WRITE_THROUGH = "write-through"


class AllocationPolicy(enum.Enum):
    """Whether a store miss installs the line."""

    WRITE_ALLOCATE = "write-allocate"
    NO_WRITE_ALLOCATE = "no-write-allocate"


class SetTable(Sequence):
    """The sets of one cache level, each built on first touch.

    A cache channel works on a handful of sets, so building all of them
    up front (each with its own seeded policy) dominated short runs.
    Seeds stay bit-identical to eager construction: the constructor
    takes the per-set words from one :func:`derive_seed_words` call,
    which advances ``master`` exactly as ``num_sets`` sequential
    ``derive_rng(master, f"{name}/set{i}")`` calls did, and set ``i``
    is seeded with ``label_seed(words[i], f"{name}/set{i}")`` whenever it
    is built.  Build order therefore never changes a result.

    ``slots`` is the plain list the cache's hot paths index (``None`` for
    an unbuilt set, so ``slots[i] or build(i)``).  Indexing and iteration
    present every set, building as needed; :meth:`built` walks only the
    sets that exist.  The table holds no reference to its cache, so a
    dropped hierarchy is freed by reference counting alone.
    """

    __slots__ = ("slots", "_words", "_name", "_ways", "_policy_factory", "_set_class")

    def __init__(
        self,
        name: str,
        num_sets: int,
        ways: int,
        policy_factory: PolicyFactory,
        set_class: Callable[[int, object], FastSet],
        master: random.Random,
    ) -> None:
        self.slots: List[Optional[FastSet]] = [None] * num_sets
        self._words = derive_seed_words(master, num_sets)
        self._name = name
        self._ways = ways
        self._policy_factory = policy_factory
        self._set_class = set_class

    def build(self, index: int) -> FastSet:
        """Build set ``index`` (which must not exist yet) and return it."""
        rng = random.Random(label_seed(self._words[index], f"{self._name}/set{index}"))
        cache_set = self._set_class(self._ways, self._policy_factory(self._ways, rng))
        self.slots[index] = cache_set
        return cache_set

    def __getitem__(self, index: int) -> FastSet:
        if not 0 <= index < len(self.slots):
            raise IndexError(f"set index {index} out of range [0, {len(self.slots)})")
        return self.slots[index] or self.build(index)

    def __len__(self) -> int:
        return len(self.slots)

    def built(self) -> Iterator[Tuple[int, FastSet]]:
        """``(index, set)`` for every set built so far, in index order."""
        return ((i, s) for i, s in enumerate(self.slots) if s is not None)

    def built_count(self) -> int:
        """How many sets exist."""
        return len(self.slots) - self.slots.count(None)


class Cache:
    """One level of a set-associative cache.

    Parameters
    ----------
    name:
        Diagnostic label, e.g. ``"L1D"``.
    size_bytes, associativity, line_size:
        Geometry; ``size = sets * ways * line_size`` must hold exactly.
    policy_factory:
        ``factory(ways, rng) -> ReplacementPolicy``; one instance per set,
        made when the set is first touched (see :class:`SetTable`).
    write_policy, allocation_policy:
        Store semantics; the paper's target configuration is write-back +
        write-allocate (the near-universal pairing, Section 2.2).
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        associativity: int,
        line_size: int,
        policy_factory: PolicyFactory,
        write_policy: WritePolicy = WritePolicy.WRITE_BACK,
        allocation_policy: AllocationPolicy = AllocationPolicy.WRITE_ALLOCATE,
        rng: Optional[random.Random] = None,
    ) -> None:
        if size_bytes <= 0 or associativity <= 0 or line_size <= 0:
            raise ConfigurationError("cache geometry values must be positive")
        if size_bytes % (associativity * line_size) != 0:
            raise ConfigurationError(
                f"{name}: size {size_bytes} is not sets*ways*line_size "
                f"with ways={associativity}, line={line_size}"
            )
        num_sets = size_bytes // (associativity * line_size)
        if num_sets & (num_sets - 1):
            raise ConfigurationError(
                f"{name}: derived set count {num_sets} is not a power of two"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.layout = AddressLayout(line_size=line_size, num_sets=num_sets)
        self.write_policy = write_policy
        self.allocation_policy = allocation_policy
        self.sets = SetTable(
            name, num_sets, associativity, policy_factory, self.set_class,
            ensure_rng(rng),
        )
        # Hot paths index the raw slot list: ``_slots[i] or _build_set(i)``,
        # and split addresses with these cached integers instead of the
        # property chain through ``self.layout``.
        self._slots = self.sets.slots
        self._build_set = self.sets.build
        self._offset_bits = self.layout.offset_bits
        self._index_mask = num_sets - 1
        self._tag_shift = self.layout.offset_bits + self.layout.index_bits

    #: Set type, built as ``set_class(ways, policy)``.  Seeding lives in
    #: :class:`SetTable`, so a subclass with another set type draws
    #: identical streams.
    set_class: Callable[[int, object], FastSet] = FastSet

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.layout.num_sets

    def set_for(self, address: int) -> FastSet:
        """The set that ``address`` maps to."""
        set_index = self.set_index(address)
        return self._slots[set_index] or self._build_set(set_index)

    def set_index(self, address: int) -> int:
        """Set index of ``address``."""
        return (address >> self._offset_bits) & self._index_mask

    def tag_of(self, address: int) -> int:
        """Tag bits identifying a line within its set.

        The classic split drops the index bits from the tag because
        (tag, index) is unique.  Caches that permute the index (the
        randomized-mapping defense) must override this with a full-width
        tag, or two lines sharing the classic tag could alias within one
        permuted set.
        """
        return address >> self._tag_shift

    def _address_of(self, tag: int, set_index: int) -> int:
        return (tag << self._tag_shift) | (set_index << self._offset_bits)

    # ------------------------------------------------------------------
    # Structural operations (no latency here).  Each splits the address
    # inline; a subclass that remaps addresses overrides these entry
    # points, not just ``set_index``/``tag_of``.
    # ------------------------------------------------------------------
    def probe(self, address: int) -> bool:
        """Whether ``address`` currently hits, without touching metadata."""
        set_index = (address >> self._offset_bits) & self._index_mask
        cache_set = self._slots[set_index] or self._build_set(set_index)
        return (address >> self._tag_shift) in cache_set._index

    def is_dirty(self, address: int) -> bool:
        """Whether ``address`` is resident and dirty."""
        set_index = (address >> self._offset_bits) & self._index_mask
        cache_set = self._slots[set_index] or self._build_set(set_index)
        way = cache_set._index.get(address >> self._tag_shift)
        return way is not None and bool(cache_set.dirty_mask & (1 << way))

    def lookup(self, address: int, owner: Optional[int]) -> bool:
        """Demand access metadata update: True on hit (touches policy)."""
        set_index = (address >> self._offset_bits) & self._index_mask
        cache_set = self._slots[set_index] or self._build_set(set_index)
        way = cache_set._index.get(address >> self._tag_shift)
        if way is None:
            return False
        cache_set.policy.on_hit(way)
        if owner is not None:
            cache_set.owners[way] = owner
        return True

    def mark_dirty(self, address: int) -> None:
        """Set the dirty bit of a resident line (write hit, write-back)."""
        set_index = (address >> self._offset_bits) & self._index_mask
        cache_set = self._slots[set_index] or self._build_set(set_index)
        way = cache_set._index.get(address >> self._tag_shift)
        if way is None:
            raise ConfigurationError(
                f"{self.name}: mark_dirty on non-resident {address:#x}"
            )
        cache_set.mark_dirty(way)

    def allowed_ways(self, owner: Optional[int]) -> Optional[Sequence[int]]:
        """Way mask for ``owner`` (None = all ways).

        The base cache is unpartitioned; the way-partitioning defense
        subclasses override this.
        """
        del owner
        return None

    def fill(
        self, address: int, dirty: bool, owner: Optional[int]
    ) -> Optional[EvictedLine]:
        """Install the line of ``address``; returns the eviction, if any."""
        set_index = (address >> self._offset_bits) & self._index_mask
        cache_set = self._slots[set_index] or self._build_set(set_index)
        return cache_set.fill(
            tag=address >> self._tag_shift,
            dirty=dirty,
            owner=owner,
            set_index=set_index,
            address_of=self._address_of,
            allowed_ways=self.allowed_ways(owner),
        )

    def invalidate(self, address: int) -> Optional[EvictedLine]:
        """Drop the line of ``address`` (clflush); returns its final state."""
        set_index = (address >> self._offset_bits) & self._index_mask
        cache_set = self._slots[set_index] or self._build_set(set_index)
        return cache_set.invalidate(address >> self._tag_shift)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def dirty_lines_in_set(self, set_index: int) -> int:
        """Dirty-line count of a set (experiments peek at the target set).

        An unbuilt set holds no lines, so it reads 0 and stays unbuilt.
        """
        if not 0 <= set_index < self.num_sets:
            raise ConfigurationError(f"set_index {set_index} out of range")
        cache_set = self._slots[set_index]
        return 0 if cache_set is None else cache_set.dirty_count()

    def describe(self) -> Dict[str, object]:
        """Human-readable configuration summary."""
        return {
            "name": self.name,
            "size_bytes": self.size_bytes,
            "associativity": self.associativity,
            "line_size": self.layout.line_size,
            "num_sets": self.num_sets,
            "write_policy": self.write_policy.value,
            "allocation_policy": self.allocation_policy.value,
        }
