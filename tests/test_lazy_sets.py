"""First-touch set construction (:class:`repro.cache.cache.SetTable`).

A cache level builds a set, with its seeded replacement policy, only
when an access first reaches it.  Results must not notice: every set is
seeded exactly as eager construction seeded it, whatever the build
order, and the public ``sets`` sequence still presents all of them.

The table is shared code, so each test takes the core as an input:
``fast`` is the production cache, ``reference`` the object-per-line
oracle of ``tests/oracle``.
"""

import gc
import random
import weakref

import pytest

from repro.cache.cache import Cache, SetTable
from repro.cache.configs import make_xeon_hierarchy
from repro.channels.encoding import BinaryDirtyCodec
from repro.channels.wb.protocol import WBChannelConfig, run_wb_channel
from repro.common.rng import derive_rng
from repro.cpu.noise import SchedulerNoise
from repro.defenses.randomized_mapping import RandomizedMappingCache
from repro.engine import random_workload
from repro.replacement.registry import make_policy_factory
from tests.oracle import CORES as ENGINES
from tests.oracle import OracleCache, core


def build_xeon(engine, **kwargs):
    with core(engine):
        return make_xeon_hierarchy(**kwargs)


def built(hierarchy) -> int:
    return sum(level.sets.built_count() for level in hierarchy.levels)


@pytest.mark.parametrize("engine", ENGINES)
def test_fresh_hierarchy_builds_no_set(engine):
    hierarchy = build_xeon(engine, rng=random.Random(0))
    assert built(hierarchy) == 0
    assert [len(level.sets) for level in hierarchy.levels] == [64, 512, 2048]


@pytest.mark.parametrize("engine", ENGINES)
def test_one_fig6_transmission_builds_few_sets(engine, monkeypatch):
    tables = []
    original_init = SetTable.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        tables.append(self)

    monkeypatch.setattr(SetTable, "__init__", recording_init)
    config = WBChannelConfig(
        codec=BinaryDirtyCodec(d_on=4),
        message_bits=32,
        seed=3,
        scheduler_noise=SchedulerNoise.disabled(),
    )
    with core(engine):
        run_wb_channel(config)
    total = sum(len(table) for table in tables)
    assert total > 0
    assert sum(table.built_count() for table in tables) <= 0.02 * total


@pytest.mark.parametrize("engine", ENGINES)
def test_dropped_hierarchy_is_freed_without_the_cycle_collector(engine):
    hierarchy = build_xeon(engine, rng=random.Random(0))
    for address in range(0, 64 * 200, 64):
        hierarchy.access(address, address % 3 == 0)
    l1 = weakref.ref(hierarchy.l1)
    gc.disable()
    try:
        del hierarchy
        assert l1() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("index", [64, 65, -1, -64])
def test_out_of_range_index_raises_without_building(engine, index):
    hierarchy = build_xeon(engine, rng=random.Random(0))
    with pytest.raises(IndexError):
        hierarchy.l1.sets[index]
    assert built(hierarchy) == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_iteration_matches_an_eagerly_built_hierarchy(engine):
    def build():
        return build_xeon(engine, rng=random.Random(5), l1_policy="random")

    lazy, eager = build(), build()
    for level in eager.levels:
        for _ in level.sets:
            pass
    assert built(eager) == 64 + 512 + 2048
    trace = random_workload(
        num_accesses=4_000, working_set_lines=1_500, write_ratio=0.4, seed=9
    )
    for address, write in trace:
        assert lazy.access(address, write, 0) == eager.access(address, write, 0)
    assert 0 < built(lazy) < built(eager)
    for lazy_level, eager_level in zip(lazy.levels, eager.levels):
        assert [s.way_states() for s in lazy_level.sets] == [
            s.way_states() for s in eager_level.sets
        ]


@pytest.mark.parametrize("engine", ENGINES)
def test_sets_are_seeded_as_sequential_derivations(engine):
    """Set ``i`` gets ``derive_rng(master, f"{name}/set{i}")``'s stream,
    the ``i``-th of ``num_sets`` sequential derivations, in any build
    order."""
    first_draws = {}
    lru = make_policy_factory("lru")

    def factory(ways, rng):
        first_draws[len(first_draws)] = rng.getrandbits(32)
        return lru(ways, rng)

    cache_cls = OracleCache if engine == "reference" else Cache
    cache = cache_cls("L2", 64 * 8 * 16, 8, 64, factory, rng=random.Random(4))
    order = [13, 0, 7, 15, 2]
    for index in order:
        cache.sets[index]
    master = random.Random(4)
    expected = [
        derive_rng(master, f"L2/set{i}").getrandbits(32) for i in range(16)
    ]
    assert [first_draws[n] for n in range(len(order))] == [
        expected[i] for i in order
    ]


def test_rekey_flushes_only_built_sets():
    cache = RandomizedMappingCache(
        "L1D", 32 * 1024, 8, 64, make_policy_factory("tree-plru"),
        rng=random.Random(1), rekey_period_accesses=8,
    )
    cache.fill(0x1000, dirty=True, owner=0)
    cache.fill(0x9040, dirty=False, owner=0)
    touched = cache.sets.built_count()
    assert touched == 2
    while cache.rekey_count == 0:
        cache.set_index(0x2000)
    assert cache.sets.built_count() == touched
    assert all(s.valid_count() == 0 for _, s in cache.sets.built())


def test_dirty_lines_in_unbuilt_set_reads_zero_without_building():
    cache = Cache("L1D", 32 * 1024, 8, 64, make_policy_factory("lru"))
    assert cache.dirty_lines_in_set(5) == 0
    assert cache.sets.built_count() == 0
