"""Property-based invariants that every replacement policy must satisfy.

Each property runs over the production policies and, in the ``Oracle``
subclasses, over their object-per-line twins in ``tests/oracle``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replacement import available_policies, make_policy_factory
from tests.oracle import replacement as oracle_replacement

WAYS = 8

#: A random exercise script: True = fill victim, int = hit that way.
operations = st.lists(
    st.one_of(st.just("fill"), st.integers(min_value=0, max_value=WAYS - 1)),
    max_size=60,
)


def exercise(policy, ops):
    """Apply an operation script, returning every victim chosen."""
    victims = []
    for op in ops:
        if op == "fill":
            way = policy.victim()
            victims.append(way)
            policy.on_fill(way)
        else:
            policy.on_hit(op)
    return victims


@pytest.mark.parametrize("name", available_policies())
class TestUniversalInvariants:
    make_policy_factory = staticmethod(make_policy_factory)

    @given(ops=operations, seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=30, deadline=None)
    def test_victims_always_in_range(self, name, ops, seed):
        policy = self.make_policy_factory(name)(WAYS, random.Random(seed))
        for way in exercise(policy, ops):
            assert 0 <= way < WAYS

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_randomize_state_keeps_victims_valid(self, name, seed):
        policy = self.make_policy_factory(name)(WAYS, random.Random(seed))
        policy.randomize_state()
        for _ in range(WAYS * 2):
            way = policy.victim()
            assert 0 <= way < WAYS
            policy.on_fill(way)

    @given(ops=operations)
    @settings(max_examples=20, deadline=None)
    def test_deterministic_given_seed(self, name, ops):
        first = self.make_policy_factory(name)(WAYS, random.Random(99))
        second = self.make_policy_factory(name)(WAYS, random.Random(99))
        assert exercise(first, ops) == exercise(second, ops)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=15, deadline=None)
    def test_sustained_fills_eventually_cover_every_way(self, name, seed):
        # Liveness: no way is starved forever under pure miss traffic.
        policy = self.make_policy_factory(name)(WAYS, random.Random(seed))
        victims = set()
        for _ in range(WAYS * 64):
            way = policy.victim()
            victims.add(way)
            policy.on_fill(way)
            if len(victims) == WAYS:
                break
        assert victims == set(range(WAYS))


@pytest.mark.parametrize("name", ["lru", "tree-plru", "bit-plru", "nru"])
class TestRecencyRespectingPolicies:
    make_policy_factory = staticmethod(make_policy_factory)

    @given(
        protected=st.integers(min_value=0, max_value=WAYS - 1),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_never_evicts_the_just_touched_way(self, name, protected, seed):
        policy = self.make_policy_factory(name)(WAYS, random.Random(seed))
        policy.randomize_state()
        policy.on_hit(protected)
        assert policy.victim() != protected


class TestOracleUniversalInvariants(TestUniversalInvariants):
    make_policy_factory = staticmethod(oracle_replacement.make_policy_factory)


class TestOracleRecencyRespectingPolicies(TestRecencyRespectingPolicies):
    make_policy_factory = staticmethod(oracle_replacement.make_policy_factory)


#: Scripts for the twin comparison: fills, hits, invalidations, scrambles.
twin_operations = st.lists(
    st.one_of(
        st.just("fill"),
        st.just("randomize"),
        st.integers(min_value=0, max_value=WAYS - 1),
        st.tuples(st.just("invalidate"), st.integers(min_value=0, max_value=WAYS - 1)),
    ),
    max_size=80,
)


@pytest.mark.parametrize("name", available_policies())
class TestProductionMatchesOracle:
    @given(
        ops=twin_operations,
        dirty=st.lists(st.booleans(), min_size=WAYS, max_size=WAYS),
        seed=st.integers(min_value=0, max_value=2**16),
        ways=st.sampled_from([2, 4, WAYS]),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_victims_and_draws(self, name, ops, dirty, seed, ways):
        # Small sets reach rare states (e.g. every NRU bit set after a
        # scramble) that an 8-way set seldom does.
        rngs = random.Random(seed), random.Random(seed)
        production = make_policy_factory(name)(ways, rngs[0])
        oracle = oracle_replacement.make_policy_factory(name)(ways, rngs[1])
        pair = (production, oracle)
        for op in ops:
            if op == "fill":
                for policy in pair:
                    if policy.wants_dirty_hint:
                        policy.notify_dirty_ways(tuple(dirty[:ways]))
                victims = [policy.victim() for policy in pair]
                assert victims[0] == victims[1]
                for policy in pair:
                    policy.on_fill(victims[0])
            for policy in pair:
                if op == "randomize":
                    policy.randomize_state()
                elif isinstance(op, tuple):
                    policy.on_invalidate(op[1] % ways)
                elif isinstance(op, int):
                    policy.on_hit(op % ways)
            assert rngs[0].getstate() == rngs[1].getstate()
        assert production.victim() == oracle.victim()
