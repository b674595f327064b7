"""Deterministic RNG plumbing."""

import random

from hypothesis import given, settings, strategies as st

from repro.common.rng import (
    derive_rng,
    derive_seed,
    derive_seed_words,
    ensure_rng,
    label_seed,
    maybe_seeded,
)


class TestEnsureRng:
    def test_passes_through_random_instances(self):
        generator = random.Random(3)
        assert ensure_rng(generator) is generator

    def test_none_is_deterministic_default(self):
        assert ensure_rng(None).random() == ensure_rng(None).random()

    def test_int_seeds(self):
        assert ensure_rng(42).random() == random.Random(42).random()

    def test_distinct_seeds_differ(self):
        assert ensure_rng(1).random() != ensure_rng(2).random()


class TestDeriveRng:
    def test_deterministic_per_label(self):
        a = derive_rng(random.Random(9), "sender")
        b = derive_rng(random.Random(9), "sender")
        assert a.random() == b.random()

    def test_labels_give_independent_streams(self):
        parent = random.Random(9)
        a = derive_rng(parent, "sender")
        parent = random.Random(9)
        b = derive_rng(parent, "receiver")
        assert a.random() != b.random()

    def test_derivation_consumes_parent_state(self):
        parent = random.Random(9)
        derive_rng(parent, "x")
        after_one = parent.random()
        parent = random.Random(9)
        derive_rng(parent, "x")
        derive_rng(parent, "y")
        after_two = parent.random()
        assert after_one != after_two


class TestDeriveSeedWords:
    @settings(max_examples=60, deadline=None)
    @given(
        parent_seed=st.integers(min_value=0, max_value=2**64),
        count=st.integers(min_value=0, max_value=300),
    )
    def test_bulk_words_equal_sequential_derivations(self, parent_seed, count):
        bulk_parent = random.Random(parent_seed)
        sequential_parent = random.Random(parent_seed)
        labels = [f"L2/set{i}" for i in range(count)]
        words = derive_seed_words(bulk_parent, count)
        assert len(words) == count
        assert [label_seed(w, label) for w, label in zip(words, labels)] == [
            derive_seed(sequential_parent, label) for label in labels
        ]
        assert bulk_parent.getstate() == sequential_parent.getstate()


class TestMaybeSeeded:
    def test_seeded_reproducible(self):
        assert maybe_seeded(5).random() == maybe_seeded(5).random()

    def test_unseeded_returns_generator(self):
        assert isinstance(maybe_seeded(None), random.Random)
