"""Object-per-line oracle twins of the replacement policies.

Each module holds the plainly written original of one policy in
:mod:`repro.replacement.policies`.  :func:`make_policy_factory` mirrors
:func:`repro.replacement.make_policy_factory` over the same names, so
an oracle hierarchy draws the same ``rng`` streams as a production one.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.common.errors import ConfigurationError
from tests.oracle.replacement.base import PolicyFactory, ReplacementPolicy
from tests.oracle.replacement.bit_plru import BitPLRU
from tests.oracle.replacement.dirty_protect import DirtyProtectingLRU
from tests.oracle.replacement.fifo import FIFO
from tests.oracle.replacement.noisy_plru import NoisyTreePLRU
from tests.oracle.replacement.nru import NRU
from tests.oracle.replacement.random_policy import LFSRPseudoRandom, UniformRandom
from tests.oracle.replacement.srrip import SRRIP
from tests.oracle.replacement.tree_plru import TreePLRU
from tests.oracle.replacement.true_lru import TrueLRU

REGISTRY: Dict[str, type] = {
    "lru": TrueLRU,
    "fifo": FIFO,
    "tree-plru": TreePLRU,
    "noisy-plru": NoisyTreePLRU,
    "dirty-protect-plru": DirtyProtectingLRU,
    "e5-2650": DirtyProtectingLRU,
    "bit-plru": BitPLRU,
    "nru": NRU,
    "srrip": SRRIP,
    "random": UniformRandom,
    "lfsr-random": LFSRPseudoRandom,
}


def available_policies() -> List[str]:
    return sorted(REGISTRY)


def make_policy_factory(name: str, **kwargs: object) -> PolicyFactory:
    """``factory(ways, rng)`` for the oracle policy called ``name``."""
    try:
        policy_cls = REGISTRY[name]
    except KeyError:
        raise ConfigurationError(f"unknown replacement policy {name!r}")

    def factory(ways: int, rng: random.Random) -> ReplacementPolicy:
        return policy_cls(ways, rng, **kwargs)

    return factory
