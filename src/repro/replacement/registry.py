"""Name-based registry of replacement-policy factories.

Experiments and cache presets refer to policies by short stable names
(``"lru"``, ``"tree-plru"``, ...) so that configurations stay serialisable
and CLI-selectable.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.common.errors import ConfigurationError
from repro.replacement.base import PolicyFactory, ReplacementPolicy
from repro.replacement.policies import (
    FIFO,
    NRU,
    SRRIP,
    BitPLRU,
    DirtyProtectingLRU,
    LFSRPseudoRandom,
    NoisyTreePLRU,
    TreePLRU,
    TrueLRU,
    UniformRandom,
)

_REGISTRY: Dict[str, type] = {
    "lru": TrueLRU,
    "fifo": FIFO,
    "tree-plru": TreePLRU,
    "noisy-plru": NoisyTreePLRU,
    "dirty-protect-plru": DirtyProtectingLRU,
    "e5-2650": DirtyProtectingLRU,  # behavioural surrogate, see DESIGN.md
    "bit-plru": BitPLRU,
    "nru": NRU,
    "srrip": SRRIP,
    "random": UniformRandom,
    "lfsr-random": LFSRPseudoRandom,
}


def available_policies() -> List[str]:
    """Sorted list of registered policy names."""
    return sorted(_REGISTRY)


def make_policy_factory(name: str, **kwargs: object) -> PolicyFactory:
    """Return a ``factory(ways, rng)`` for the policy called ``name``.

    Extra keyword arguments are forwarded to the policy constructor, e.g.
    ``make_policy_factory("noisy-plru", update_prob=0.5)``.
    """
    try:
        policy_cls = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown replacement policy {name!r}; "
            f"available: {', '.join(available_policies())}"
        )

    def factory(ways: int, rng: random.Random) -> ReplacementPolicy:
        return policy_cls(ways, rng, **kwargs)

    return factory
