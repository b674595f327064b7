"""Cache replacement policies.

Each policy manages the metadata of a *single cache set*; a cache creates one
policy instance per set through a factory.  The paper's Table 2 and Table 5
are pure properties of these policies (how reliably does a replacement set of
size N evict a previously-touched line?), so they are implemented carefully
and tested independently of the cache that hosts them.
"""

from repro.replacement.base import ReplacementPolicy, PolicyFactory
from repro.replacement.policies import (
    FIFO,
    NRU,
    SRRIP,
    BitPLRU,
    DirtyProtectingLRU,
    DirtyProtectingPLRU,
    LFSRPseudoRandom,
    NoisyTreePLRU,
    TreePLRU,
    TrueLRU,
    UniformRandom,
)
from repro.replacement.registry import available_policies, make_policy_factory

__all__ = [
    "BitPLRU",
    "DirtyProtectingLRU",
    "DirtyProtectingPLRU",
    "FIFO",
    "LFSRPseudoRandom",
    "NRU",
    "NoisyTreePLRU",
    "PolicyFactory",
    "ReplacementPolicy",
    "SRRIP",
    "TreePLRU",
    "TrueLRU",
    "UniformRandom",
    "available_policies",
    "make_policy_factory",
]
