"""Cache substrate: lines, sets, set-associative caches, and the hierarchy.

This package implements the write-back cache semantics the paper attacks.
The single load-bearing behaviour is in :meth:`FastSet.fill` /
:meth:`CacheHierarchy.access`: filling over a **dirty** victim costs a
write-back penalty on top of the next-level hit latency, while a clean
victim is replaced for free.  Everything else — write policies, allocation
policies, statistics, multi-level walks — exists so the attack, baseline
channels, defenses, and benign workloads all run against one faithful model.
"""

from repro.cache.line import EvictedLine
from repro.cache.latency import LatencyModel
from repro.cache.cache_set import FastSet
from repro.cache.cache import (
    AllocationPolicy,
    Cache,
    WritePolicy,
)
from repro.cache.hierarchy import (
    AccessTrace,
    CacheHierarchy,
    HierarchyFactory,
    MEMORY_LEVEL,
)
from repro.cache.stats import CacheStats, LevelCounters
from repro.cache.configs import (
    HierarchyParams,
    LevelParams,
    XeonE5_2650Config,
    make_xeon_hierarchy,
    make_tiny_hierarchy,
)

__all__ = [
    "HierarchyFactory",
    "AccessTrace",
    "AllocationPolicy",
    "Cache",
    "CacheHierarchy",
    "CacheStats",
    "EvictedLine",
    "FastSet",
    "HierarchyParams",
    "LatencyModel",
    "LevelCounters",
    "LevelParams",
    "MEMORY_LEVEL",
    "WritePolicy",
    "XeonE5_2650Config",
    "make_tiny_hierarchy",
    "make_xeon_hierarchy",
]
