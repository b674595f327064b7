"""The object-per-line cache core, kept as the parity oracle.

The library builds one cache core: :class:`repro.cache.cache.Cache` on
struct-of-arrays :class:`~repro.cache.cache_set.FastSet` storage with
the integer-state policies of :mod:`repro.replacement`.  This package
keeps the plainly written original of each piece —
:class:`~tests.oracle.cache_set.CacheSet` with one
:class:`~tests.oracle.cache_set.CacheLine` per way, the hook-based
:class:`~tests.oracle.cache.OracleCache`, and one module per policy
under :mod:`tests.oracle.replacement` — so the parity tests can replay
the same trace through both and compare them access for access.

:func:`oracle_core` makes every hierarchy builder produce the oracle:
it patches the class and policy-factory names the builders look up,
for the duration of a ``with`` block.  The library has no switch of its
own for this.
"""

from __future__ import annotations

import contextlib
import importlib
from typing import Iterator
from unittest import mock

from tests.oracle.cache import OracleCache
from tests.oracle.cache_set import CacheSet
from tests.oracle.replacement import make_policy_factory

__all__ = [
    "CORES",
    "CacheSet",
    "OracleCache",
    "core",
    "make_policy_factory",
    "oracle_core",
    "oracle_twin",
]

#: Names of the two cores in test ids: the oracle and the production core.
CORES = ("reference", "fast")

#: Modules whose hierarchy builders look up ``Cache`` and
#: ``make_policy_factory`` by name, plus the defended L1 class each
#: defense module builds (None for none).
BUILDER_MODULES = (
    ("repro.cache.configs", None),
    ("repro.coherence.hierarchy", None),
    ("repro.channels.wb.l2", None),
    ("repro.defenses.plcache", "PLCache"),
    ("repro.defenses.partitioned", "WayPartitionedCache"),
    ("repro.defenses.random_fill", "RandomFillCache"),
    ("repro.defenses.randomized_mapping", "RandomizedMappingCache"),
)

#: Experiments that build lone sets (``FastSet``) from policy factories.
LONE_SET_MODULES = ("repro.experiments.table2", "repro.experiments.table5")


def oracle_twin(defense_cls: type) -> type:
    """``defense_cls`` mixed over :class:`OracleCache`.

    The defense's own overrides run first; everything they delegate to
    (``super()`` calls and the inherited entry points) is the oracle's.
    """
    return type(f"Oracle{defense_cls.__name__}", (defense_cls, OracleCache), {})


@contextlib.contextmanager
def oracle_core() -> Iterator[None]:
    """Build the object-per-line oracle wherever the library builds a cache."""
    with contextlib.ExitStack() as stack:

        def patch(module, name, value):
            stack.enter_context(mock.patch.object(module, name, value))

        for module_name, defense in BUILDER_MODULES:
            module = importlib.import_module(module_name)
            patch(module, "Cache", OracleCache)
            patch(module, "make_policy_factory", make_policy_factory)
            if defense is not None:
                patch(module, defense, oracle_twin(getattr(module, defense)))
        for module_name in LONE_SET_MODULES:
            module = importlib.import_module(module_name)
            patch(module, "FastSet", CacheSet)
            patch(module, "make_policy_factory", make_policy_factory)
        yield


def core(name: str):
    """Context in which the builders build core ``name`` (see :data:`CORES`)."""
    if name not in CORES:
        raise ValueError(f"unknown core {name!r}")
    return oracle_core() if name == "reference" else contextlib.nullcontext()
