"""The struct-of-arrays cache set, importable from its historic path.

The class lives in :mod:`repro.cache.cache_set`; tools that count set
constructions (``FastSet.__init__``) still find it here.
"""

from repro.cache.cache_set import FastSet

__all__ = ["FastSet"]
