"""Deterministic random-number plumbing.

Every stochastic component of the simulator takes an explicit
:class:`random.Random` instance (or a seed).  These helpers normalise the two
forms and derive statistically independent child generators so that, e.g.,
the scheduler-noise stream does not perturb the message stream when one
parameter changes.
"""

from __future__ import annotations

import random
import sys
import zlib
from array import array
from typing import Optional, Union

RngLike = Union[random.Random, int, None]


def ensure_rng(rng: RngLike) -> random.Random:
    """Coerce ``rng`` into a :class:`random.Random`.

    ``None`` produces a generator with a fixed default seed (0) — experiments
    in this library are reproducible by default, and callers wanting true
    variation must opt in by passing their own generator or seed.
    """
    if isinstance(rng, random.Random):
        return rng
    if rng is None:
        return random.Random(0)
    return random.Random(rng)


def derive_rng(parent: random.Random, label: str) -> random.Random:
    """Derive an independent child generator from ``parent`` and a label.

    The label keeps derivations stable across code motion: adding a new
    consumer with a new label does not shift the streams of existing ones the
    way sequential ``parent.random()`` draws would.  The label is mixed in
    with CRC-32 rather than ``hash()`` because string hashing is randomised
    per process (PYTHONHASHSEED) and every experiment here must reproduce
    bit-for-bit across runs.
    """
    return random.Random(derive_seed(parent, label))


def derive_seed(parent: RngLike, label: str) -> int:
    """Derive a child *seed* from ``parent`` and a label.

    Same mixing as :func:`derive_rng` (so ``Random(derive_seed(s, label))``
    equals ``derive_rng(Random(s), label)`` for a fresh seed ``s``), but
    returns the integer seed itself — what the parallel runner stores in
    task specs and manifests so that shard seeds are reproducible from the
    manifest alone, independent of worker scheduling order.

    Passing an ``int`` (or ``None``) derives from a fresh generator and is
    therefore order-independent; passing a ``Random`` instance draws from
    it and advances its state, exactly like :func:`derive_rng`.
    """
    return label_seed(ensure_rng(parent).getrandbits(32), label)


def label_seed(word: int, label: str) -> int:
    """Mix a 32-bit draw with ``label`` into a child seed (CRC-32)."""
    return word ^ zlib.crc32(label.encode("utf-8"))


def derive_seed_words(parent: random.Random, count: int) -> "array[int]":
    """The next ``count`` 32-bit draws of ``parent``, from one call.

    ``parent.getrandbits(32 * count)`` packs exactly the words that
    ``count`` sequential ``getrandbits(32)`` calls would return, first
    draw least significant, and leaves ``parent`` in the same state.  So
    ``label_seed(words[i], label_i)`` equals the ``i``-th of ``count``
    sequential :func:`derive_seed` calls, and a caller can mix each word
    only when it needs that child.  Unpacking into an ``array`` makes
    each word an O(1) read.
    """
    words = array("I")  # 4-byte items on every supported platform
    words.frombytes(parent.getrandbits(32 * count).to_bytes(4 * count, "little"))
    if sys.byteorder != "little":
        words.byteswap()
    return words


def maybe_seeded(seed: Optional[int]) -> random.Random:
    """Return a generator seeded with ``seed``, or entropy-seeded if None."""
    if seed is None:
        return random.Random()
    return random.Random(seed)
