"""Synthetic access traces for benchmarks and differential tests.

Two generators:

* :func:`fig6_workload` — the Figure 6 channel inner loop flattened into a
  single-threaded trace: the sender's per-symbol stores to the first ``d``
  conflict lines of the target set interleaved with the receiver's
  pointer-chased replacement-set traversals (alternating sets A and B, as
  in Algorithm 2).  This is the hot loop every BER point in Figure 6
  executes thousands of times, so it is the headline benchmark workload.

* :func:`random_workload` — seeded uniform loads/stores over a bounded
  working set; exercises every structural path (hits at all levels, dirty
  and clean evictions, write-backs) and is the parity fuzzer's trace
  source.

Generators yield plain ``(address, is_write)`` pairs, so they feed
:func:`repro.engine.trace.run_trace` and the test oracle unchanged.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import ensure_rng
from repro.mem.address import AddressLayout

Access = Tuple[int, bool]

#: Default L1 geometry of the paper's Xeon (64 sets x 64 B lines).
_DEFAULT_LAYOUT = AddressLayout(line_size=64, num_sets=64)


def conflict_lines(
    layout: AddressLayout, target_set: int, count: int, base: int
) -> List[int]:
    """``count`` line addresses mapping to ``target_set``, distinct tags."""
    stride = layout.stride_between_conflicts()
    return [
        base + i * stride + target_set * layout.line_size for i in range(count)
    ]


def fig6_workload(
    num_symbols: int = 256,
    d: int = 4,
    replacement_set_size: int = 10,
    target_set: int = 21,
    sender_lines: int = 8,
    layout: Optional[AddressLayout] = None,
    seed: int = 0,
) -> List[Access]:
    """Flattened Figure 6 inner loop: encode ``num_symbols`` symbols.

    Per symbol the sender stores to the first ``d`` of its conflict lines
    (random schedule drawn from ``{0, d}`` like the binary codec) and the
    receiver pointer-chases one replacement set, alternating A and B.
    Warm-up loads precede the loop exactly as in the sender/receiver
    programs.
    """
    if num_symbols <= 0:
        raise ConfigurationError(
            f"num_symbols must be positive, got {num_symbols}"
        )
    if not 0 <= d <= sender_lines:
        raise ConfigurationError(
            f"d must be in [0, {sender_lines}], got {d}"
        )
    layout = layout or _DEFAULT_LAYOUT
    rng = ensure_rng(random.Random(seed))
    span = layout.stride_between_conflicts() * max(
        replacement_set_size, sender_lines
    )
    sender = conflict_lines(layout, target_set, sender_lines, base=0)
    chase_a = conflict_lines(layout, target_set, replacement_set_size, base=span)
    chase_b = conflict_lines(
        layout, target_set, replacement_set_size, base=2 * span
    )
    # The receiver shuffles traversal order so a prefetcher cannot learn
    # the stride (Section 4.2); keep that, it is part of the workload.
    rng.shuffle(chase_a)
    rng.shuffle(chase_b)

    trace: List[Access] = []
    for line in sender:
        trace.append((line, False))
    for line in chase_a:
        trace.append((line, False))
    for line in chase_b:
        trace.append((line, False))
    for symbol in range(num_symbols):
        dirty_count = d if rng.random() < 0.5 else 0
        for line in sender[:dirty_count]:
            trace.append((line, True))
        chase = chase_a if symbol % 2 == 0 else chase_b
        for line in chase:
            trace.append((line, False))
    return trace


def random_workload(
    num_accesses: int = 10_000,
    working_set_lines: int = 512,
    write_ratio: float = 0.3,
    hot_fraction: float = 0.25,
    layout: Optional[AddressLayout] = None,
    seed: int = 0,
) -> Iterator[Access]:
    """Seeded random loads/stores over a bounded working set.

    A ``hot_fraction`` slice of the working set receives half the traffic,
    giving realistic hit rates at every level instead of a pure miss
    storm.  Yields lazily; wrap in ``list`` to replay the same trace
    through several engines.
    """
    if num_accesses <= 0:
        raise ConfigurationError(
            f"num_accesses must be positive, got {num_accesses}"
        )
    if working_set_lines <= 0:
        raise ConfigurationError(
            f"working_set_lines must be positive, got {working_set_lines}"
        )
    if not 0.0 <= write_ratio <= 1.0:
        raise ConfigurationError(
            f"write_ratio must be in [0, 1], got {write_ratio}"
        )
    layout = layout or _DEFAULT_LAYOUT
    rng = random.Random(seed)
    line_size = layout.line_size
    hot_lines = max(1, int(working_set_lines * hot_fraction))
    for _ in range(num_accesses):
        if rng.random() < 0.5:
            line = rng.randrange(hot_lines)
        else:
            line = rng.randrange(working_set_lines)
        yield line * line_size, rng.random() < write_ratio
