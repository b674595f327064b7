"""Table 5 — surviving a random replacement policy (Section 6.1).

The paper measures, on a gem5 pseudo-random 8-way cache, the probability
that *at least one* of ``d`` dirty lines is evicted by a replacement set
of ``L`` lines:

====  =====  =====  =====  =====  =====  =====
      L=8    L=9    L=10   L=11   L=12   L=13
====  =====  =====  =====  =====  =====  =====
d=2   63.6%  75.9%  84.6%  89.0%  92.9%  95.0%
d=3   89.5%  94.4%  96.8%  98.3%  99.4%  99.5%
====  =====  =====  =====  =====  =====  =====

alongside the analytic bound ``p = 1 - ((W - d) / W)^L`` (99.1% at d=3,
L=10).  We reproduce three variants: the analytic formula, a uniform
random policy (which matches the formula closely), and an LFSR
pseudo-random policy (whose short-term victim pattern differs, like
gem5's generator).
"""

from __future__ import annotations

import random
from typing import List

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_rng, ensure_rng
from repro.cache.cache_set import FastSet
from repro.experiments.base import ExperimentResult
from repro.experiments.profiles import ProfileLike, resolve_profile
from repro.replacement.registry import make_policy_factory

EXPERIMENT_ID = "table5"

DIRTY_COUNTS = (2, 3)
REPLACEMENT_SET_SIZES = (8, 9, 10, 11, 12, 13)


def analytic_probability(ways: int, dirty: int, replacement_size: int) -> float:
    """The paper's closed form: ``1 - ((W - d) / W)^L``."""
    if not 0 <= dirty <= ways:
        raise ConfigurationError(f"dirty must be in [0, {ways}], got {dirty}")
    return 1.0 - ((ways - dirty) / ways) ** replacement_size


def simulated_probability(
    policy_name: str,
    dirty: int,
    replacement_size: int,
    trials: int,
    rng: random.Random,
    ways: int = 8,
) -> float:
    """Monte-Carlo estimate of P(at least one dirty line evicted).

    Mirrors the paper's access sequence: the dirty lines are looped first
    (ensuring residency), then the replacement set is traversed once.
    """
    factory = make_policy_factory(policy_name)
    address_of = lambda tag, set_index: tag  # noqa: E731
    hits = 0
    for trial in range(trials):
        policy = factory(ways, derive_rng(rng, f"{policy_name}/{trial}"))
        cache_set = FastSet(ways, policy)
        # Fill with unrelated lines, then install the dirty lines.
        for prior in range(ways):
            cache_set.fill(1000 + prior, dirty=False, owner=None,
                           set_index=0, address_of=address_of)
        dirty_tags = list(range(1, dirty + 1))
        for tag in dirty_tags:
            if cache_set.find(tag) is None:
                cache_set.fill(tag, dirty=True, owner=None,
                               set_index=0, address_of=address_of)
        # One loop over the dirty lines (the paper's x -> y -> (z)).
        for tag in dirty_tags:
            way = cache_set.find(tag)
            if way is None:
                cache_set.fill(tag, dirty=True, owner=None,
                               set_index=0, address_of=address_of)
            else:
                cache_set.touch(way)
        # Traverse the replacement set.
        for fresh in range(100, 100 + replacement_size):
            if cache_set.find(fresh) is None:
                cache_set.fill(fresh, dirty=False, owner=None,
                               set_index=0, address_of=address_of)
        if any(cache_set.find(tag) is None for tag in dirty_tags):
            hits += 1
    return hits / trials


def run(
    *, profile: ProfileLike = None, seed: int = 0
) -> ExperimentResult:
    """Reproduce Table 5 (plus the analytic row the paper derives)."""
    profile = resolve_profile(profile)
    trials = profile.count(quick=300, full=10000)
    rng = ensure_rng(seed)
    rows: List[List[object]] = []
    for dirty in DIRTY_COUNTS:
        for label, prob_fn in (
            (
                "uniform random",
                lambda size, d=dirty: simulated_probability(
                    "random", d, size, trials, derive_rng(rng, f"uni/{d}")
                ),
            ),
            (
                "LFSR pseudo-random",
                lambda size, d=dirty: simulated_probability(
                    "lfsr-random", d, size, trials, derive_rng(rng, f"lfsr/{d}")
                ),
            ),
            ("analytic", lambda size, d=dirty: analytic_probability(8, d, size)),
        ):
            rows.append(
                [f"d={dirty}", label]
                + [f"{prob_fn(size):.1%}" for size in REPLACEMENT_SET_SIZES]
            )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="P(at least one dirty line replaced) under random replacement",
        paper_reference="Table 5 + Section 6.1 formula",
        columns=["d", "variant"] + [f"L={size}" for size in REPLACEMENT_SET_SIZES],
        rows=rows,
        params={"trials": trials, "seed": seed},
        notes=(
            "Monotone in both d and L, matching the paper's shape; at d=3, "
            "L=12 the probability exceeds 99% (paper: 99.4%), supporting "
            "the conclusion that random replacement does not defeat the WB "
            "channel. The paper's gem5 PRNG sits below the uniform formula "
            "at small L; our LFSR variant shows the same qualitative "
            "depression without matching gem5's generator exactly."
        ),
    )
