"""Deterministic fault schedules.

A :class:`FaultSchedule` is the fully materialised list of fault events
for one transmission: which symbols each party is descheduled on (and
for how long), which probe windows drop or duplicate, the per-slot
latency drift, and where co-runner bursts land.  It is a pure function
of ``(spec, seed, geometry)`` — every fault class draws from its own
labelled child generator (:func:`repro.common.rng.derive_rng`), so
changing one class's rate never perturbs another class's event stream,
and the same seed reproduces the same faults on the cache core and on
the test oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_rng, ensure_rng
from repro.faults.spec import FaultSpec


@dataclass(frozen=True)
class FaultSchedule:
    """Materialised fault events for one transmission."""

    spec: FaultSpec
    seed: int
    #: Symbols the sender transmits and probe slots the receiver samples
    #: (slots exceed symbols by the alignment slack).
    num_symbols: int
    num_slots: int
    period: int
    start_time: int
    #: Cumulative symbols already transmitted before this schedule (ARQ
    #: rounds continue the drift ramp instead of restarting it).
    symbol_origin: int
    #: ``(symbol_index, delay_cycles)`` descheduling windows per party.
    sender_desched: Tuple[Tuple[int, int], ...]
    receiver_desched: Tuple[Tuple[int, int], ...]
    #: Probe-slot indices whose measurement is lost / fires twice.
    dropped_slots: Tuple[int, ...]
    duplicated_slots: Tuple[int, ...]
    #: Additive latency offset per probe slot (cycles, rounded).
    drift_offsets: Tuple[int, ...]
    #: ``(start_cycle, accesses)`` co-runner bursts.
    corunner_bursts: Tuple[Tuple[int, int], ...]

    @property
    def empty(self) -> bool:
        """True when no fault of any class was scheduled."""
        return not (
            self.sender_desched
            or self.receiver_desched
            or self.dropped_slots
            or self.duplicated_slots
            or self.corunner_bursts
            or any(self.drift_offsets)
        )

    def summary(self) -> Dict[str, object]:
        """JSON-ready event counts (folded into results and manifests)."""
        return {
            "seed": self.seed,
            "sender_desched": len(self.sender_desched),
            "receiver_desched": len(self.receiver_desched),
            "dropped_slots": len(self.dropped_slots),
            "duplicated_slots": len(self.duplicated_slots),
            "corunner_bursts": len(self.corunner_bursts),
            "max_drift_cycles": max(self.drift_offsets, default=0),
        }


def _bernoulli_slots(rng: random.Random, rate: float, count: int) -> Tuple[int, ...]:
    """Indices in ``range(count)`` selected independently at ``rate``.

    Always draws ``count`` variates so the selected set for one class is
    invariant under changes to any *other* class's rate.
    """
    return tuple(i for i in range(count) if rng.random() < rate)


def build_fault_schedule(
    spec: FaultSpec,
    seed: int,
    num_symbols: int,
    period: int,
    start_time: int,
    num_slots: Optional[int] = None,
    symbol_origin: int = 0,
) -> FaultSchedule:
    """Materialise the fault events for one transmission.

    ``seed`` should be derived from the channel seed with a per-purpose
    label (e.g. ``derive_seed(config.seed, "faults/round0")``) so fault
    randomness never shares a stream with the simulator's own RNG.
    """
    if num_symbols <= 0:
        raise ConfigurationError(
            f"num_symbols must be positive, got {num_symbols}"
        )
    if period <= 0:
        raise ConfigurationError(f"period must be positive, got {period}")
    if symbol_origin < 0:
        raise ConfigurationError(
            f"symbol_origin must be non-negative, got {symbol_origin}"
        )
    slots = num_symbols if num_slots is None else num_slots
    if slots < num_symbols:
        raise ConfigurationError(
            f"num_slots {slots} smaller than num_symbols {num_symbols}"
        )
    root = ensure_rng(seed)
    # One labelled child stream per fault class (order-independent).
    rng_sender = derive_rng(root, "desched/sender")
    rng_receiver = derive_rng(root, "desched/receiver")
    rng_drop = derive_rng(root, "drop")
    rng_duplicate = derive_rng(root, "duplicate")
    rng_corunner = derive_rng(root, "corunner")

    def desched(rng: random.Random) -> Tuple[Tuple[int, int], ...]:
        events = []
        for symbol in range(num_symbols):
            hit = rng.random() < spec.desched_rate
            length = rng.uniform(spec.desched_min_periods, spec.desched_max_periods)
            if hit:
                events.append((symbol, max(1, int(length * period))))
        return tuple(events)

    bursts = []
    for symbol in range(num_symbols):
        hit = rng_corunner.random() < spec.corunner_rate
        offset = rng_corunner.random()
        if hit:
            bursts.append(
                (start_time + symbol * period + int(offset * period),
                 spec.corunner_accesses)
            )

    drift = tuple(
        int(round(min(
            spec.drift_limit_cycles,
            spec.drift_cycles_per_symbol * (symbol_origin + slot),
        )))
        for slot in range(slots)
    )

    return FaultSchedule(
        spec=spec,
        seed=seed,
        num_symbols=num_symbols,
        num_slots=slots,
        period=period,
        start_time=start_time,
        symbol_origin=symbol_origin,
        sender_desched=desched(rng_sender),
        receiver_desched=desched(rng_receiver),
        dropped_slots=_bernoulli_slots(rng_drop, spec.drop_rate, slots),
        duplicated_slots=_bernoulli_slots(rng_duplicate, spec.duplicate_rate, slots),
        drift_offsets=drift,
        corunner_bursts=tuple(bursts),
    )


def schedules_equal(first: FaultSchedule, second: FaultSchedule) -> bool:
    """Field-by-field equality (determinism assertions in tests)."""
    return all(
        getattr(first, f.name) == getattr(second, f.name)
        for f in fields(FaultSchedule)
    )
