"""Benchmark: the struct-of-arrays cache core vs the test oracle.

Unlike the other benchmarks (which time whole experiments), this one
times the raw simulation loop on the Figure 6 covert-channel workload —
the inner loop every experiment spends its cycles in.  The production
core (``fast``) and the object-per-line oracle of ``tests/oracle``
(``reference``) replay the identical trace; the fingerprints must match
(the parity guarantee), and the benchmark table shows the speedup.
Every set is built before the clock starts, on both sides, so only the
replay is timed.

``scripts/bench_engine.py`` is the scripted version of this measurement
and writes the committed ``BENCH_engine.json``.
"""

from __future__ import annotations

import random

import pytest

from repro.cache.configs import make_xeon_hierarchy
from repro.engine import fig6_workload, run_trace
from tests.oracle import core


@pytest.fixture(scope="module")
def trace():
    return fig6_workload(num_symbols=256, d=4, seed=0)


def prebuilt(engine, telemetry=None):
    """A Xeon hierarchy on ``engine``'s core with every set built."""
    with core(engine):
        hierarchy = make_xeon_hierarchy(rng=random.Random(0))
    if telemetry is not None:
        telemetry(hierarchy)
    for level in hierarchy.levels:
        for _ in level.sets:  # iterating builds every set
            pass
    return hierarchy


@pytest.fixture(scope="module")
def reference_fingerprint(trace):
    return run_trace(prebuilt("reference"), trace, owner=0).fingerprint()


def replay_timed(benchmark, trace, engine, telemetry=None):
    def setup():
        return (prebuilt(engine, telemetry), trace), {"owner": 0}

    return benchmark.pedantic(run_trace, setup=setup, rounds=1, iterations=1)


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_bench_engine(benchmark, engine, trace, reference_fingerprint):
    result = replay_timed(benchmark, trace, engine)
    assert result.fingerprint() == reference_fingerprint


def test_bench_fast_engine_idle_bus(benchmark, trace, reference_fingerprint):
    """Telemetry attached but disabled: must cost ~nothing on the fast path."""
    from repro.telemetry import TelemetryBus

    result = replay_timed(
        benchmark, trace, "fast",
        lambda h: h.attach_telemetry(TelemetryBus(enabled=False)),
    )
    assert result.fingerprint() == reference_fingerprint


def test_bench_fast_engine_telemetry_on(benchmark, trace, reference_fingerprint):
    """Full observability: the pay-for-what-you-use upper bound."""
    from repro.telemetry import TelemetryBus, TraceRecorder

    result = replay_timed(
        benchmark, trace, "fast",
        lambda h: h.attach_telemetry(TelemetryBus()).subscribe(TraceRecorder()),
    )
    assert result.fingerprint() == reference_fingerprint
