"""Differential parity: the cache core must be bit-identical to the oracle.

The object-per-line core under ``tests/oracle`` is the semantic oracle;
the struct-of-arrays core the library builds must reproduce it exactly —
per-access hit levels, latencies, dirty-victim flags and eviction streams,
final cache state, and statistics counters.  Any divergence, however
small, is a bug in the production core.

The fuzz matrix covers every policy in the replacement registry, both L1
write policies, and seeded random traces of >= 10,000 accesses, plus a
real WB-channel transmission end to end and every defended L1.
"""

import random

import pytest

from repro.cache.cache import WritePolicy
from repro.common.errors import ConfigurationError
from repro.cache.configs import make_xeon_hierarchy
from repro.engine import event_stream, fig6_workload, random_workload, run_trace
from repro.replacement.registry import available_policies
from tests.oracle import oracle_core

SEED = 1234


def build_pair(policy, write_policy=WritePolicy.WRITE_BACK, seed=SEED):
    """Two hierarchies with identical RNG streams: oracle, production."""
    kwargs = dict(l1_policy=policy, l1_write_policy=write_policy)
    with oracle_core():
        reference = make_xeon_hierarchy(rng=random.Random(seed), **kwargs)
    fast = make_xeon_hierarchy(rng=random.Random(seed), **kwargs)
    return reference, fast


def on_both_cores(run):
    """``run()`` on the oracle, then on the production core."""
    with oracle_core():
        reference = run()
    return reference, run()


def assert_state_identical(reference, fast):
    """Every set of every level holds the same normalised way states."""
    for level_ref, level_fast in zip(reference.levels, fast.levels):
        for index, (set_ref, set_fast) in enumerate(
            zip(level_ref.sets, level_fast.sets)
        ):
            assert set_ref.way_states() == set_fast.way_states(), (
                f"{level_ref.name} set {index} diverged"
            )
            assert set_ref.index_snapshot() == set_fast.index_snapshot()
            assert set_ref.dirty_count() == set_fast.dirty_count()
            assert set_ref.valid_count() == set_fast.valid_count()


@pytest.mark.parametrize("policy", available_policies())
@pytest.mark.parametrize(
    "write_policy", [WritePolicy.WRITE_BACK, WritePolicy.WRITE_THROUGH]
)
def test_random_trace_parity(policy, write_policy):
    """>= 10k random accesses: identical event streams and final state."""
    trace = list(
        random_workload(
            num_accesses=10_000,
            working_set_lines=1024,
            write_ratio=0.3,
            seed=SEED,
        )
    )
    reference, fast = build_pair(policy, write_policy)
    events_ref = event_stream(reference, trace, owner=0)
    events_fast = event_stream(fast, trace, owner=0)
    assert events_ref == events_fast
    assert_state_identical(reference, fast)
    assert reference.stats.snapshot() == fast.stats.snapshot()


@pytest.mark.parametrize("policy", available_policies())
def test_fig6_trace_parity(policy):
    """The Figure 6 channel inner loop replays identically."""
    trace = fig6_workload(num_symbols=400, d=4, seed=SEED)
    reference, fast = build_pair(policy)
    result_ref = run_trace(reference, trace)
    result_fast = run_trace(fast, trace)
    assert result_ref.hit_levels == result_fast.hit_levels
    assert result_ref.latencies == result_fast.latencies
    assert result_ref.dirty_evictions == result_fast.dirty_evictions
    assert_state_identical(reference, fast)
    assert reference.stats.snapshot() == fast.stats.snapshot()


def test_batched_loop_matches_generic_loop():
    """run_trace's specialised SoA loop equals the per-access API."""
    trace = list(
        random_workload(num_accesses=10_000, working_set_lines=2048, seed=7)
    )
    via_batch = make_xeon_hierarchy(rng=random.Random(3))
    via_generic = make_xeon_hierarchy(rng=random.Random(3))
    batched = run_trace(via_batch, trace, owner=1)
    events = event_stream(via_generic, trace, owner=1)
    assert batched.hit_levels == [event[0] for event in events]
    assert batched.latencies == [event[1] for event in events]
    assert batched.dirty_evictions == [event[2] for event in events]
    assert_state_identical(via_batch, via_generic)
    assert via_batch.stats.snapshot() == via_generic.stats.snapshot()


def test_flush_parity():
    """clflush costs and after-states agree across the two cores."""
    trace = list(random_workload(num_accesses=2_000, seed=11))
    reference, fast = build_pair("tree-plru")
    run_trace(reference, trace, owner=0)
    run_trace(fast, trace, owner=0)
    addresses = sorted({address for address, _ in trace})[:200]
    costs_ref = [reference.flush(address, owner=0) for address in addresses]
    costs_fast = [fast.flush(address, owner=0) for address in addresses]
    assert costs_ref == costs_fast
    assert_state_identical(reference, fast)


def test_wb_channel_transmission_parity():
    """A real WB-protocol transmission decodes identically on both cores."""
    from repro.channels.encoding import BinaryDirtyCodec
    from repro.channels.wb import WBChannelConfig, run_wb_channel

    reference, fast = on_both_cores(
        lambda: run_wb_channel(
            WBChannelConfig(
                codec=BinaryDirtyCodec(d_on=4),
                period_cycles=1600,
                message_bits=48,
                seed=5,
            )
        )
    )
    assert reference.sent_bits == fast.sent_bits
    assert reference.received_bits == fast.received_bits
    assert reference.bit_error_rate == fast.bit_error_rate


@pytest.mark.parametrize("policy", available_policies())
def test_telemetry_event_stream_parity(policy):
    """With telemetry on, both cores emit bit-identical event streams.

    The emission sites live in the shared hierarchy walk, so this holds
    by construction for the generic path — and enabling telemetry forces
    run_trace off the specialised SoA loop, so the batched API is covered
    too.  NamedTuple equality compares every field of every event.
    """
    from repro.telemetry import EventKind, TelemetryBus, TraceRecorder

    trace = list(
        random_workload(
            num_accesses=4_000,
            working_set_lines=1024,
            write_ratio=0.3,
            seed=SEED,
        )
    )
    reference, fast = build_pair(policy)
    recorders = {}
    for name, hierarchy in (("reference", reference), ("fast", fast)):
        recorder = TraceRecorder(capacity=None)
        hierarchy.attach_telemetry(TelemetryBus()).subscribe(recorder)
        recorders[name] = recorder
    run_trace(reference, trace, owner=0)
    run_trace(fast, trace, owner=0)
    flushed = sorted({address for address, _ in trace})[:64]
    for address in flushed:
        reference.flush(address, owner=0)
        fast.flush(address, owner=0)

    events_ref = recorders["reference"].events
    events_fast = recorders["fast"].events
    assert events_ref, "telemetry-on run produced no events"
    assert events_ref == events_fast
    assert_state_identical(reference, fast)
    assert reference.stats.snapshot() == fast.stats.snapshot()
    # The stream is internally consistent too: L1 misses reconstructed
    # from events match the hierarchy's own statistics counters.
    misses_l1 = sum(
        1
        for event in events_ref
        if event.kind == EventKind.MISS and event.level == 1
    )
    assert misses_l1 == reference.stats.snapshot()["L1"]["misses"]


def test_experiment_results_identical_across_engines():
    """A full registered experiment gives the same result on both cores."""
    from repro.experiments.profiles import QUICK
    from repro.experiments.registry import run_experiment

    result_ref, result_fast = on_both_cores(
        lambda: run_experiment("table4", profile=QUICK, seed=0)
    )
    assert result_ref.rows == result_fast.rows
    assert result_ref.series == result_fast.series


def test_faulted_transmission_parity():
    """An injected-fault run (drift, slips, drops, co-runner) is the same
    on both cores: identical fault schedules AND identical bit errors."""
    from repro.channels.encoding import BinaryDirtyCodec
    from repro.channels.wb import WBChannelConfig, run_wb_channel
    from repro.faults import DEFAULT_FAULT_SPEC

    reference, fast = on_both_cores(
        lambda: run_wb_channel(
            WBChannelConfig(
                codec=BinaryDirtyCodec(d_on=1),
                period_cycles=5500,
                message_bits=64,
                seed=3,
                faults=DEFAULT_FAULT_SPEC.scaled(1.0),
            )
        )
    )
    assert reference.fault_summary == fast.fault_summary
    assert reference.fault_summary is not None
    assert reference.sent_bits == fast.sent_bits
    assert reference.received_bits == fast.received_bits
    assert reference.bit_error_rate == fast.bit_error_rate


def test_robust_protocol_parity():
    """The full self-healing stack delivers identical outcomes per core."""
    from dataclasses import asdict

    from repro.channels.encoding import BinaryDirtyCodec
    from repro.channels.wb import WBChannelConfig, run_robust_wb_channel
    from repro.faults import DEFAULT_FAULT_SPEC

    reference, fast = on_both_cores(
        lambda: run_robust_wb_channel(
            WBChannelConfig(
                codec=BinaryDirtyCodec(d_on=1),
                period_cycles=5500,
                message_bits=32,
                seed=1,
                faults=DEFAULT_FAULT_SPEC.scaled(1.0),
            )
        )
    )
    assert asdict(reference) == asdict(fast)


def _defended_builders():
    from repro.defenses import (
        make_partitioned_hierarchy,
        make_plcache_hierarchy,
        make_random_fill_hierarchy,
        make_randomized_mapping_hierarchy,
    )

    return {
        "plcache": lambda rng: make_plcache_hierarchy(rng=rng),
        "partitioned": lambda rng: make_partitioned_hierarchy(rng=rng),
        "random-fill": lambda rng: make_random_fill_hierarchy(rng=rng),
        "randomized-mapping": lambda rng: make_randomized_mapping_hierarchy(
            rekey_period_accesses=700, rng=rng
        ),
    }


def _access_outcome(hierarchy, address, write, owner):
    """An access's observables, or the error it raised.

    With re-keying on, a store hit can fail: ``probe`` and ``mark_dirty``
    each count an access, and a re-key flush that lands between them
    empties the L1 under the store.  Both cores must fail the same way at
    the same access.
    """
    try:
        trace = hierarchy.access(address, write, owner)
    except ConfigurationError as error:
        return ("error", str(error))
    return (
        trace.hit_level,
        trace.latency,
        trace.l1_victim_dirty,
        [(level, line.address, line.dirty) for level, line in trace.evictions],
    )


@pytest.mark.parametrize(
    "defense", ["plcache", "partitioned", "random-fill", "randomized-mapping"]
)
def test_defended_l1_parity(defense):
    """Each defended L1 matches its oracle twin access for access.

    The twin is the defense class mixed over the oracle cache, so the
    defense's own overrides run on object-per-line sets and policies.
    Two owners share the L1 (locking and partitions bite), 2% of the
    steps flush, and the re-keying period is short enough to flush the
    randomized mapping several times.
    """
    build = _defended_builders()[defense]
    reference, fast = on_both_cores(lambda: build(random.Random(SEED)))
    assert type(reference.l1).__name__ == f"Oracle{type(fast.l1).__name__}"
    rng = random.Random(SEED + 1)
    pool = [rng.randrange(1 << 20) * 64 for _ in range(1536)]
    for _ in range(6_000):
        address = rng.choice(pool)
        owner = rng.randrange(2)
        if rng.random() < 0.02:
            assert reference.flush(address, owner=owner) == fast.flush(
                address, owner=owner
            )
            continue
        write = rng.random() < 0.35
        assert _access_outcome(reference, address, write, owner) == _access_outcome(
            fast, address, write, owner
        )
    assert_state_identical(reference, fast)
    assert reference.stats.snapshot() == fast.stats.snapshot()
    for counter in ("bypassed_fills", "decorrelated_fills", "rekey_count", "key"):
        assert getattr(reference.l1, counter, None) == getattr(fast.l1, counter, None)
    if defense == "randomized-mapping":
        assert fast.l1.rekey_count > 1


def test_oracle_core_patches_every_builder():
    """Every module that builds caches or lone sets by name is patched.

    A builder the oracle missed would make a parity test compare the
    production core with itself.  Modules that only define, re-export or
    type-check these names are listed as such.
    """
    import importlib
    import pkgutil

    import repro
    from repro.cache.cache import Cache
    from repro.cache.cache_set import FastSet
    from repro.replacement.registry import make_policy_factory
    from tests.oracle import BUILDER_MODULES, LONE_SET_MODULES

    not_builders = {
        "repro.cache.cache",  # defines Cache, imports FastSet
        "repro.cache.cache_set",  # defines FastSet
        "repro.cache.hierarchy",  # type hints
        "repro.engine.fast_set",  # re-export
        "repro.engine.trace",  # `type(level) is Cache` selects the SoA loop
        "repro.replacement.registry",  # defines make_policy_factory
    }
    names = {"Cache": Cache, "FastSet": FastSet, "make_policy_factory": make_policy_factory}
    binders = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg or info.name.endswith("__main__"):
            continue
        namespace = vars(importlib.import_module(info.name))
        if any(namespace.get(name) is obj for name, obj in names.items()):
            binders.add(info.name)
    patched = {name for name, _ in BUILDER_MODULES} | set(LONE_SET_MODULES)
    assert binders - not_builders == patched
