"""Self-tests for the benchmark's own machinery.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from ledger import Ledger, instrument  # noqa: E402


class FakeClock:
    """A clock the test advances by hand, in nanoseconds."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


# ----------------------------------------------------------------------
# Ledger arithmetic
# ----------------------------------------------------------------------

def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    ledger = Ledger(clock)
    outer = ledger.enter("outer")
    clock.now += 10
    child = ledger.enter("child")
    clock.now += 30
    grandchild = ledger.enter("grandchild")
    clock.now += 5
    ledger.leave(grandchild)
    ledger.leave(child)
    clock.now += 7
    second = ledger.enter("child")
    clock.now += 20
    ledger.leave(second)
    clock.now += 3
    ledger.leave(outer)

    stats = ledger.stats()
    assert stats["outer"].calls == 1
    assert stats["outer"].total_ns == 75
    assert stats["outer"].self_ns == 75 - 35 - 20
    assert stats["child"].calls == 2
    assert stats["child"].total_ns == 55
    assert stats["child"].self_ns == 30 + 20
    assert stats["grandchild"].self_ns == 5
    # Self times partition the root's duration.
    assert sum(s.self_ns for s in stats.values()) == stats["outer"].total_ns


def test_reentering_the_top_span_is_folded():
    clock = FakeClock()
    ledger = Ledger(clock)
    outer = ledger.enter("cache.build")
    clock.now += 4
    inner = ledger.enter("cache.build")
    assert inner is None
    clock.now += 6
    ledger.leave(inner)
    ledger.leave(outer)
    stat = ledger.stats()["cache.build"]
    assert (stat.calls, stat.total_ns, stat.self_ns) == (1, 10, 10)


def test_counters_and_stamps():
    clock = FakeClock()
    ledger = Ledger(clock)
    ledger.count("engine.sets_built")
    ledger.count("engine.sets_built", 3)
    ledger.stamp("submitted", "job-1", 100)
    clock.now = 150
    ledger.stamp("running", "job-1")
    clock.now = 900
    ledger.stamp("running", "job-1")  # only the first stamp counts
    ledger.stamp("running", "job-2")  # never submitted: no interval
    assert ledger.stats()["engine.sets_built"].calls == 4
    assert ledger.intervals_ns("submitted", "running") == [50]


def test_threads_keep_their_own_stacks():
    import threading

    ledger = Ledger()
    outer = ledger.enter("outer")
    thread = threading.Thread(target=lambda: ledger.leave(ledger.enter("worker")))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    ledger.leave(outer)
    stats = ledger.stats()
    assert stats["worker"].calls == 1
    # The worker's span ran on another thread: it is not outer's child.
    assert stats["outer"].self_ns == stats["outer"].total_ns


def test_percentile_interpolates_within_range():
    assert layers.percentile([], 0.9) == 0.0
    assert layers.percentile([5.0], 0.9) == 5.0
    assert layers.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0
    assert layers.percentile(list(range(11)), 0.9) == pytest.approx(9.0)


# ----------------------------------------------------------------------
# Host-speed scaling
# ----------------------------------------------------------------------

def _probe(seconds: float, kernel_s: float = speed.REFERENCE_S,
           stolen_share: float = 0.0) -> speed.SpeedProbe:
    """A probe with a sample every ``PERIOD_S`` over [0, seconds]."""
    probe = speed.SpeedProbe()
    count = int(seconds / speed.PERIOD_S) + 1
    probe.stamps = [index * speed.PERIOD_S for index in range(count)]
    probe.durations = [kernel_s] * count
    probe.stolen = [stamp * stolen_share for stamp in probe.stamps]
    return probe


def test_reference_speed_leaves_times_as_measured():
    assert _probe(10.0).scaled(2.0, 5.0) == pytest.approx(3.0)


def test_slower_kernel_scales_times_down():
    probe = _probe(10.0, kernel_s=2 * speed.REFERENCE_S)
    assert probe.scaled(2.0, 5.0) == pytest.approx(1.5)


def test_stolen_time_is_taken_out():
    assert _probe(10.0, stolen_share=0.25).scaled(2.0, 6.0) == pytest.approx(3.0)


def test_stolen_share_is_capped():
    probe = _probe(10.0, stolen_share=2.0)
    assert probe.scaled(2.0, 6.0) == pytest.approx(4.0 * (1 - speed.MAX_STOLEN_SHARE))


def test_median_ignores_a_stalled_sample():
    probe = _probe(10.0)
    probe.durations[100] = 50 * speed.REFERENCE_S
    assert probe.scaled(2.0, 3.0) == pytest.approx(1.0)


def test_short_interval_is_measured_over_the_minimum_window():
    probe = _probe(10.0)
    # Slow everywhere except inside the interval and close around it.
    probe.durations = [
        speed.REFERENCE_S if abs(stamp - 5.0) <= speed.MIN_WINDOW_S else 1.0
        for stamp in probe.stamps
    ]
    assert probe.factor(4.999, 5.001) == pytest.approx(1.0)
    probe.durations = [
        2 * speed.REFERENCE_S if abs(stamp - 5.0) <= speed.MIN_WINDOW_S / 2
        else speed.REFERENCE_S
        for stamp in probe.stamps
    ]
    assert probe.factor(4.999, 5.001) == pytest.approx(0.5)


def test_scaling_needs_samples_in_the_window():
    with pytest.raises(ValueError):
        _probe(1.0).factor(30.0, 31.0)


def test_sampling_takes_samples_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    with probe.sampling():
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.durations) >= 5
    assert len(probe.stamps) == len(probe.durations) == len(probe.stolen)
    assert probe.stamps == sorted(probe.stamps)


# ----------------------------------------------------------------------
# Instrumentation of the program
# ----------------------------------------------------------------------

def test_instrument_counts_layers_and_restores_originals():
    from repro.cache.cache import Cache
    from repro.cache.configs import make_tiny_hierarchy
    from repro.cache.hierarchy import CacheHierarchy
    from repro.engine.fast_cache import FastCache

    originals = (CacheHierarchy.access, Cache.__init__, FastCache.__init__)
    ledger = Ledger()
    with instrument(ledger) as patches:
        assert CacheHierarchy.access is not originals[0]
        hierarchy = make_tiny_hierarchy(rng=random.Random(1))
        for address in range(0, 64 * 16, 64):
            hierarchy.access(address, write=address % 128 == 0)
    assert patches.missing == []
    assert (CacheHierarchy.access, Cache.__init__, FastCache.__init__) == originals
    stats = ledger.stats()
    assert stats["cache.build"].calls == len(hierarchy.levels)
    assert stats["engine.sets_built"].calls == sum(
        level.num_sets for level in hierarchy.levels
    )
    assert stats["cache.access"].calls == 16


def test_instrument_rebinds_imported_names():
    import importlib

    ber = importlib.import_module("repro.analysis.ber")
    edit = importlib.import_module("repro.analysis.edit_distance")

    original = edit.edit_distance
    ledger = Ledger()
    with instrument(ledger):
        assert edit.edit_distance is not original
        assert ber.edit_distance is edit.edit_distance
        ber.bit_error_rate([1, 0, 1, 1], [1, 1, 1, 1])
    assert edit.edit_distance is original
    assert ber.edit_distance is original
    assert ledger.stats()["analysis.score"].calls == 1


# ----------------------------------------------------------------------
# Output checks and the error rate
# ----------------------------------------------------------------------

def _pinned(tmp_path: Path, experiment_id: str, seed: int, blob: bytes,
            golden: bytes = None) -> checks.OutputCheck:
    if golden is not None:
        (tmp_path / f"{experiment_id}.quick-seed0.json").write_bytes(golden)
    pins = {checks.pin_name(experiment_id, seed): checks.fingerprint(blob)}
    return checks.OutputCheck(pins, tmp_path)


def test_pinned_result_passes_and_matches_its_golden(tmp_path):
    blob = json.dumps({"b": [1, 2], "a": "x"}, sort_keys=True).encode()
    check = _pinned(tmp_path, "fig7", 0, blob, golden=checks.indented(blob))
    assert check.check("fig7", 0, blob)
    assert check.goldens_compared == 1
    assert check.mismatches == []


def test_corrupted_blob_counts_in_error_rate(tmp_path):
    blob = json.dumps({"rows": [[1, 2]]}).encode()
    check = _pinned(tmp_path, "table4", 1, blob)
    corrupted = blob.replace(b"2", b"3")
    outcomes = [check.check("table4", 1, blob), check.check("table4", 1, corrupted)]
    failed = outcomes.count(False)
    assert failed == 1
    assert checks.error_rate(failed, len(outcomes)) == 0.5
    assert "fingerprint differs" in check.mismatches[0]


class _Result:
    def __init__(self, text: str) -> None:
        self.text = text

    def to_json(self) -> str:
        return self.text


def test_corrupted_result_fails_its_pass_and_the_report(tmp_path, monkeypatch, capsys):
    import repro.experiments.registry as registry

    good = json.dumps({"rows": [[0]]})
    pins = {checks.pin_name("fig6", seed): checks.fingerprint(good.encode())
            for seed in workloads.EXPERIMENT_SEEDS}
    check = checks.OutputCheck(pins, tmp_path)
    replies = iter([good, good.replace("0", "1")])
    monkeypatch.setattr(registry, "run_experiment",
                        lambda *args, **kwargs: _Result(next(replies)))
    runner = workloads.PassRunner("fig6_sweep", check, tmp_path)
    inputs = workloads.pass_inputs("fig6_sweep", 0)
    passes = [runner.run(next(inputs)), runner.run(next(inputs))]
    assert [outcome.failed for outcome in passes] == [0, 1]
    assert [job.cold for outcome in passes for job in outcome.jobs] == [True, False]

    class Args:
        workload, seed, trace = "fig6_sweep", 0, 0

    result = run.report(Args, passes, {}, check, None)
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)
    assert "error_rate 0.5" in capsys.readouterr().out


def test_result_that_drifts_from_its_golden_fails(tmp_path):
    blob = json.dumps({"rows": [[1, 2]]}).encode()
    golden = checks.indented(json.dumps({"rows": [[1, 3]]}).encode())
    check = _pinned(tmp_path, "fig6", 0, blob, golden=golden)
    assert not check.check("fig6", 0, blob)
    assert "tests/golden" in check.mismatches[0]


def test_unpinned_result_fails(tmp_path):
    check = checks.OutputCheck({}, tmp_path)
    assert not check.check("fig6", 9, b"{}")


def test_recorded_pins_cover_every_job_a_workload_can_make():
    pins = checks.load_fingerprints()
    for workload in workloads.WORKLOADS:
        for experiment_id in workloads.experiments_of(workload):
            for seed in workloads.EXPERIMENT_SEEDS:
                assert checks.pin_name(experiment_id, seed) in pins


def test_error_rate_needs_an_attempt():
    with pytest.raises(ValueError):
        checks.error_rate(0, 0)


# ----------------------------------------------------------------------
# Workload generation
# ----------------------------------------------------------------------

def _take(iterator, count):
    return [next(iterator) for _ in range(count)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = _take(workloads.pass_inputs(workload, 7), 6)
    again = _take(workloads.pass_inputs(workload, 7), 6)
    assert first == again
    # The seed does choose the inputs (fig6_sweep has only two orders).
    runs = {tuple(_take(workloads.pass_inputs(workload, seed), 6)) for seed in range(10)}
    assert len(runs) > 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_jobs_stay_in_the_pinned_set(workload):
    for pass_input in _take(workloads.pass_inputs(workload, 3), 5):
        for phase in pass_input:
            for client in phase:
                for job in client:
                    assert job.experiment_id in workloads.experiments_of(workload)
                    assert job.seed in workloads.EXPERIMENT_SEEDS


def test_service_mix_computes_each_job_once_then_hits_the_store():
    first, hits = next(workloads.pass_inputs(workloads.SERVICE_WORKLOAD, 0))
    distinct = {
        workloads.Job(experiment_id, seed)
        for experiment_id in workloads.SERVICE_EXPERIMENTS
        for seed in workloads.EXPERIMENT_SEEDS
    }
    # Phase one: every client asks for every distinct job, in one order.
    assert len(first) == workloads.SERVICE_CLIENTS
    assert len(set(first)) == 1 and set(first[0]) == distinct
    assert len(first[0]) == len(distinct)
    # Phase two: the clients split the store hits between them.
    assert len(hits) == workloads.SERVICE_CLIENTS
    jobs = [job for client in hits for job in client]
    assert all(jobs.count(job) == workloads.SERVICE_STORE_HITS for job in distinct)


def test_direct_passes_alternate_the_experiment_seeds():
    passes = _take(workloads.pass_inputs("corun_long", 5), 4)
    seeds = [{job.seed for job in pass_input[0][0]} for pass_input in passes]
    assert all(len(pass_seeds) == 1 for pass_seeds in seeds)
    assert seeds[0] != seeds[1] and seeds[0] == seeds[2]


def test_no_workload_reaches_trace_sweep():
    for workload in workloads.WORKLOADS:
        assert "trace_sweep" not in workloads.experiments_of(workload)


# ----------------------------------------------------------------------
# Agreement with BENCHMARK.json
# ----------------------------------------------------------------------

def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_per_layer_metrics_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    assert declared == layers.METRICS


def test_end_to_end_metrics_match_benchmark_json():
    outcome = workloads.PassOutcome(spans=[(1.0, 2.5), (2.5, 3.0)], jobs=[
        workloads.JobOutcome(workloads.Job("fig6", 0), 1.0, 2.5, True, True),
        workloads.JobOutcome(workloads.Job("fig6", 1), 2.5, 3.0, False, True),
    ])
    metrics = run.end_to_end([outcome, outcome], [0.4, 0.5, 0.6], _probe(5.0))
    declared = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == declared
    assert metrics["setup_s"]["value"] == 0.5
    assert metrics["jobs_per_s"]["value"] == 1.0
    assert metrics["cold_job_p50_ms"]["value"] == pytest.approx(1500.0)
    assert all(m["value"] > 0 for m in metrics.values())


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in _benchmark()["workloads"]] == list(workloads.WORKLOADS)
