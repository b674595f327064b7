"""Benchmark entry point: one workload, timed end to end or traced by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig6_sweep --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the program not
instrumented, and corrects every time for the host's speed and stolen
time with the speed probe (see ``speed.py``).
``--trace 1`` alternates untraced and traced passes over the same
inputs and reports the per-layer ledger, plus the tracing overhead
(traced minus untraced ``wall_s``).  Every result a pass delivers is
checked against its pin (see ``checks.py``).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it say the same for a reader.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh-process set-ups timed per run; their median is ``setup_s``.
SETUP_SAMPLES = 5
#: Speed-probe samples taken just before and just after each set-up.
SETUP_PROBES = 10
#: A run makes at least this many passes, so warm jobs always exist.
MIN_PASSES = 2
SETUP_TIMEOUT_S = 60


def _bootstrap() -> None:
    """Put the checkout's program first on the path, or fail loudly."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'repro'}; "
                 "run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up once in this process and exit (timed by the parent)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------

def set_up(workload: str, seed: int, scratch: Path):
    """Everything a run needs before its first pass."""
    from checks import OutputCheck, load_fingerprints
    from workloads import PassRunner, import_program, pass_inputs, select_fast_engine

    import_program(workload)
    select_fast_engine()
    check = OutputCheck(load_fingerprints(), ROOT / "tests" / "golden")
    return PassRunner(workload, check, scratch), pass_inputs(workload, seed)


def setup_only(workload: str, seed: int, scratch: Path) -> None:
    """The set-up a user pays per process, including the service start."""
    from workloads import SERVICE_WORKLOAD, ServiceHarness

    _, inputs = set_up(workload, seed, scratch)
    next(inputs)
    if workload == SERVICE_WORKLOAD:
        ServiceHarness(scratch / "store-setup").close()


def time_setups(args: argparse.Namespace, scratch: Path, probe) -> List[float]:
    """Scaled seconds of ``SETUP_SAMPLES`` fresh-process set-ups.

    The host speed for each is sampled just before and just after it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        first = time.perf_counter()
        probe.burst(SETUP_PROBES)
        start = time.perf_counter()
        subprocess.run(
            command, env=env, cwd=str(scratch), check=True,
            stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S,
        )
        end = time.perf_counter()
        probe.burst(SETUP_PROBES)
        samples.append((end - start) * probe.factor(first, time.perf_counter()))
    return samples


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes, setups: List[float], probe) -> Dict[str, dict]:
    """Every end-to-end metric; times are scaled by the speed probe."""
    from layers import percentile

    jobs = [job for outcome in passes for job in outcome.jobs]
    latencies_ms = [probe.scaled(job.start, job.end) * 1e3 for job in jobs]
    cold = [ms for job, ms in zip(jobs, latencies_ms) if job.cold]
    warm = [ms for job, ms in zip(jobs, latencies_ms) if not job.cold]
    walls = [
        sum(probe.scaled(start, end) for start, end in outcome.spans)
        for outcome in passes
    ]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "job_p50_ms": {"value": statistics.median(latencies_ms), "unit": "ms"},
        "job_p90_ms": {"value": percentile(latencies_ms, 0.9), "unit": "ms"},
        "cold_job_p50_ms": {"value": statistics.median(cold), "unit": "ms"},
        "warm_job_p50_ms": {"value": statistics.median(warm), "unit": "ms"},
        "jobs_per_s": {"value": len(jobs) / sum(walls), "unit": "1/s"},
    }


def sample_counts(passes) -> Dict[str, int]:
    jobs = [job for outcome in passes for job in outcome.jobs]
    return {
        "wall_s": len(passes),
        "job_p50_ms": len(jobs),
        "job_p90_ms": len(jobs),
        "cold_job_p50_ms": sum(job.cold for job in jobs),
        "warm_job_p50_ms": sum(not job.cold for job in jobs),
    }


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------

def measure(runner, inputs, seconds: float, probe) -> list:
    """Untraced passes until the next one would overrun ``seconds``.

    The speed probe samples the host throughout.
    """
    passes = []
    with probe.sampling():
        start = time.perf_counter()
        while True:
            outcome = runner.run(next(inputs))
            passes.append(outcome)
            elapsed = time.perf_counter() - start
            if len(passes) >= MIN_PASSES and elapsed + outcome.wall_s > seconds:
                return passes


def trace(runner, inputs, seconds: float):
    """Untraced/traced pass pairs on the first pass's inputs."""
    from ledger import Ledger, instrument
    from layers import layer_metrics

    pass_input = next(inputs)
    untraced, traced, ledgers, missing = [], [], [], set()
    start = time.perf_counter()
    while True:
        untraced.append(runner.run(pass_input))
        ledger = Ledger()
        with instrument(ledger) as patches:
            traced.append(runner.run(pass_input))
        missing.update(patches.missing)
        ledgers.append(ledger)
        elapsed = time.perf_counter() - start
        pair = untraced[-1].wall_s + traced[-1].wall_s
        if elapsed + pair > seconds:
            break
    for target in sorted(missing):
        print(f"perfbench: trace target not found, skipped: {target}",
              file=sys.stderr)
    metrics = layer_metrics(ledgers, traced, untraced)
    return untraced + traced, metrics


def report(args, passes, metrics, check, counts: Optional[Dict[str, int]]) -> dict:
    from checks import error_rate

    attempted = sum(len(outcome.jobs) for outcome in passes)
    failed = sum(outcome.failed for outcome in passes)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  jobs {attempted}")
    print("  pass wall_s: " + " ".join(f"{o.wall_s:.3f}" for o in passes))
    for name, metric in metrics.items():
        note = f"  (n={counts[name]})" if counts and name in counts else ""
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"  error_rate {error_rate(failed, attempted):.6g} "
          f"({failed} failed of {attempted}; {check.checked} results checked, "
          f"{check.goldens_compared} against tests/golden)")
    for mismatch in check.mismatches:
        print(f"  MISMATCH {mismatch}")
    return {
        "correct": failed == 0 and not check.mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    _bootstrap()
    from speed import REFERENCE_S, SpeedProbe

    args = parse_args(argv)
    scratch = ROOT / ".perfbench_tmp" / f"{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            setup_only(args.workload, args.seed, scratch)
            return 0
        probe = SpeedProbe()
        setups = [] if args.trace else time_setups(args, scratch, probe)
        runner, inputs = set_up(args.workload, args.seed, scratch)
        if args.trace:
            passes, metrics = trace(runner, inputs, args.seconds)
            counts = None
        else:
            passes = measure(runner, inputs, args.seconds, probe)
            metrics = end_to_end(passes, setups, probe)
            counts = sample_counts(passes)
            counts["setup_s"] = len(setups)
        result = report(args, passes, metrics, runner.check, counts)
        if not args.trace:
            print(f"  speed probe: {len(probe.durations)} samples, median "
                  f"{statistics.median(probe.durations) * 1e3:.3f} ms "
                  f"(reference {REFERENCE_S * 1e3:g} ms), "
                  f"{probe.stolen[-1] - probe.stolen[0]:.2f} CPU s stolen")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
