"""The benchmark's workloads: seed-generated inputs and one timed pass.

A *job* is one experiment result a user asks for: an (experiment id,
seed) pair on the ``quick`` profile.  A *pass* is a sequence of phases;
in a phase each client works through its own job list, and the clients
of a phase run side by side.  The three experiment workloads have one
phase with one client that calls ``run_experiment`` directly;
``service_mix`` has two closed-loop HTTP clients of an in-process
service that starts each pass from an empty store.  Why each workload
exists is written down in ``WORKLOADS.md``.
"""

from __future__ import annotations

import itertools
import random
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

from checks import PROFILE, OutputCheck

#: Experiment seeds a job may carry: the default seed and one held-out
#: seed.  Both are pinned in ``fingerprints.json``.
EXPERIMENT_SEEDS = (0, 1)

#: Experiments run directly, one client, per workload.
DIRECT_WORKLOADS: Dict[str, Tuple[str, ...]] = {
    "fig6_sweep": ("fig6",),
    "corun_long": ("table6", "defenses"),
    "corun_observed": ("online_detection", "closed_loop_defense"),
}

SERVICE_WORKLOAD = "service_mix"
#: Small quick jobs the service mix draws from.
SERVICE_EXPERIMENTS = ("table4", "fig7", "table2", "fig4", "sidechannel")
SERVICE_CLIENTS = 2
#: Store hits per distinct (experiment, seed) in the second phase of a
#: service pass.  In the first phase both clients ask for every distinct
#: job in the same order, so each is computed once and coalesced once.
#: The second phase, once nothing is computing, is all store hits.  So
#: 20% of the jobs are cold and 60% are store hits: the median job sits
#: well inside the store hits, and the 90th percentile inside the
#: computed ones, not on the edge between populations some 60 times
#: apart; and no store hit waits on a computation for the interpreter.
SERVICE_STORE_HITS = 3

WORKLOADS = tuple(DIRECT_WORKLOADS) + (SERVICE_WORKLOAD,)


@dataclass(frozen=True)
class Job:
    experiment_id: str
    seed: int


#: One phase: the job list of each client, in submission order.
Phase = Tuple[Tuple[Job, ...], ...]
#: One pass: phases run one after another.
PassInput = Tuple[Phase, ...]


def experiments_of(workload: str) -> Tuple[str, ...]:
    if workload == SERVICE_WORKLOAD:
        return SERVICE_EXPERIMENTS
    return DIRECT_WORKLOADS[workload]


def pass_inputs(workload: str, seed: int) -> Iterator[PassInput]:
    """The workload's passes, generated from ``seed`` alone."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == SERVICE_WORKLOAD:
        distinct = [
            Job(experiment_id, job_seed)
            for experiment_id in SERVICE_EXPERIMENTS
            for job_seed in EXPERIMENT_SEEDS
        ]
        while True:
            first = list(distinct)
            hits = distinct * SERVICE_STORE_HITS
            rng.shuffle(first)
            rng.shuffle(hits)
            yield (
                (tuple(first),) * SERVICE_CLIENTS,
                tuple(
                    tuple(hits[client::SERVICE_CLIENTS])
                    for client in range(SERVICE_CLIENTS)
                ),
            )
    # Passes alternate the experiment seeds, so every run of a given
    # length does the same work whatever its seed.
    ids = list(DIRECT_WORKLOADS[workload])
    seeds = list(EXPERIMENT_SEEDS)
    rng.shuffle(seeds)
    for index in itertools.count():
        rng.shuffle(ids)
        job_seed = seeds[index % len(seeds)]
        yield ((tuple(Job(i, job_seed) for i in ids),),)


# ----------------------------------------------------------------------
# Outcomes
# ----------------------------------------------------------------------

@dataclass
class JobOutcome:
    job: Job
    #: ``perf_counter`` seconds when the job was sent and when its
    #: result was in hand.
    start: float
    end: float
    #: Cold: a served job the service computed, or the first direct run
    #: of its experiment in this process.  Warm: every other job.
    cold: bool
    ok: bool
    source: str = "direct"

    @property
    def latency_s(self) -> float:
        return self.end - self.start


@dataclass
class PassOutcome:
    #: The ``perf_counter`` intervals a pass's time is made of: its jobs
    #: (direct) or its phases (served).  Checking results is outside them.
    spans: List[Tuple[float, float]] = field(default_factory=list)
    jobs: List[JobOutcome] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end in self.spans)

    @property
    def failed(self) -> int:
        return sum(not outcome.ok for outcome in self.jobs)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------

def select_fast_engine() -> None:
    """Select the ``fast`` core through the selection module, if present.

    Engines are never chosen through a profile or a job field, so the
    choice does not reach any result or service key.  A tree without
    ``set_engine`` runs on its default core.
    """
    try:
        from repro.engine.selection import set_engine
    except ImportError:
        return
    set_engine("fast")


def import_program(workload: str) -> None:
    """Import every module the workload's passes reach."""
    import repro.experiments.registry  # noqa: F401

    if workload == SERVICE_WORKLOAD:
        import repro.service.client  # noqa: F401
        import repro.service.http  # noqa: F401


class ServiceHarness:
    """An in-process service app, its HTTP server, and the clients' URL."""

    def __init__(self, store_dir: Path) -> None:
        from repro.service.http import ServiceApp, make_server
        from repro.service.store import ResultStore

        self.app = ServiceApp(ResultStore(store_dir)).start()
        self.server = make_server(self.app)
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"
        self._thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05},
            name="perfbench-http",
        )
        self._thread.start()

    def close(self) -> None:
        self.server.shutdown()
        self._thread.join()
        self.server.server_close()
        self.app.stop()

    def __enter__(self) -> "ServiceHarness":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------

class PassRunner:
    """Runs passes of one workload and checks every result they deliver."""

    def __init__(self, workload: str, check: OutputCheck, scratch: Path) -> None:
        self.workload = workload
        self.check = check
        self.scratch = scratch
        self._seen: set = set()
        self._passes = 0

    def run(self, pass_input: PassInput) -> PassOutcome:
        self._passes += 1
        if self.workload == SERVICE_WORKLOAD:
            return self._served(pass_input)
        (phase,) = pass_input
        (jobs,) = phase
        return self._direct(jobs)

    def _direct(self, jobs: Tuple[Job, ...]) -> PassOutcome:
        from repro.experiments.registry import run_experiment

        outcome = PassOutcome()
        for job in jobs:
            cold = job.experiment_id not in self._seen
            self._seen.add(job.experiment_id)
            start = perf_counter()
            try:
                blob = run_experiment(
                    job.experiment_id, PROFILE, job.seed
                ).to_json().encode("utf-8")
            except Exception as exc:  # noqa: BLE001 - counted as failed
                blob = None
                error: Optional[Exception] = exc
            else:
                error = None
            end = perf_counter()
            outcome.spans.append((start, end))
            ok = blob is not None and self.check.check(
                job.experiment_id, job.seed, blob
            )
            if error is not None:
                self.check.mismatches.append(f"{job}: {error!r}")
            outcome.jobs.append(JobOutcome(job, start, end, cold, ok))
        return outcome

    def _served(self, phases: PassInput) -> PassOutcome:
        from repro.service.client import ServiceClient

        store_dir = self.scratch / f"store-{self._passes}"
        replies: List[tuple] = []
        outcome = PassOutcome()
        with ServiceHarness(store_dir) as harness:
            for phase in phases:
                threads = [
                    threading.Thread(
                        target=_client_loop,
                        args=(ServiceClient(harness.url), jobs, replies),
                        name=f"perfbench-client-{index}",
                    )
                    for index, jobs in enumerate(phase)
                ]
                start = perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                outcome.spans.append((start, perf_counter()))
        for job, start, end, source, blob, error in replies:
            ok = blob is not None and self.check.check(
                job.experiment_id, job.seed, blob
            )
            if error is not None:
                self.check.mismatches.append(f"{job}: {error}")
            outcome.jobs.append(
                JobOutcome(job, start, end, source == "computed", ok, source)
            )
        return outcome


def _client_loop(client, jobs: Tuple[Job, ...], replies: List[tuple]) -> None:
    """One closed-loop client: submit, wait, fetch the bytes, repeat."""
    from repro.common.errors import ReproError

    for job in jobs:
        start = perf_counter()
        try:
            record = client.submit(
                job.experiment_id, profile=PROFILE, seed=job.seed, wait=True
            )
            if record.get("state") != "done":
                raise ReproError(f"job ended {record.get('state')}: {record.get('error')}")
            blob = client.result_bytes(record["result_key"])
        except (OSError, ReproError) as exc:
            replies.append((job, start, perf_counter(), "error", None, repr(exc)))
            continue
        replies.append(
            (job, start, perf_counter(), str(record.get("source")), blob, None)
        )
