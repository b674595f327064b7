"""Record the result pins the benchmark checks against.

Run from the root of a checkout (about a minute on the fast core)::

    python3 perfbench/record_fingerprints.py

It runs every experiment any workload can request, at every seed in
``workloads.EXPERIMENT_SEEDS``, and writes the SHA-256 of each compact
result into ``fingerprints.json``.  Seed-0 results that have a golden
under ``tests/golden/`` must equal it, or nothing is written.  Re-record
only when a result is meant to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from checks import FINGERPRINTS, PROFILE, fingerprint, golden_bytes, indented, pin_name
    from workloads import EXPERIMENT_SEEDS, WORKLOADS, experiments_of, select_fast_engine

    from repro.experiments.registry import run_experiment

    select_fast_engine()
    pins = {}
    for workload in WORKLOADS:
        for experiment_id in experiments_of(workload):
            for seed in EXPERIMENT_SEEDS:
                blob = run_experiment(experiment_id, PROFILE, seed).to_json().encode("utf-8")
                golden = golden_bytes(ROOT / "tests" / "golden", experiment_id, seed)
                if golden is not None and indented(blob) != golden:
                    print(f"{experiment_id} seed {seed} differs from its golden",
                          file=sys.stderr)
                    return 1
                pins[pin_name(experiment_id, seed)] = fingerprint(blob)
                print(pin_name(experiment_id, seed), pins[pin_name(experiment_id, seed)])
    FINGERPRINTS.write_text(
        json.dumps({"profile": PROFILE, "fingerprints": pins}, indent=2, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
