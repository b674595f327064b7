"""Output checks: every result the benchmark sees is compared with a pin.

A result is pinned two ways.  Seed 0 results of experiments that have a
golden under ``tests/golden/`` must equal it byte for byte (the golden
is the indented form ``ExperimentResult.to_json(indent=2)`` plus a
newline).  Every (experiment, seed) pair the workloads can request also
has the SHA-256 of its compact JSON bytes, the form the service stores
and serves, recorded in ``fingerprints.json`` next to this file by
``record_fingerprints.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Mapping, Optional

HERE = Path(__file__).resolve().parent
FINGERPRINTS = HERE / "fingerprints.json"
PROFILE = "quick"


def fingerprint(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def pin_name(experiment_id: str, seed: int) -> str:
    return f"{experiment_id}/{PROFILE}/seed{seed}"


def load_fingerprints(path: Path = FINGERPRINTS) -> Dict[str, str]:
    return json.loads(path.read_text(encoding="utf-8"))["fingerprints"]


def golden_bytes(golden_dir: Path, experiment_id: str, seed: int) -> Optional[bytes]:
    """The committed golden for a seed-0 result, or None when there is none."""
    if seed != 0:
        return None
    path = golden_dir / f"{experiment_id}.{PROFILE}-seed0.json"
    return path.read_bytes() if path.is_file() else None


def indented(blob: bytes) -> bytes:
    """The golden form of a compact result blob."""
    data = json.loads(blob.decode("utf-8"))
    return (json.dumps(data, indent=2, sort_keys=True) + "\n").encode("utf-8")


class OutputCheck:
    """Compares result blobs with the recorded pins; counts mismatches."""

    def __init__(self, fingerprints: Mapping[str, str], golden_dir: Path) -> None:
        self.fingerprints = dict(fingerprints)
        self.golden_dir = golden_dir
        self.checked = 0
        self.goldens_compared = 0
        self.mismatches: list = []

    def check(self, experiment_id: str, seed: int, blob: bytes) -> bool:
        """True when ``blob`` is the pinned result for (id, seed)."""
        self.checked += 1
        name = pin_name(experiment_id, seed)
        expected = self.fingerprints.get(name)
        if expected is None:
            return self._fail(name, "no recorded fingerprint")
        if fingerprint(blob) != expected:
            return self._fail(name, "fingerprint differs")
        golden = golden_bytes(self.golden_dir, experiment_id, seed)
        if golden is not None:
            self.goldens_compared += 1
            try:
                same = indented(blob) == golden
            except (UnicodeDecodeError, json.JSONDecodeError):
                same = False
            if not same:
                return self._fail(name, "differs from tests/golden")
        return True

    def _fail(self, name: str, reason: str) -> bool:
        self.mismatches.append(f"{name}: {reason}")
        return False


def error_rate(failed: int, attempted: int) -> float:
    """Failed or mismatched operations over attempted ones."""
    if attempted < 1:
        raise ValueError("error rate needs at least one attempted operation")
    return failed / attempted
