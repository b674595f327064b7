"""Bit-identity of every registered experiment against committed goldens.

Each experiment's quick/seed-0 JSON must equal, byte for byte, the output
committed under ``tests/golden/``.  The WB-channel family was pinned when
it was rebased onto ``compile_scenario`` + the library specs; the rest
were pinned from the tree just before the two cache cores were merged
into one.  Any drift — RNG consumption order, loop nesting, seed
formulas, row shaping — fails here before it can silently change
published numbers.
"""

from pathlib import Path

import pytest

from repro.experiments import available_experiments, run_experiment
from repro.scenario.library import available_library_specs

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: The spec-backed experiment family (mirrors repro.scenario.library).
SPEC_BACKED = (
    "fig6",
    "fig7",
    "fig8",
    "extension_l2",
    "fault_tolerance",
    "online_detection",
    "defenses",
    # Added with the coherence layer (no pre-refactor ancestor; the
    # golden pins cross-engine/cross-version determinism from day one).
    "cross_core_wb",
    # Added with the orchestration layer; the golden pins alarm times,
    # the flip event id, and pre/post-flip capacities from day one.
    "closed_loop_defense",
)


def test_every_library_spec_has_a_golden():
    assert sorted(SPEC_BACKED) == sorted(available_library_specs())
    for experiment_id in SPEC_BACKED:
        assert (GOLDEN_DIR / f"{experiment_id}.quick-seed0.json").is_file()


def test_every_registered_experiment_has_a_golden():
    goldens = sorted(path.name for path in GOLDEN_DIR.glob("*.quick-seed0.json"))
    assert goldens == sorted(
        f"{experiment_id}.quick-seed0.json"
        for experiment_id in available_experiments()
    )


@pytest.mark.parametrize("experiment_id", available_experiments())
def test_spec_rebased_experiment_matches_golden(experiment_id):
    golden_path = GOLDEN_DIR / f"{experiment_id}.quick-seed0.json"
    golden = golden_path.read_text(encoding="utf-8")
    result = run_experiment(experiment_id, profile="quick", seed=0)
    assert result.to_json(indent=2) + "\n" == golden, (
        f"{experiment_id}: output drifted from the committed golden "
        f"({golden_path.name})"
    )
