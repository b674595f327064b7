"""Registry of all reproduced tables and figures."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.common.errors import ConfigurationError
from repro.experiments.base import ExperimentResult
from repro.experiments.profiles import ProfileLike, resolve_profile
from repro.experiments import (
    ablation_errors,
    ablation_replacement_set,
    closed_loop,
    cross_core,
    defenses_exp,
    extension_3bit,
    extension_l2,
    fault_tolerance,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    online_detection,
    random_policy,
    sidechannel_exp,
    stability,
    table2,
    table4,
    table5,
    table6,
    table7,
)

#: ``run(profile, seed)`` callables keyed by experiment id.
_EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "table2": table2.run,
    "table4": table4.run,
    "table5": table5.run,
    "table6": table6.run,
    "table7": table7.run,
    "fig4": fig4.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "random_policy": random_policy.run,
    "stability": stability.run,
    "defenses": defenses_exp.run,
    "sidechannel": sidechannel_exp.run,
    "online_detection": online_detection.run,
    # Extensions and ablations beyond the paper's own evaluation.
    "extension_3bit": extension_3bit.run,
    "extension_l2": extension_l2.run,
    "cross_core_wb": cross_core.run,
    "closed_loop_defense": closed_loop.run,
    "fault_tolerance": fault_tolerance.run,
    "ablation_errors": ablation_errors.run,
    "ablation_replacement_set": ablation_replacement_set.run,
}


def available_experiments() -> List[str]:
    """Ids accepted by :func:`run_experiment`, in canonical order."""
    return list(_EXPERIMENTS)


def run_experiment(
    experiment_id: str,
    profile: ProfileLike = None,
    seed: int = 0,
    *,
    quick: Optional[bool] = None,
) -> ExperimentResult:
    """Run one experiment by id.

    ``profile`` selects repetition counts (see
    :mod:`repro.experiments.profiles`).  The removed legacy ``quick=``
    flag raises a :class:`TypeError` pointing at ``RunProfile``.
    """
    resolved = resolve_profile(profile, quick=quick)
    try:
        runner = _EXPERIMENTS[experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; available: "
            f"{', '.join(available_experiments())}"
        )
    # Every hierarchy constructed inside the telemetry session block —
    # directly or through the channel testbench — attaches to the session
    # bus, and the observed summary rides back in the params (hence into
    # run manifests).
    from repro.telemetry.session import telemetry_session

    with telemetry_session(enabled=resolved.telemetry) as session:
        result = runner(profile=resolved, seed=seed)
    if session is not None:
        summary = session.summary()
        trace_dir = session.config.trace_out
        if trace_dir:
            import os

            os.makedirs(trace_dir, exist_ok=True)
            trace_path = os.path.join(
                trace_dir, f"{experiment_id}-seed{seed}.jsonl"
            )
            summary["trace_path"] = trace_path
            summary["trace_events"] = session.export_trace(trace_path)
        result.params["telemetry"] = summary
    return result


def run_all(
    profile: ProfileLike = None, seed: int = 0, *, quick: Optional[bool] = None
) -> List[ExperimentResult]:
    """Run every registered experiment in order, in this process.

    For multi-core execution with persisted manifests use
    :func:`repro.runner.run_experiments` instead.
    """
    resolved = resolve_profile(profile, quick=quick)
    return [
        run_experiment(experiment_id, profile=resolved, seed=seed)
        for experiment_id in available_experiments()
    ]
