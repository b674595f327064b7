"""Run any scenario spec to a generic :class:`ExperimentResult`.

:func:`run_scenario` is the service-facing entry point: it compiles the
spec, executes it under the profile's telemetry context (the same
wrapping :func:`repro.experiments.run_experiment` applies) and shapes the
measurement into a kind-generic result table whose ``experiment_id`` is
``scenario:<name>``.  The registered experiments keep their own bespoke
shaping on top of the same compiled measurements.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.units import cycles_to_kbps
from repro.experiments.base import ExperimentResult
from repro.experiments.profiles import ProfileLike, resolve_profile
from repro.scenario.compile import (
    BerSweepMeasurement,
    DefenseEvalMeasurement,
    FaultSweepMeasurement,
    LevelCompareMeasurement,
    compile_scenario,
)
from repro.scenario.spec import ScenarioSpec, scenario_key

#: Prefix distinguishing scenario jobs from registered experiment ids in
#: job records, manifests and metrics labels.
SCENARIO_ID_PREFIX = "scenario:"


def scenario_experiment_id(spec: ScenarioSpec) -> str:
    """The experiment-id-shaped label of a scenario job."""
    return f"{SCENARIO_ID_PREFIX}{spec.name}"


def _shape_wb_ber_sweep(spec, measurement: BerSweepMeasurement, seed):
    bits = measurement.bits_per_symbol
    if measurement.d_values is not None:
        value_columns = [f"d={d}" for d in measurement.d_values]
        series = {
            f"ber_d{entry.d}": [entry.curve[p] for p in measurement.periods]
            for entry in measurement.curves
        }
    else:
        value_columns = ["BER"]
        series = {
            "ber": [measurement.curves[0].curve[p] for p in measurement.periods]
        }
    rows: List[List[object]] = []
    for period in measurement.periods:
        rows.append(
            [period, f"{cycles_to_kbps(period, bits):.0f}"]
            + [f"{entry.curve[period]:.2%}" for entry in measurement.curves]
        )
    return {
        "columns": ["Ts (cycles)", "rate (Kbps)"] + value_columns,
        "rows": rows,
        "series": series,
        "params": {
            "messages_per_point": measurement.messages,
            "message_bits": measurement.message_bits,
            "seed": seed,
        },
    }


def _shape_wb_trace(spec, result, seed):
    codec = spec.channel.codec.build()
    rows = [
        [level, f"{median:.0f}"]
        for level, median in zip(sorted(codec.levels), result.decoder.medians)
    ]
    return {
        "columns": ["dirty lines (d)", "median latency (cy)"],
        "rows": rows,
        "series": {
            "trace": [latency for _, latency in result.samples],
            "thresholds": list(result.decoder.thresholds),
            "sent_bits": list(result.sent_bits),
            "received_bits": list(result.received_bits),
        },
        "params": {
            "period_cycles": result.period_cycles,
            "ber": result.bit_error_rate,
            "rate_kbps": result.rate_kbps,
            "seed": seed,
        },
    }


def _shape_wb_level_compare(spec, measurement: LevelCompareMeasurement, seed):
    rows = [
        [
            point.level,
            point.period_cycles,
            f"{point.rate_kbps:.0f}",
            f"{point.ber:.2%}",
        ]
        for point in measurement.points
    ]
    return {
        "columns": ["level", "Ts (cycles)", "rate (Kbps)", "BER"],
        "rows": rows,
        "series": {"ber": [point.ber for point in measurement.points]},
        "params": {
            "messages_per_point": measurement.messages,
            "message_bits": measurement.message_bits,
            "seed": seed,
        },
    }


def _shape_wb_fault_sweep(spec, measurement: FaultSweepMeasurement, seed):
    rows = [
        [
            f"{point.intensity:.1f}",
            f"{point.raw_ber:.2%}",
            f"{point.intact_count}/{point.runs}",
            f"{point.mean_rounds:.1f}",
            f"{point.mean_retransmissions:.1f}",
            f"{point.mean_goodput_kbps:.0f}",
        ]
        for point in measurement.points
    ]
    return {
        "columns": [
            "intensity",
            "raw BER",
            "hardened intact",
            "rounds",
            "retransmissions",
            "goodput (Kbps)",
        ],
        "rows": rows,
        "series": {
            "raw_ber": [point.raw_ber for point in measurement.points],
            "goodput_kbps": [
                point.mean_goodput_kbps for point in measurement.points
            ],
        },
        "params": {
            "intensities": list(measurement.intensities),
            "runs_per_point": measurement.runs_per_point,
            "demonstration": measurement.demonstration,
            "fault_spec": spec.params.fault.to_dict(),
            "seed": seed,
        },
    }


def _shape_online_detection(spec, measurement, seed):
    rows = []
    for name in measurement.detector_names:
        rates = measurement.rates[name]
        rows.append(
            [name, f"{measurement.thresholds[name]:.2f}"]
            + [f"{rates[s]:.1%}" for s in measurement.suspects]
        )
    return {
        "columns": ["detector", "threshold"]
        + [f"{s} flagged" for s in measurement.suspects],
        "rows": rows,
        "series": measurement.series,
        "params": {
            "num_symbols": measurement.num_symbols,
            "detection_rates": measurement.rates,
            "stealth_holds": measurement.stealth_holds,
            "seed": seed,
        },
    }


def _shape_defense_eval(spec, measurement: DefenseEvalMeasurement, seed):
    rows = []
    for report in measurement.reports:
        naive = "no signal" if report.naive_ber is None else f"{report.naive_ber:.1%}"
        adaptive = "-" if report.adaptive_ber is None else f"{report.adaptive_ber:.1%}"
        rows.append(
            [
                report.name,
                naive,
                adaptive,
                "ALIVE" if report.channel_alive else "mitigated",
                f"x{report.overhead_ratio:.3f}",
            ]
        )
    return {
        "columns": ["defense", "naive BER", "adaptive BER", "verdict", "overhead"],
        "rows": rows,
        "series": {},
        "params": {"seeds": list(measurement.seeds)},
    }


def _shape_cross_core_wb(spec, measurement, seed):
    rows = [
        [
            name,
            f"{measurement.thresholds[name]:.2f}",
            f"{measurement.alarm_rates[name]:.1%}",
        ]
        for name in measurement.detector_names
    ]
    return {
        "columns": ["detector", "threshold", "channel flagged"],
        "rows": rows,
        "series": measurement.series,
        "params": {
            "cores": measurement.cores,
            "messages": measurement.messages,
            "message_bits": measurement.message_bits,
            "rate_kbps": measurement.rate_kbps,
            "mean_ber": measurement.mean_ber,
            "all_payloads_intact": measurement.all_payloads_intact,
            "coherence": measurement.coherence,
            "alarm_rates": measurement.alarm_rates,
            "stealth_holds": measurement.stealth_holds,
            "seed": seed,
        },
    }


def _shape_closed_loop_defense(spec, measurement, seed):
    rows = []
    for suspect in measurement.suspects:
        outcome = measurement.outcomes[suspect]
        pre = outcome.pre
        post = outcome.post
        rows.append(
            [
                suspect,
                "-" if outcome.alarm_time is None else str(outcome.alarm_time),
                "-" if outcome.flip_time is None else str(outcome.flip_time),
                "-" if pre is None else f"{pre.capacity:.3f}",
                "-" if post is None else f"{post.capacity:.3f}",
                "-" if pre is None else f"{pre.ber:.1%}",
                "-" if post is None else f"{post.ber:.1%}",
            ]
        )
    outcomes = {
        suspect: {
            "alarm_time": outcome.alarm_time,
            "alarm_sources": list(outcome.alarm_sources),
            "flip_time": outcome.flip_time,
            "flip_event_id": outcome.flip_event_id,
            "boundary_symbol": outcome.boundary_symbol,
            "payload_intact": outcome.payload_intact,
            "stream_events": outcome.stream_events,
            "stream_dropped": outcome.stream_dropped,
            "pre": None
            if outcome.pre is None
            else {
                "symbols": outcome.pre.symbols,
                "errors": outcome.pre.errors,
                "ber": outcome.pre.ber,
                "capacity": outcome.pre.capacity,
            },
            "post": None
            if outcome.post is None
            else {
                "symbols": outcome.post.symbols,
                "errors": outcome.post.errors,
                "ber": outcome.post.ber,
                "capacity": outcome.post.capacity,
            },
        }
        for suspect, outcome in measurement.outcomes.items()
    }
    return {
        "columns": [
            "suspect",
            "alarm clock",
            "flip clock",
            "pre capacity",
            "post capacity",
            "pre BER",
            "post BER",
        ],
        "rows": rows,
        "series": measurement.series,
        "params": {
            "num_symbols": measurement.num_symbols,
            "defense": measurement.defense,
            "fusion_rule": measurement.fusion_rule,
            "thresholds": measurement.thresholds,
            "outcomes": outcomes,
            "asymmetry_holds": measurement.asymmetry_holds,
            "seed": seed,
        },
    }


_SHAPERS = {
    "wb_ber_sweep": _shape_wb_ber_sweep,
    "wb_trace": _shape_wb_trace,
    "wb_level_compare": _shape_wb_level_compare,
    "wb_fault_sweep": _shape_wb_fault_sweep,
    "online_detection": _shape_online_detection,
    "defense_eval": _shape_defense_eval,
    "cross_core_wb": _shape_cross_core_wb,
    "closed_loop_defense": _shape_closed_loop_defense,
}


def run_scenario(
    spec: ScenarioSpec, *, profile: ProfileLike = None, seed: int = 0
) -> ExperimentResult:
    """Compile, execute and shape one scenario spec.

    The run happens inside the profile's telemetry context, mirroring
    :func:`repro.experiments.run_experiment`, so scenario jobs behave
    identically to registered experiments under the service.
    """
    from repro.telemetry.session import telemetry_session

    resolved = resolve_profile(profile)
    compiled = compile_scenario(spec, resolved, seed)
    with telemetry_session(enabled=resolved.telemetry) as session:
        measurement = compiled.measure()
    shaped = _SHAPERS[spec.kind](spec, measurement, seed)
    params: Dict[str, object] = dict(shaped["params"])
    params["scenario"] = {
        "name": spec.name,
        "kind": spec.kind,
        "key": scenario_key(spec),
    }
    if session is not None:
        params["telemetry"] = session.summary()
    return ExperimentResult(
        experiment_id=scenario_experiment_id(spec),
        title=spec.title or f"Scenario {spec.name}",
        paper_reference=spec.paper_reference or "declarative scenario",
        columns=shaped["columns"],
        rows=shaped["rows"],
        params=params,
        series=shaped["series"],
        notes=spec.description,
    )


def run_scenario_json(
    scenario_json: str, *, profile: ProfileLike = None, seed: int = 0
) -> ExperimentResult:
    """Entry point for runner tasks carrying a serialised spec."""
    return run_scenario(
        ScenarioSpec.from_json(scenario_json), profile=profile, seed=seed
    )
