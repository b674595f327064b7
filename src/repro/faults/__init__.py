"""Seeded, deterministic fault injection (``repro.faults``).

Perturbs a running channel and the simulator around it — descheduling
windows, co-runner bursts, threshold drift, dropped/duplicated probe
windows — and the runner itself (worker crashes and hangs).  Everything
is a pure function of a seed: the ``fault_tolerance`` experiment and the
parity suite rely on the same seed reproducing the same faults on the
cache core and on the test oracle.

See DESIGN.md ("Fault model and the self-healing protocol") for the
model and :mod:`repro.channels.wb.robust` for the protocol stack that
survives it.
"""

from repro.faults.chaos import (
    CHAOS_CRASH_EXIT,
    CHAOS_MARKER_ENV,
    CHAOS_TASK_ENV,
    crash_once_then_run,
    hang_once_then_run,
)
from repro.faults.fleet import (
    DEFAULT_FLEET_FAULT_SPEC,
    FLEET_FAULT_CLASSES,
    FleetFaultDecision,
    fleet_fault_decision,
)
from repro.faults.injector import (
    CORUNNER_TID,
    CoRunnerProgram,
    apply_measurement_faults,
    desched_plan,
    emit_fault_events,
)
from repro.faults.schedule import FaultSchedule, build_fault_schedule, schedules_equal
from repro.faults.spec import DEFAULT_FAULT_SPEC, FaultSpec

__all__ = [
    "CHAOS_CRASH_EXIT",
    "CHAOS_MARKER_ENV",
    "CHAOS_TASK_ENV",
    "CORUNNER_TID",
    "CoRunnerProgram",
    "DEFAULT_FAULT_SPEC",
    "DEFAULT_FLEET_FAULT_SPEC",
    "FLEET_FAULT_CLASSES",
    "FaultSchedule",
    "FaultSpec",
    "FleetFaultDecision",
    "apply_measurement_faults",
    "build_fault_schedule",
    "fleet_fault_decision",
    "crash_once_then_run",
    "desched_plan",
    "emit_fault_events",
    "hang_once_then_run",
    "schedules_equal",
]
