"""Fleet-scale cluster simulation.

Scales the single-machine substrate to many heterogeneous machines behind
a pluggable backend abstraction (:mod:`repro.fleet.backend`), with a
trace-driven scheduler (:mod:`repro.fleet.scheduler`) that reads
(app x machine x worker-set) candidate scores from a table keyed by
machine state, solving the cells a tick meets for the first time in one
vectorised :func:`repro.memsim.solve_batch_fleet_lazy` call.
"""

from repro.fleet.cluster import FleetNode, build_fleet, parse_mix
from repro.topology import class_machine, machine_classes, register_machine_class
from repro.fleet.backend import (
    FleetCompletion,
    FlowBackend,
    MachineBackend,
    SimBackend,
    canonical_for,
    machine_seed,
    make_backend,
)
from repro.fleet.faults import (
    FleetFaultInjector,
    FleetFaultPlan,
    HealthTracker,
    MachineCrash,
    MachineDegradation,
    as_fleet_injector,
    chaos_plan,
)
from repro.fleet.scheduler import (
    RECOVERIES,
    FleetResult,
    FleetScheduler,
    SchedulerConfig,
)

__all__ = [
    "FleetNode",
    "build_fleet",
    "class_machine",
    "machine_classes",
    "parse_mix",
    "register_machine_class",
    "FleetCompletion",
    "FlowBackend",
    "MachineBackend",
    "SimBackend",
    "canonical_for",
    "machine_seed",
    "make_backend",
    "FleetFaultInjector",
    "FleetFaultPlan",
    "HealthTracker",
    "MachineCrash",
    "MachineDegradation",
    "as_fleet_injector",
    "chaos_plan",
    "RECOVERIES",
    "FleetResult",
    "FleetScheduler",
    "SchedulerConfig",
]
