"""The one DWP tuner against the two-family reference, bitwise.

``tests/oracle/hardened_tuner.py`` keeps the climb as it was built before
the fault defences were folded into :class:`repro.core.dwp.DWPTuner`: a
plain class family with hook methods, and a mixin overriding them. Every
combination of defence config, solo or co-scheduled run and fault plan
must give the same trajectory, final DWP, defence counters, migration
statistics and execution time from either.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import HARDENED_PROFILE, HardeningConfig
from repro.core.dwp import CoScheduledDWPTuner, DWPTuner
from repro.engine import Application, Simulator
from repro.faults import DEFAULT_FAULT_PLAN, FaultPlan, MigrationFaultSpec
from repro.memsim import FirstTouch
from repro.perf.counters import MeasurementConfig
from repro.units import MiB
from repro.workloads import swaptions
from repro.workloads.base import WorkloadSpec
from tests.oracle import hardened_tuner as oracle

QUICK = dict(config=MeasurementConfig(n=6, c=1, t=0.1), warmup_s=0.2)

HARDENINGS = {
    "none": None,
    "default": HardeningConfig(),
    "profile": HARDENED_PROFILE,
    "watchdog": HardeningConfig(watchdog_k=2),
    "snr": HardeningConfig(snr_strikes=1, snr_cv_threshold=1e-9),
    # Every round strikes: a co-scheduled climb degrades three rounds into
    # stage 2 only if the handoff cleared stage 1's strikes.
    "snr-late": HardeningConfig(snr_strikes=3, snr_cv_threshold=1e-9),
    "patience": HardeningConfig(stop_patience=2),
    "retry": HardeningConfig(max_retries=2),
}

PLANS = {
    "no-faults": None,
    "default-plan": dataclasses.replace(DEFAULT_FAULT_PLAN, seed=5),
    "rejects": FaultPlan(
        seed=3, migration=MigrationFaultSpec(transient_reject_prob=0.5)
    ),
}


def _workload() -> WorkloadSpec:
    return WorkloadSpec(
        name="t",
        read_bw_node=12.0,
        write_bw_node=2.0,
        private_fraction=0.0,
        latency_weight=0.3,
        shared_bytes=32 * MiB,
        private_bytes_per_thread=0,
        work_bytes=400e9,
    )


def _run(machine, canonical, hardening, cosched, plan, *, reference):
    sim = Simulator(machine, faults=plan)
    workers = (0,)
    if cosched:
        rest = tuple(n for n in machine.node_ids if n not in workers)
        sim.add_app(
            Application(
                "A", swaptions(), machine, rest, policy=FirstTouch(), looping=True
            )
        )
    app = sim.add_app(Application("B", _workload(), machine, workers, policy=None))
    weights = canonical.weights(workers)
    extra = {"high_priority_app_id": "A"} if cosched else {}
    if reference:
        if hardening is None:
            cls = oracle.CoScheduledDWPTuner if cosched else oracle.DWPTuner
        else:
            cls = (
                oracle.HardenedCoScheduledDWPTuner
                if cosched
                else oracle.HardenedDWPTuner
            )
            extra["hardening"] = hardening
    else:
        cls = CoScheduledDWPTuner if cosched else DWPTuner
        extra["hardening"] = hardening
    tuner = sim.add_tuner(cls(app, weights, **extra, **QUICK))
    result = sim.run(max_time=400.0)
    migration = result.migration["B"]
    summary = {
        "trajectory": [
            (s.time_s, s.dwp, s.stall_rate, s.accepted) for s in tuner.trajectory
        ],
        "final_dwp": tuner.final_dwp,
        "settled": tuner.is_settled(),
        "rollbacks": getattr(tuner, "rollbacks", 0),
        "migration_retries": getattr(tuner, "migration_retries", 0),
        "degraded": getattr(tuner, "degraded", False),
        "migration": (
            migration.pages_moved,
            migration.pages_failed,
            migration.rejected_calls,
            migration.retries,
        ),
        "exec_time": result.execution_time("B"),
    }
    return summary, tuner


@pytest.mark.parametrize("plan", list(PLANS), ids=list(PLANS))
@pytest.mark.parametrize("cosched", [False, True], ids=["solo", "cosched"])
@pytest.mark.parametrize("hardening", list(HARDENINGS), ids=list(HARDENINGS))
def test_merged_tuner_matches_reference(mach_b, canonical_b, hardening, cosched, plan):
    args = (mach_b, canonical_b, HARDENINGS[hardening], cosched, PLANS[plan])
    got, _ = _run(*args, reference=False)
    want, _ = _run(*args, reference=True)
    assert got == want


def test_each_defence_acts_in_the_grid(mach_b, canonical_b):
    """The grid above is only a check if its configs make the defences act."""

    def run(hardening, plan):
        return _run(
            mach_b, canonical_b, HARDENINGS[hardening], False, PLANS[plan],
            reference=False,
        )

    def outcome(hardening, plan):
        return run(hardening, plan)[0]

    assert outcome("retry", "rejects")["migration_retries"] > 0
    assert outcome("snr", "no-faults")["degraded"]
    # Stop patience re-measures a non-improved DWP: two rejected decisions
    # in a row at the same DWP, which the unarmed climb never takes.
    steps = outcome("patience", "default-plan")["trajectory"]
    assert any(
        not a[3] and not b[3] and a[1] == b[1] for a, b in zip(steps, steps[1:])
    )
    # The watchdog keeps its last-known-good snapshot only when armed. It
    # cannot roll back inside a climb: each accepted stall beats the
    # previous accepted one, so it is always a new best (the rollback
    # itself is driven directly in test_faults_hardening.py).
    assert run("watchdog", "default-plan")[1]._snapshot is not None
    assert run("none", "default-plan")[1]._snapshot is None
