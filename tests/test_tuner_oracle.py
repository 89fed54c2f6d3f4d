"""The one DWP tuner against the two-family reference, bitwise.

``tests/oracle/hardened_tuner.py`` keeps the climb as it was built before
the fault defences were folded into :class:`repro.core.dwp.DWPTuner`: a
plain class family with hook methods, and a mixin overriding them. Every
combination of defence config, solo or co-scheduled run and fault plan
must give the same trajectory, final DWP, defence counters, migration
statistics and execution time from either.

The reference keeps the rollback watchdog that the production tuner
dropped, armed at its old default (``k=3``, margin 0.02) or, for the
``watchdog`` config, at ``k=2``: the runs still agree, rollbacks included,
and a property test drives the reference's decision step directly to show
that the watchdog cannot fire.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # The production tuner has no watchdog; the reference arms its own at
    # k=2 here (every other armed config runs it at the old default k=3).
    "watchdog": HardeningConfig(),
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


def _run(machine, canonical, name, cosched, plan, *, reference):
    hardening = HARDENINGS[name]
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
            extra["watchdog_k"] = 2 if name == "watchdog" else 3
            extra["watchdog_margin"] = 0.02
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
    args = (mach_b, canonical_b, hardening, cosched, PLANS[plan])
    got, _ = _run(*args, reference=False)
    want, _ = _run(*args, reference=True)
    assert got == want


def test_each_defence_acts_in_the_grid(mach_b, canonical_b):
    """The grid above is only a check if its configs make the defences act."""

    def run(hardening, plan, reference=False):
        return _run(
            mach_b, canonical_b, hardening, False, PLANS[plan], reference=reference
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
    # The reference's watchdog is armed: it keeps a last-known-good
    # snapshot, so the grid compares a live watchdog against none.
    assert run("watchdog", "default-plan", reference=True)[1]._snapshot is not None


class _ScriptedReference(oracle.HardenedDWPTuner):
    """The reference climb with its stall reads scripted and its page
    writes dropped: everything else is the reference's decision step."""

    def __init__(self, stalls, **kwargs):
        space = SimpleNamespace(
            page_nodes=lambda: np.zeros(8, dtype=np.int16),
            assign_pages=lambda indices, nodes: 0,
        )
        app = SimpleNamespace(app_id="B", finished=False, worker_nodes=(0,), space=space)
        super().__init__(app, np.full(4, 0.25), **kwargs)
        self._stalls = iter(stalls)

    def _measure_for(self, sim, app_id):
        return next(self._stalls)

    def _dispatch_migration(self, sim, weights):
        pass


@settings(max_examples=300, deadline=None)
@given(
    stalls=st.lists(st.floats(0.0, 1e12), min_size=1, max_size=60),
    tolerance=st.floats(0.0, 2.0),
    hysteresis=st.floats(0.0, 2.0),
    stop_patience=st.integers(1, 4),
    step=st.sampled_from([0.01, 0.05, 0.1, 0.5]),
    watchdog_k=st.integers(1, 4),
    watchdog_margin=st.floats(0.0, 1.0),
)
def test_reference_watchdog_never_rolls_back(
    stalls, tolerance, hysteresis, stop_patience, step, watchdog_k, watchdog_margin
):
    """Over any non-negative stall sequence the armed watchdog stays idle:
    a step is accepted only below the last accepted stall, so every
    accepted stall is a new best and none can count toward a rollback."""
    tuner = _ScriptedReference(
        stalls,
        step=step,
        tolerance=tolerance,
        hardening=HardeningConfig(
            hysteresis=hysteresis, stop_patience=stop_patience, snr_strikes=0
        ),
        watchdog_k=watchdog_k,
        watchdog_margin=watchdog_margin,
    )
    sim = SimpleNamespace(now=0.0)
    tuner.on_start(sim)
    for _ in stalls:
        if tuner.is_settled():
            break
        sim.now = tuner._next_action
        tuner.on_epoch(sim)
    assert tuner.rollbacks == 0
    assert tuner._worse_streak == 0
