"""Fault-injection substrate and the hardened tuner stack."""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    HARDENED_PROFILE,
    HardeningConfig,
)
from repro.core.dwp import CoScheduledDWPTuner, DWPTuner
from repro.engine import Application, Simulator
from repro.faults import (
    DEFAULT_FAULT_PLAN,
    CounterNoiseFault,
    FaultInjector,
    FaultPlan,
    LinkFault,
    MigrationDisposition,
    MigrationFaultSpec,
    PhaseShock,
    as_injector,
)
from repro.memsim import FirstTouch
from repro.memsim.migration import MigrationEngine, MigrationStats
from repro.memsim.pages import UNALLOCATED, AddressSpace
from repro.perf.counters import MeasurementConfig
from repro.units import MiB
from repro.workloads import paper_benchmarks, swaptions
from repro.workloads.base import WorkloadSpec
from tests.oracle.hardened_tuner import interleave_write


def uniform_write(n):
    return interleave_write(np.full(n, 1.0 / n), "user")


def node0_write():
    return interleave_write(np.array([1.0, 0.0, 0.0, 0.0]), "user")


def fast_workload(**kw):
    base = dict(
        name="t",
        read_bw_node=12.0,
        write_bw_node=2.0,
        private_fraction=0.0,
        latency_weight=0.3,
        shared_bytes=32 * MiB,
        private_bytes_per_thread=0,
        work_bytes=400e9,
    )
    base.update(kw)
    return WorkloadSpec(**base)


QUICK = dict(config=MeasurementConfig(n=6, c=1, t=0.1), warmup_s=0.2)


class TestFaultPlan:
    def test_null_detection(self):
        assert FaultPlan().is_null
        assert not DEFAULT_FAULT_PLAN.is_null
        assert DEFAULT_FAULT_PLAN.scaled(0.0).is_null

    def test_scaled_grades_intensities(self):
        half = DEFAULT_FAULT_PLAN.scaled(0.5)
        assert half.counter_noise.extra_noise_std == pytest.approx(
            DEFAULT_FAULT_PLAN.counter_noise.extra_noise_std * 0.5
        )
        assert half.migration.page_failure_prob == pytest.approx(
            DEFAULT_FAULT_PLAN.migration.page_failure_prob * 0.5
        )

    def test_scaled_full_intensity_is_identity(self):
        full = DEFAULT_FAULT_PLAN.scaled(1.0)
        assert full.migration == DEFAULT_FAULT_PLAN.migration
        assert full.counter_noise == DEFAULT_FAULT_PLAN.counter_noise

    def test_scaled_rejects_bad_intensities(self):
        import math

        for bad in (-0.5, 1.5, 100.0, math.nan, math.inf, -math.inf, "0.5", None):
            with pytest.raises((ValueError, TypeError)):
                DEFAULT_FAULT_PLAN.scaled(bad)

    def test_validation(self):
        with pytest.raises(ValueError):
            CounterNoiseFault(extra_noise_std=-0.1)
        with pytest.raises(ValueError):
            CounterNoiseFault(spike_prob=1.0)
        with pytest.raises(ValueError):
            MigrationFaultSpec(page_failure_prob=1.5)
        with pytest.raises(ValueError):
            LinkFault(src=0, dst=0, capacity_scale=0.5)
        with pytest.raises(ValueError):
            LinkFault(src=0, dst=1, capacity_scale=0.0)
        with pytest.raises(ValueError):
            LinkFault(src=0, dst=1, capacity_scale=0.5, start_s=2.0, end_s=1.0)
        with pytest.raises(ValueError):
            PhaseShock(demand_scale=0.0)
        with pytest.raises(ValueError):
            DEFAULT_FAULT_PLAN.scaled(-1.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: CounterNoiseFault(extra_noise_std=float("nan")),
            lambda: CounterNoiseFault(extra_noise_std=float("inf")),
            lambda: CounterNoiseFault(spike_prob=0.1, spike_scale=float("nan")),
            lambda: CounterNoiseFault(spike_prob=0.1, spike_scale=float("inf")),
            lambda: CounterNoiseFault(spike_prob=float("nan")),
            lambda: PhaseShock(demand_scale=float("nan")),
            lambda: PhaseShock(demand_scale=float("inf")),
            lambda: PhaseShock(2.0, start_s=float("nan")),
            lambda: LinkFault(0, 1, 0.5, start_s=float("nan")),
            lambda: MigrationFaultSpec(page_failure_prob=float("nan")),
        ],
        ids=[
            "noise-std-nan",
            "noise-std-inf",
            "spike-scale-nan",
            "spike-scale-inf",
            "spike-prob-nan",
            "demand-scale-nan",
            "demand-scale-inf",
            "shock-start-nan",
            "link-start-nan",
            "page-failure-nan",
        ],
    )
    def test_validation_rejects_non_finite(self, build):
        # Each of these used to construct: a NaN shock failed deep inside
        # the contention solve, and NaN noise zeroed every counter read.
        with pytest.raises(ValueError):
            build()

    def test_as_injector_normalisation(self):
        assert as_injector(None) is None
        assert as_injector(FaultPlan()) is None
        inj = as_injector(DEFAULT_FAULT_PLAN)
        assert isinstance(inj, FaultInjector)
        assert as_injector(inj) is inj
        # An injector passed explicitly is kept even over a null plan.
        null = FaultInjector(FaultPlan())
        assert as_injector(null) is null
        with pytest.raises(TypeError):
            as_injector("faults")


class TestFaultInjector:
    def test_deterministic_per_seed(self):
        a = FaultInjector(DEFAULT_FAULT_PLAN)
        b = FaultInjector(DEFAULT_FAULT_PLAN)
        assert [a.perturb_reading(1.0) for _ in range(50)] == [
            b.perturb_reading(1.0) for _ in range(50)
        ]
        da = [a.migration_disposition(100) for _ in range(20)]
        db = [b.migration_disposition(100) for _ in range(20)]
        assert da == db

    def test_streams_are_independent(self):
        # Extra counter reads must not shift the migration fault sequence.
        a = FaultInjector(DEFAULT_FAULT_PLAN)
        b = FaultInjector(DEFAULT_FAULT_PLAN)
        for _ in range(100):
            a.perturb_reading(1.0)
        assert [a.migration_disposition(50) for _ in range(10)] == [
            b.migration_disposition(50) for _ in range(10)
        ]

    def test_disposition_bounds(self):
        inj = FaultInjector(
            FaultPlan(migration=MigrationFaultSpec(page_failure_prob=0.5))
        )
        for _ in range(30):
            d = inj.migration_disposition(40)
            assert 0 <= d.pages_failed <= 40
            assert d.pages_ok == 40 - d.pages_failed
        with pytest.raises(ValueError):
            inj.migration_disposition(-1)

    def test_rejected_disposition_moves_nothing(self):
        d = MigrationDisposition(requested=10, rejected=True, pages_failed=0)
        assert d.pages_ok == 0

    def test_next_event_after(self):
        plan = FaultPlan(
            link_faults=(LinkFault(0, 1, 0.5, start_s=2.0, end_s=4.0),),
            phase_shocks=(PhaseShock(2.0, start_s=3.0, end_s=5.0),),
        )
        inj = FaultInjector(plan)
        assert inj.next_event_after(0.0) == 2.0
        assert inj.next_event_after(2.0) == 3.0
        assert inj.next_event_after(4.5) == 5.0
        assert inj.next_event_after(5.0) is None

    def test_capacity_scale_unknown_link_raises(self, mach_b):
        plan = FaultPlan(link_faults=(LinkFault(0, 99, 0.5),))
        inj = FaultInjector(plan)
        with pytest.raises(KeyError):
            inj.capacity_scale(mach_b, 0.0)

    def test_demand_scale_windows(self):
        plan = FaultPlan(
            phase_shocks=(
                PhaseShock(2.0, start_s=1.0, end_s=3.0, app_id="a"),
                PhaseShock(0.5, start_s=1.0, end_s=3.0),
            )
        )
        inj = FaultInjector(plan)
        assert inj.demand_scale("a", 2.0) == pytest.approx(1.0)  # 2.0 * 0.5
        assert inj.demand_scale("b", 2.0) == pytest.approx(0.5)
        assert inj.demand_scale("a", 4.0) == pytest.approx(1.0)


class TestMeasurementConfigValidation:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            MeasurementConfig(n=0)
        with pytest.raises(ValueError):
            MeasurementConfig(n=10, c=5)
        with pytest.raises(ValueError):
            MeasurementConfig(c=-1)
        with pytest.raises(ValueError):
            MeasurementConfig(t=0.0)

    def test_wall_time(self):
        assert MeasurementConfig(n=20, c=5, t=0.2).wall_time_s == pytest.approx(4.0)


class TestHardeningConfigValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("ewma_samples", 2.0),
            ("ewma_alpha", float("nan")),
            ("hysteresis", float("nan")),
            ("stop_patience", True),
            ("max_retries", 1.0),
            ("retry_backoff_s", float("nan")),
            ("ewma_alpha", 0.0),
            ("snr_strikes", -1),
            ("snr_cv_threshold", float("nan")),
            ("snr_strikes", np.int64(1)),
        ],
    )
    def test_rejects_bad_field(self, field, value):
        # Non-int counts used to pass and raise a TypeError deep inside
        # the run; NaN floats passed every range check.
        with pytest.raises(ValueError, match=field):
            HardeningConfig(**{field: value})

    def test_rejects_infinite_floats(self):
        for field in ("hysteresis", "retry_backoff_s", "snr_cv_threshold"):
            with pytest.raises(ValueError, match=field):
                HardeningConfig(**{field: float("inf")})

    def test_none_arms_no_defence(self, mach_b, canonical_b):
        app = Application("a", fast_workload(), mach_b, (0,), policy=None)
        h = DWPTuner(app, canonical_b.weights((0,))).hardening
        assert (h.max_retries, h.snr_strikes) == (0, 0)
        assert (h.ewma_samples, h.hysteresis, h.stop_patience) == (1, 0.0, 1)


class TestMigrationEngineRecords:
    def test_record_rejects_non_integers(self):
        eng = MigrationEngine()
        with pytest.raises(TypeError):
            eng.record("a", 1.5)
        with pytest.raises(TypeError):
            eng.record_failed("a", 2.0)

    def test_record_rejects_bools(self):
        eng = MigrationEngine()
        for flag in (True, False, np.bool_(True)):
            with pytest.raises(TypeError):
                eng.record("a", flag)
            with pytest.raises(TypeError):
                eng.record_failed("a", flag)
        assert eng.stats("a") == MigrationStats()

    def test_record_rejects_negative(self):
        eng = MigrationEngine()
        with pytest.raises(ValueError):
            eng.record("a", -1)
        with pytest.raises(ValueError):
            eng.record_failed("a", -1)

    def test_fault_counters_accumulate(self):
        eng = MigrationEngine()
        eng.record_failed("a", 3)
        eng.record_failed("a", np.int64(2))
        eng.record_rejection("a")
        eng.record_retry("a")
        s = eng.stats("a")
        assert s.pages_failed == 5
        assert s.rejected_calls == 1
        assert s.retries == 1
        assert s.pages_moved == 0

    def test_fault_free_stats_stay_zero(self):
        eng = MigrationEngine()
        eng.record("a", 10)
        s = eng.stats("a")
        assert (s.pages_failed, s.rejected_calls, s.retries) == (0, 0, 0)


class TestAssignPages:
    def _space(self):
        sp = AddressSpace(4)
        sp.map_segment("s", 8 * sp.page_size)
        sp.set_pages(0, np.full(4, 1))  # pages 0-3 on node 1, 4-7 unallocated
        return sp

    def test_scatter_assign_counts_only_moves(self):
        sp = self._space()
        moved = sp.assign_pages(np.array([0, 1, 4]), np.array([2, 1, 3]))
        # page 0: 1 -> 2 moved; page 1: already 1; page 4: allocation.
        assert moved == 1
        assert sp.page_nodes()[0] == 2
        assert sp.page_nodes()[4] == 3

    def test_empty_assignment(self):
        sp = self._space()
        assert sp.assign_pages(np.empty(0, dtype=int), np.empty(0, dtype=int)) == 0

    def test_validation(self):
        sp = self._space()
        with pytest.raises(ValueError):
            sp.assign_pages(np.array([0, 1]), np.array([1]))
        with pytest.raises(IndexError):
            sp.assign_pages(np.array([99]), np.array([1]))
        with pytest.raises(ValueError):
            sp.assign_pages(np.array([0]), np.array([9]))
        with pytest.raises(ValueError):
            sp.assign_pages(np.array([0]), np.array([UNALLOCATED]))


class TestMigratePlacementFaults:
    def _sim_with_backed_app(self, mach_b, faults=None):
        sim = Simulator(mach_b, faults=faults)
        app = sim.add_app(
            Application("a", fast_workload(), mach_b, (0,), policy=None)
        )
        # Back every page uniformly first: subsequent weight changes are
        # genuine migrations, eligible for injected faults.
        sim.migrate_placement(app, uniform_write(mach_b.num_nodes))
        return sim, app

    def test_initial_allocation_never_faulted(self, mach_b):
        plan = FaultPlan(
            seed=1, migration=MigrationFaultSpec(transient_reject_prob=0.999)
        )
        sim = Simulator(mach_b, faults=plan)
        app = sim.add_app(
            Application("a", fast_workload(), mach_b, (0,), policy=None)
        )
        d = sim.migrate_placement(app, uniform_write(mach_b.num_nodes))
        # First-time backing moves no pages, so nothing can bounce.
        assert d.requested == 0 and not d.rejected
        assert app.space.allocated_pages() > 0

    def test_rejection_reverts_everything(self, mach_b):
        plan = FaultPlan(
            seed=1, migration=MigrationFaultSpec(transient_reject_prob=0.999)
        )
        sim, app = self._sim_with_backed_app(mach_b, faults=plan)
        before = app.space.page_nodes().copy()
        d = sim.migrate_placement(app, node0_write())
        assert d.rejected and d.requested > 0
        assert (app.space.page_nodes() == before).all()
        stats = sim.migration.stats("a")
        assert stats.rejected_calls == 1
        # The bounced call is never charged as a migration.
        assert stats.migration_calls == 0
        assert stats.pages_moved == 0

    def test_page_failures_revert_a_subset(self, mach_b):
        plan = FaultPlan(
            seed=2, migration=MigrationFaultSpec(page_failure_prob=0.4)
        )
        sim, app = self._sim_with_backed_app(mach_b, faults=plan)
        before = app.space.page_nodes().copy()
        d = sim.migrate_placement(app, node0_write())
        assert not d.rejected
        assert 0 < d.pages_failed < d.requested
        after = app.space.page_nodes()
        stats = sim.migration.stats("a")
        assert stats.pages_failed == d.pages_failed
        # Failed pages kept their old nodes; the rest are on node 0.
        assert int((after != before).sum()) == d.pages_ok

    def test_fault_free_disposition_counts_moves(self, mach_b):
        sim, app = self._sim_with_backed_app(mach_b)
        d = sim.migrate_placement(app, node0_write())
        assert not d.rejected and d.pages_failed == 0
        assert d.requested == d.pages_ok > 0


class TestZeroFaultBitwiseIdentity:
    """Default hardening with no faults is the unarmed tuner, bitwise."""

    def _run(self, wl, machine, canonical, hardened):
        sim = Simulator(machine)
        app = sim.add_app(Application("B", wl, machine, (0, 1), policy=None))
        weights = canonical.weights((0, 1))
        hardening = HardeningConfig() if hardened else None
        tuner = DWPTuner(app, weights, hardening=hardening, **QUICK)
        sim.add_tuner(tuner)
        res = sim.run()
        return tuner, res

    @pytest.mark.parametrize("wl", paper_benchmarks(), ids=lambda w: w.name)
    def test_table1_suite_identical(self, wl, mach_a, canonical_a):
        t_plain, r_plain = self._run(wl, mach_a, canonical_a, hardened=False)
        t_hard, r_hard = self._run(wl, mach_a, canonical_a, hardened=True)
        assert [
            (s.time_s, s.dwp, s.stall_rate, s.accepted) for s in t_plain.trajectory
        ] == [(s.time_s, s.dwp, s.stall_rate, s.accepted) for s in t_hard.trajectory]
        assert r_plain.sim_time == r_hard.sim_time
        assert t_plain.final_dwp == t_hard.final_dwp
        assert not t_hard.degraded

    def test_null_plan_equals_no_plan(self, mach_a):
        from repro.experiments.common import run_scenario

        wl = paper_benchmarks()[0]
        base = run_scenario(mach_a, wl, 2, "bwap", seed=7)
        # A live injector over the null plan runs every fault hook.
        nulled = run_scenario(
            mach_a,
            wl,
            2,
            "bwap",
            seed=7,
            faults=FaultInjector(DEFAULT_FAULT_PLAN.scaled(0.0)),
        )
        assert base == nulled


class TestHardenedDefences:
    def _hardened(self, mach_b, canonical_b, hardening):
        sim = Simulator(mach_b)
        app = sim.add_app(
            Application("a", fast_workload(), mach_b, (0,), policy=None)
        )
        tuner = sim.add_tuner(
            DWPTuner(app, canonical_b.weights((0,)), hardening=hardening, **QUICK)
        )
        tuner.on_start(sim)
        return sim, app, tuner

    def test_snr_degradation_to_uniform_workers(self, mach_b, canonical_b):
        sim, app, tuner = self._hardened(
            mach_b,
            canonical_b,
            HardeningConfig(snr_strikes=1, snr_cv_threshold=1e-9),
        )
        sim.counters.update("a", stall_rate=1e9, throughput_gbps=1.0)
        tuner._measure(sim, "a")
        assert tuner._cv_strikes >= 1
        assert not tuner._defend(sim, improved=True)
        assert tuner.degraded
        assert tuner.is_settled()
        # Uniform-workers with one worker: every backed page on node 0.
        nodes = app.space.page_nodes()
        assert (nodes[nodes != UNALLOCATED] == 0).all()

    def test_stop_patience_holds_the_climb(self, mach_b, canonical_b):
        sim, app, tuner = self._hardened(
            mach_b, canonical_b, HardeningConfig(stop_patience=2)
        )
        tuner._defend(sim, improved=True)
        # First non-improvement at DWP < 1 re-measures instead of stopping.
        assert not tuner._defend(sim, improved=False)
        assert not tuner.is_settled()
        # Second consecutive non-improvement lets the base tuner stop.
        assert tuner._defend(sim, improved=False)

    def test_retry_after_transient_rejection(self, mach_b, canonical_b):
        plan = FaultPlan(
            seed=1, migration=MigrationFaultSpec(transient_reject_prob=0.999)
        )
        sim = Simulator(mach_b, faults=plan)
        app = sim.add_app(
            Application("a", fast_workload(), mach_b, (0,), policy=None)
        )
        tuner = sim.add_tuner(
            DWPTuner(
                app,
                canonical_b.weights((0,)),
                hardening=HardeningConfig(max_retries=2),
                **QUICK,
            )
        )
        tuner.on_start(sim)  # initial backing: allocations, never rejected
        tuner._apply(sim, 0.5)
        assert tuner._pending_retry is not None
        assert sim.migration.stats("a").rejected_calls == 1
        tuner._next_action = sim.now  # the next decision point is due
        assert not tuner._ready(sim)  # replays the batch instead of measuring
        assert tuner.migration_retries == 1
        assert sim.migration.stats("a").retries == 1


class TestCoScheduledStageTransition:
    def _cosched(self, mach_b, canonical_b, tuner_cls, **kwargs):
        sim = Simulator(mach_b)
        workers = (0,)
        rest = tuple(n for n in mach_b.node_ids if n not in workers)
        sim.add_app(
            Application(
                "A", swaptions(), mach_b, rest, policy=FirstTouch(), looping=True
            )
        )
        app = sim.add_app(
            Application("B", fast_workload(), mach_b, workers, policy=None)
        )
        tuner = sim.add_tuner(
            tuner_cls(app, canonical_b.weights(workers), "A", **QUICK, **kwargs)
        )
        return sim, tuner

    def test_hardened_handoff_resets_search_state(self, mach_b, canonical_b):
        calls = []

        class Spy(CoScheduledDWPTuner):
            def on_epoch(self, sim):
                stage1 = self.stage == 1
                before = self._cv_strikes
                super().on_epoch(sim)
                if stage1 and self.stage == 2:
                    calls.append((before, self._cv_strikes))

        # Every round strikes, and too many strikes are needed to degrade:
        # stage 1 piles up strikes that only the handoff can flush.
        hardening = HardeningConfig(snr_cv_threshold=1e-9, snr_strikes=1000)
        sim, tuner = self._cosched(mach_b, canonical_b, Spy, hardening=hardening)
        sim.run()
        assert tuner.stage == 2
        assert tuner.is_settled()
        assert len(calls) == 1  # exactly one handoff
        before, after = calls[0]
        assert before > 0
        assert after == 0  # A's history flushed before stage 2

    def test_never_stabilising_high_priority_app_caps_at_dwp_one(
        self, mach_b, canonical_b
    ):
        # A degenerate co-runner whose stall "improves" forever: stage 1
        # must still terminate (the DWP scale is exhausted) and hand over.
        class FakeA(CoScheduledDWPTuner):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._fake = iter(1e12 / 2**i for i in range(64))

            def _measure(self, sim, app_id):
                if app_id == self.high_priority_app_id:
                    return next(self._fake)
                return super()._measure(sim, app_id)

        sim, tuner = self._cosched(mach_b, canonical_b, FakeA)
        sim.run()
        assert tuner.stage == 2
        assert tuner.dwp == pytest.approx(1.0)
        assert tuner.is_settled()

    def test_hardened_cosched_settles_under_faults(self, mach_b, canonical_b):
        sim = Simulator(mach_b, faults=dataclasses.replace(DEFAULT_FAULT_PLAN, seed=5))
        workers = (0,)
        rest = tuple(n for n in mach_b.node_ids if n not in workers)
        sim.add_app(
            Application(
                "A", swaptions(), mach_b, rest, policy=FirstTouch(), looping=True
            )
        )
        app = sim.add_app(
            Application("B", fast_workload(), mach_b, workers, policy=None)
        )
        tuner = sim.add_tuner(
            CoScheduledDWPTuner(
                app,
                canonical_b.weights(workers),
                "A",
                hardening=HARDENED_PROFILE,
                **QUICK,
            )
        )
        sim.run()
        assert tuner.is_settled()
        assert 0.0 <= tuner.final_dwp <= 1.0


class TestScenarioFaultPlumbing:
    def test_run_outcome_fault_fields_default_zero(self):
        from repro.experiments.common import RunOutcome

        o = RunOutcome(
            exec_time_s=1.0, mean_stall=0.1, throughput_gbps=2.0, pages_moved=3
        )
        assert o.pages_failed == 0
        assert o.migration_rejections == 0
        assert o.migration_retries == 0
        assert o.degraded is False

    def test_run_scenario_reports_fault_activity(self, mach_a):
        from repro.experiments.common import run_scenario

        wl = dataclasses.replace(paper_benchmarks()[0], work_bytes=200e9)
        out = run_scenario(mach_a, wl, 2, "bwap", seed=7, faults=DEFAULT_FAULT_PLAN)
        assert out.pages_failed > 0

    def test_spec_carries_fault_plan(self, mach_a):
        from repro.experiments.common import ScenarioSpec, run_spec

        wl = dataclasses.replace(paper_benchmarks()[0], work_bytes=200e9)
        spec = ScenarioSpec(
            machine="A",
            workload=wl,
            num_workers=2,
            policy="bwap",
            seed=7,
            fault_plan=DEFAULT_FAULT_PLAN,
        )
        out = run_spec(spec)
        assert out.pages_failed > 0


class TestFaultMatrixAggregation:
    def _outcome(self, dwp, **kw):
        from repro.experiments.common import RunOutcome

        base = dict(
            exec_time_s=1.0,
            mean_stall=0.1,
            throughput_gbps=1.0,
            pages_moved=10,
            final_dwp=dwp,
        )
        base.update(kw)
        return RunOutcome(**base)

    def test_cell_and_summary_metrics(self):
        from repro.experiments.fault_matrix import FaultCell, FaultMatrixResult

        cells = {
            ("SC", 1.0, "plain"): FaultCell(
                "SC", 1.0, "plain",
                (self._outcome(0.1), self._outcome(0.5)),
            ),
            ("SC", 1.0, "hardened"): FaultCell(
                "SC", 1.0, "hardened",
                (self._outcome(0.3), self._outcome(0.4, migration_retries=1)),
            ),
        }
        r = FaultMatrixResult(
            opt_dwp={"SC": 0.3}, cells=cells, step=0.1, fault_seeds=(0, 1)
        )
        plain = r.cell("SC", 1.0, "plain")
        assert plain.dwp_errors(0.3) == pytest.approx([0.2, 0.2])
        assert plain.converged(0.3, 0.1) == 0
        hard = r.cell("SC", 1.0, "hardened")
        assert hard.converged(0.3, 0.1) == 2
        assert hard.retries == 1
        assert r.benchmarks_within_one_step("hardened", 1.0) == 1
        assert r.benchmarks_diverged("plain", 1.0) == ["SC"]
        text = r.render()
        assert "hardened within 1 step on 1/1" in text
        assert "plain diverges on SC" in text


class TestLinkAndPhaseFaults:
    def _run(self, mach_b, faults=None):
        sim = Simulator(mach_b, faults=faults)
        sim.add_app(
            Application(
                "a",
                fast_workload(work_bytes=100e9),
                mach_b,
                (0, 1),
                policy=FirstTouch(),
            )
        )
        return sim.run().execution_time("a")

    def test_link_degradation_slows_execution(self, mach_b):
        base = self._run(mach_b)
        degraded = self._run(
            mach_b,
            FaultPlan(link_faults=(LinkFault(0, 1, 0.05), LinkFault(1, 0, 0.05))),
        )
        assert degraded > base

    def test_phase_shock_burst_changes_outcome(self, mach_b):
        base = self._run(mach_b)
        shocked = self._run(
            mach_b,
            FaultPlan(phase_shocks=(PhaseShock(3.0, start_s=1.0, end_s=4.0),)),
        )
        assert shocked != base

    def test_windows_expire(self, mach_b):
        # A window entirely before the interesting run region still leaves
        # the run deterministic and completes.
        t = self._run(
            mach_b,
            FaultPlan(
                link_faults=(LinkFault(0, 1, 0.5, start_s=0.0, end_s=0.001),)
            ),
        )
        assert t > 0
