"""Fleet fault tolerance: plans, the injector, recovery, SLO accounting.

The load-bearing properties, mirroring ``benchmarks/bench_fleet_chaos.py``:

1. **Zero-fault identity** — ``faults=None`` and a zero-intensity plan
   produce byte-for-byte the same run (every fault hook is gated on the
   injector).
2. **Production == reference under faults** — crashes, brown-outs, and
   lossy admission never diverge the state-keyed tick from the
   exhaustive greedy of ``tests/oracle/exhaustive_tick.py`` (one scalar
   solve per candidate; the test names call it "scalar"), because fault
   draws happen in decision order, which both share.
3. **Recovery semantics** — ``recovery="none"`` strands crashed work,
   ``"requeue"`` completes it, ``"requeue+checkpoint"`` completes it
   while redoing strictly less work.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.experiments.fleet import (
    FleetSpec,
    fleet_fingerprint,
    outcome_from_result,
    run_fleet_spec,
)
from repro.experiments.fleet_chaos import assert_zero_fault_identity
from repro.fleet import (
    FleetFaultInjector,
    FleetFaultPlan,
    FleetScheduler,
    HealthTracker,
    MachineCrash,
    MachineDegradation,
    SchedulerConfig,
    as_fleet_injector,
    build_fleet,
    chaos_plan,
    class_machine,
)
from repro.fleet.faults import _DRAW_BLOCK
from repro.memsim.contention import (
    consumer_rows,
    machine_tables,
    solve,
    solve_batch_fleet_lazy,
)
from repro.memsim.flows import Consumer
from repro.store import ResultStore
from repro.workloads import TraceSpec, build_trace

from tests.oracle.exhaustive_tick import OracleScheduler

#: Four machines (mids 0..3) across two classes.
_MIX = (("A", 2), ("B", 2))


def _plan() -> FleetFaultPlan:
    """Every fault kind at once: two transient crashes, one permanent
    failure, one brown-out, lossy admission and completion reporting."""
    return FleetFaultPlan(
        seed=5,
        crashes=(
            MachineCrash(0, 40.0, 90.0),
            MachineCrash(1, 120.0),  # permanent
            MachineCrash(2, 30.0, 55.0),
        ),
        degradations=(MachineDegradation(3, 0.4, 20.0, 160.0),),
        admission_reject_prob=0.1,
        lost_completion_prob=0.3,
    )


def _trace_spec(arrivals: int = 30) -> TraceSpec:
    return TraceSpec(kind="poisson", rate_per_s=1.0, arrivals=arrivals, seed=5)


def _run(recovery, faults, *, cls=FleetScheduler, backend="flow", arrivals=30):
    config = SchedulerConfig(
        backend=backend,
        tick_s=2.0,
        recovery=recovery,
        retry_backoff_s=5.0,
    )
    return cls(
        build_fleet(_MIX),
        build_trace(_trace_spec(arrivals)),
        config,
        seed=11,
        faults=faults,
    ).run(1_000_000.0)


# --------------------------------------------------------------------- #
# Plans
# --------------------------------------------------------------------- #


class TestPlanValidation:
    def test_crash_window_validation(self):
        with pytest.raises(ValueError, match="mid"):
            MachineCrash(-1, 0.0, 1.0)
        with pytest.raises(ValueError, match="start_s"):
            MachineCrash(0, -1.0, 5.0)
        with pytest.raises(ValueError, match="start_s"):
            MachineCrash(0, 5.0, 5.0)
        permanent = MachineCrash(0, 5.0)
        assert permanent.end_s == math.inf
        assert permanent.active_at(1e12)
        assert not permanent.active_at(4.9)

    def test_degradation_validation(self):
        with pytest.raises(ValueError, match="capacity_scale"):
            MachineDegradation(0, 0.0)
        with pytest.raises(ValueError, match="capacity_scale"):
            MachineDegradation(0, 1.5)
        with pytest.raises(ValueError, match="start_s"):
            MachineDegradation(0, 0.5, 10.0, 10.0)
        d = MachineDegradation(0, 1.0)  # boundary: scale 1 is legal
        assert d.active_at(0.0)

    def test_probability_validation(self):
        for bad in (1.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="admission_reject_prob"):
                FleetFaultPlan(admission_reject_prob=bad)
            with pytest.raises(ValueError, match="lost_completion_prob"):
                FleetFaultPlan(lost_completion_prob=bad)

    def test_is_null_and_max_mid(self):
        assert FleetFaultPlan().is_null
        assert FleetFaultPlan().max_mid() == -1
        plan = _plan()
        assert not plan.is_null
        assert plan.max_mid() == 3

    def test_scaled_endpoints(self):
        plan = FleetFaultPlan(
            seed=5,
            crashes=(MachineCrash(0, 40.0, 90.0),),
            degradations=(MachineDegradation(1, 0.5, 20.0, 160.0),),
            admission_reject_prob=0.1,
            lost_completion_prob=0.25,
        )
        assert plan.scaled(0.0).is_null
        assert plan.scaled(0).is_null
        assert plan.scaled(1.0) == plan

    def test_scaled_partial_intensity(self):
        plan = _plan()
        half = plan.scaled(0.5)
        assert len(half.crashes) == round(len(plan.crashes) * 0.5)
        assert half.admission_reject_prob == plan.admission_reject_prob * 0.5
        assert half.lost_completion_prob == plan.lost_completion_prob * 0.5
        (d,) = half.degradations
        assert 0.4 < d.capacity_scale < 1.0  # moved toward 1, not past it

    def test_scaled_rejects_bad_intensities(self):
        plan = _plan()
        for bad in (-0.1, 1.5, math.nan, math.inf, "half"):
            with pytest.raises(ValueError, match="intensity"):
                plan.scaled(bad)

    def test_chaos_plan_deterministic(self):
        a = chaos_plan(16, 100.0, seed=3)
        b = chaos_plan(16, 100.0, seed=3)
        assert a == b
        assert not a.is_null
        assert a != chaos_plan(16, 100.0, seed=4)
        # Crashes arrive sorted and target only fleet machines.
        starts = [(c.start_s, c.mid) for c in a.crashes]
        assert starts == sorted(starts)
        assert a.max_mid() < 16

    def test_chaos_plan_validation(self):
        with pytest.raises(ValueError, match="num_machines"):
            chaos_plan(0, 100.0)
        with pytest.raises(ValueError, match="horizon_s"):
            chaos_plan(4, 0.0)


class TestHealthTracker:
    def test_exponential_cooldown(self):
        ht = HealthTracker(10.0, num_machines=2)
        assert ht.allows(0, 0.0)
        ht.record_crash(0, restart_s=100.0)
        assert ht.crash_count(0) == 1
        assert not ht.allows(0, 105.0)
        assert ht.allows(0, 110.0)
        ht.record_crash(0, restart_s=200.0)  # second crash: 2x cooldown
        assert not ht.allows(0, 219.0)
        assert ht.allows(0, 220.0)
        assert ht.crash_count(0) == 2
        assert ht.allows(1, 0.0)  # untouched machine never blocked

    def test_zero_cooldown_disables_breaker(self):
        ht = HealthTracker(0.0, num_machines=1)
        ht.record_crash(0, restart_s=100.0)
        assert ht.allows(0, 100.0)

    def test_permanent_crash_sets_no_cooldown(self):
        # A machine that never restarts is excluded by the crash window
        # itself; the breaker must not hold an inf-valued block.
        ht = HealthTracker(10.0, num_machines=2)
        ht.record_crash(0, restart_s=math.inf)
        assert ht.allows(0, 1e15)

    def test_negative_cooldown_raises(self):
        with pytest.raises(ValueError, match="cooldown_s"):
            HealthTracker(-1.0, num_machines=1)


# --------------------------------------------------------------------- #
# Injector
# --------------------------------------------------------------------- #


class TestInjector:
    def test_crash_windows(self):
        inj = FleetFaultInjector(_plan())
        assert not inj.crashed_at(0, 39.9)
        assert inj.crashed_at(0, 40.0)
        assert inj.crashed_at(0, 89.9)
        assert not inj.crashed_at(0, 90.0)
        assert inj.crashed_at(1, 1e12)  # permanent
        assert not inj.crashed_at(3, 50.0)  # degraded, not crashed

    def test_crash_starts_in_half_open_sorted(self):
        inj = FleetFaultInjector(_plan())
        hits = inj.crash_starts_in(0.0, 50.0)
        assert [(s, m) for s, m, _e in hits] == [(30.0, 2), (40.0, 0)]
        # Half-open (t0, t1]: the left edge is excluded, the right kept.
        assert inj.crash_starts_in(30.0, 40.0) == [(40.0, 0, 90.0)]
        assert inj.crash_starts_in(40.0, 119.0) == []

    def test_downtime_in(self):
        inj = FleetFaultInjector(_plan())
        assert inj.downtime_in(0, 65.0) == 25.0  # partial overlap
        assert inj.downtime_in(0, 1000.0) == 50.0
        assert inj.downtime_in(1, 220.0) == 100.0  # permanent, capped
        assert inj.downtime_in(3, 1000.0) == 0.0

    def test_degradation_scale_compounds(self):
        plan = FleetFaultPlan(
            degradations=(
                MachineDegradation(0, 0.5, 0.0, 100.0),
                MachineDegradation(0, 0.5, 50.0, 100.0),
            )
        )
        inj = FleetFaultInjector(plan)
        assert inj.degradation_scale(0, 25.0) == 0.5
        assert inj.degradation_scale(0, 75.0) == 0.25
        assert inj.degradation_scale(0, 100.0) == 1.0
        assert inj.degradation_scale(1, 25.0) == 1.0

    def test_capacity_scale_rows(self):
        inj = FleetFaultInjector(_plan())
        machine = class_machine("A")
        tables = machine_tables(machine)
        scale = inj.capacity_scale_for(3, machine, 100.0)
        assert scale is not None and scale.shape == (tables.num_res,)
        for row, res in enumerate(tables.res_keys):
            assert scale[row] == (0.4 if res[0] == "link" else 1.0)
        # Outside the window, and for untargeted machines: no scaling.
        assert inj.capacity_scale_for(3, machine, 160.0) is None
        assert inj.capacity_scale_for(0, machine, 100.0) is None

    def test_sim_fault_plan(self):
        inj = FleetFaultInjector(_plan())
        machine = class_machine("A")
        links = [
            res for res in machine_tables(machine).res_keys if res[0] == "link"
        ]
        sub = inj.sim_fault_plan(3, machine)
        assert sub is not None
        assert len(sub.link_faults) == len(links)
        assert all(f.capacity_scale == 0.4 for f in sub.link_faults)
        assert inj.sim_fault_plan(0, machine) is None

    def test_next_edge_after(self):
        inj = FleetFaultInjector(_plan())
        # Finite edges: 20, 30, 40, 55, 90, 120, 160 (permanent end
        # excluded — it never arrives).
        assert inj.next_edge_after(0.0) == 20.0
        assert inj.next_edge_after(20.0) == 30.0
        assert inj.next_edge_after(120.0) == 160.0
        assert inj.next_edge_after(160.0) is None

    def test_draw_streams_independent_and_deterministic(self):
        # Same plan, interleaved differently: each stream's sequence
        # depends only on its own draw count.
        a = FleetFaultInjector(_plan())
        b = FleetFaultInjector(_plan())
        a_adm = [a.admission_rejected() for _ in range(40)]
        a_lost = [a.completion_lost() for _ in range(40)]
        b_lost = [b.completion_lost() for _ in range(40)]
        b_adm = [b.admission_rejected() for _ in range(40)]
        assert a_adm == b_adm
        assert a_lost == b_lost
        assert any(a_adm) and any(a_lost)  # at p=0.1/0.3 over 40 draws

    def test_buffered_draws_equal_scalar_draws(self):
        """Verdicts served from refilled blocks equal one scalar draw per
        verdict from a fresh ``spawn(2)`` stream, across several refills
        and with the two streams interleaved unevenly."""
        plan = _plan()
        inj = FleetFaultInjector(plan)
        adm, lost = np.random.default_rng(plan.seed).spawn(2)
        n = 5 * _DRAW_BLOCK + 7
        got_adm, got_lost = [], []
        for i in range(n):
            got_adm.append(inj.admission_rejected())
            if i % 3:
                got_lost.append(inj.completion_lost())
        assert got_adm == [adm.random() < plan.admission_reject_prob for _ in range(n)]
        assert got_lost == [
            lost.random() < plan.lost_completion_prob for _ in range(len(got_lost))
        ]
        assert len(got_lost) > 3 * _DRAW_BLOCK

    def test_as_fleet_injector(self):
        assert as_fleet_injector(None) is None
        assert as_fleet_injector(FleetFaultPlan()) is None  # null plan
        inj = as_fleet_injector(_plan(), num_machines=4)
        assert isinstance(inj, FleetFaultInjector)
        assert as_fleet_injector(inj) is inj
        # An explicit injector is kept over a null plan: it drives a
        # fault-free run through every fault hook.
        null = FleetFaultInjector(FleetFaultPlan())
        assert as_fleet_injector(null) is null
        with pytest.raises(TypeError, match="FleetFaultPlan"):
            as_fleet_injector("chaos")
        with pytest.raises(ValueError, match="machine 3"):
            as_fleet_injector(_plan(), num_machines=3)


# --------------------------------------------------------------------- #
# Capacity-scaled solves
# --------------------------------------------------------------------- #


class TestCapacityScaledSolve:
    def _consumers(self, machine):
        mix = np.full(machine.num_nodes, 1.0 / machine.num_nodes)
        return [
            Consumer("a", 0, 4, mix, math.inf),
            Consumer("b", 1, 4, mix, math.inf),
        ]

    def test_batched_matches_scalar_scaled_solve(self):
        machine = class_machine("A")
        tables = machine_tables(machine)
        consumers = self._consumers(machine)
        scale = np.ones(tables.num_res)
        for row, res in enumerate(tables.res_keys):
            if res[0] == "link":
                scale[row] = 0.1
        # Each app trails one entry, so every app's rate is a tail rate.
        orders = [consumers, consumers[::-1]]
        cases = [(order, s) for order in orders for s in (scale, None)]
        store = consumer_rows(machine)
        batch = solve_batch_fleet_lazy(
            [(machine, store.add_live(order)) for order, _s in cases],
            capacity_scales=[s for _order, s in cases],
        )
        for (order, s), rates in zip(cases, batch):
            got = rates[-1]
            alloc = solve(machine, order, capacity_scale=s)
            assert got == alloc.app_total_rate(order[-1].app_id)
        # Links at 10% capacity must actually bite.
        scaled = solve(machine, consumers, capacity_scale=scale)
        plain = solve(machine, consumers)
        assert scaled.app_total_rate("a") < plain.app_total_rate("a")

    def test_capacity_scales_validation(self):
        machine = class_machine("A")
        consumers = consumer_rows(machine).add_live(self._consumers(machine))
        with pytest.raises(ValueError, match="capacity_scales has"):
            solve_batch_fleet_lazy(
                [(machine, consumers)], capacity_scales=[None, None]
            )
        with pytest.raises(ValueError, match="shape"):
            solve_batch_fleet_lazy(
                [(machine, consumers)], capacity_scales=[np.ones(3)]
            )
        bad = np.ones(machine_tables(machine).num_res)
        bad[0] = 0.0
        with pytest.raises(ValueError, match="positive"):
            solve_batch_fleet_lazy([(machine, consumers)], capacity_scales=[bad])


# --------------------------------------------------------------------- #
# Scheduler runs under faults
# --------------------------------------------------------------------- #


#: ``FleetResult`` fields the repo benchmark's fleet case reports as
#: metrics; a missing or non-numeric one would print as an empty value.
_REPORTED_FIELDS = (
    "ticks", "entries_scored", "memo_hits", "bound_pruned", "requeues", "stranded",
    "admission_rejections", "arrivals", "placed", "pending_left",
    "arrived_work_bytes", "completed_work_bytes",
)
#: ``FleetResult`` counts: plain Python ints.
_COUNT_FIELDS = (
    "arrivals", "placed", "pending_left", "ticks", "solver_calls", "entries_scored",
    "requeues", "stranded", "admission_rejections", "completions_lost", "slo_violations",
    "memo_hits", "bound_pruned",
)
#: Completion attributes the benchmark's fleet case and
#: ``outcome_from_result`` read, with their plain Python types.
_COMPLETION_TYPES = {
    "app_id": str, "mid": int, "arrival_s": float, "placed_s": float, "finish_s": float,
    "ideal_s": float, "slowdown": float, "wait_s": float, "attempts": int, "slo_ok": bool,
    "work_bytes": float,
}


class TestFaultRuns:
    def test_reported_fields_are_finite_numbers(self):
        """Every result field the benchmark reads is a plain, finite
        Python ``int`` or ``float`` (no numpy scalar, no ``None``), every
        count an ``int``, and every placement element and completion
        attribute the benchmark reads a plain ``str``, ``int``,
        ``float``, ``bool`` or tuple of ``int`` — a numpy scalar there
        would change the digest payload and ``json.dumps``."""
        out = _run("requeue+checkpoint", _plan())
        assert out.requeues > 0 and out.admission_rejections > 0 and out.memo_hits > 0
        for name in _REPORTED_FIELDS:
            value = getattr(out, name)
            assert type(value) in (int, float), (name, type(value))
            assert math.isfinite(value), name
        for name in _COUNT_FIELDS:
            assert type(getattr(out, name)) is int, name
        assert len(out.placements) == out.placed
        for app_id, mid, workers in out.placements:
            assert (type(app_id), type(mid), type(workers)) == (str, int, tuple)
            assert all(type(w) is int for w in workers)
        assert len(out.completions) > 0
        for c in out.completions:
            for name, kind in _COMPLETION_TYPES.items():
                assert type(getattr(c, name)) is kind, (name, type(getattr(c, name)))
            assert type(c.workers) is tuple and all(type(w) is int for w in c.workers)

    @pytest.mark.parametrize("seed", [0, 2, 3, 5, 6])
    def test_goodput_exact(self, seed):
        """Arrived and completed work are both exactly rounded sums, so a
        run that completes every arrival reads goodput exactly 1.0. Summed
        in two orders, they missed it by an ulp either way on these seeds."""
        plan = dataclasses.replace(_plan(), seed=seed, crashes=_plan().crashes[::2])
        config = SchedulerConfig(
            backend="flow", tick_s=2.0, recovery="requeue+checkpoint", retry_backoff_s=5.0
        )
        trace = build_trace(TraceSpec(kind="poisson", rate_per_s=1.0, arrivals=60, seed=seed))
        out = FleetScheduler(build_fleet(_MIX), trace, config, seed=11, faults=plan).run(1e6)
        goodput = outcome_from_result(out).goodput
        assert out.stranded == out.pending_left == 0
        assert len(out.completions) == out.arrivals
        assert out.completed_work_bytes / out.arrived_work_bytes == goodput == 1.0

    def test_zero_fault_identity_both_modes(self):
        assert_zero_fault_identity(_MIX, _trace_spec(20), _plan())

    def test_faulted_batched_equals_scalar(self):
        rb = _run("requeue+checkpoint", _plan())
        rs = _run("requeue+checkpoint", _plan(), cls=OracleScheduler)
        assert rb.placements == rs.placements
        assert rb.completions == rs.completions
        assert rb.utilization == rs.utilization
        assert rb.end_time == rs.end_time
        assert rb.requeues == rs.requeues
        assert rb.stranded == rs.stranded
        assert rb.admission_rejections == rs.admission_rejections
        assert rb.completions_lost == rs.completions_lost
        assert rb.lost_work_bytes == rs.lost_work_bytes
        assert rb.machine_downtime == rs.machine_downtime
        # The plan must actually have fired for this to mean anything.
        assert rb.requeues > 0
        assert rb.completions_lost > 0 or rb.admission_rejections > 0

    def test_faulted_sim_backend_batched_equals_scalar(self):
        rb = _run("requeue", _plan(), backend="sim", arrivals=10)
        rs = _run("requeue", _plan(), cls=OracleScheduler, backend="sim", arrivals=10)
        assert rb.placements == rs.placements
        assert rb.completions == rs.completions
        assert rb.end_time == rs.end_time
        assert rb.requeues == rs.requeues
        assert rb.stranded == rs.stranded

    def test_recovery_completes_what_stranding_loses(self):
        stranded = _run("none", _plan())
        requeued = _run("requeue", _plan())
        assert stranded.stranded > 0
        assert len(stranded.completions) < stranded.arrivals
        assert requeued.stranded == 0
        assert len(requeued.completions) == requeued.arrivals
        assert requeued.requeues > 0

    def test_checkpoint_redoes_less_work(self):
        requeued = _run("requeue", _plan())
        ckpt = _run("requeue+checkpoint", _plan())
        assert len(ckpt.completions) == ckpt.arrivals
        assert 0 < ckpt.lost_work_bytes < requeued.lost_work_bytes

    def test_slo_and_attempt_accounting(self):
        result = _run("requeue", _plan())
        assert any(c.attempts > 1 for c in result.completions)
        for c in result.completions:
            assert math.isfinite(c.deadline_s)
            assert c.slo_ok == (c.finish_s <= c.deadline_s)
            assert c.work_bytes > 0
        assert result.slo_violations == sum(
            not c.slo_ok for c in result.completions
        )

    def test_availability_and_downtime_accounting(self):
        result = _run("requeue", _plan())
        assert 0 < result.availability < 1
        assert set(result.machine_downtime) == {0, 1, 2, 3}
        inj = FleetFaultInjector(_plan())
        for mid, downtime in result.machine_downtime.items():
            assert downtime == inj.downtime_in(mid, result.end_time)
        # At least one crash window fell inside the run span.
        assert sum(result.machine_downtime.values()) > 0
        expected = 1.0 - sum(result.machine_downtime.values()) / (
            4 * result.end_time
        )
        assert result.availability == pytest.approx(expected)

    def test_fault_free_run_has_default_fault_fields(self):
        result = _run("requeue", None)
        assert result.requeues == 0
        assert result.stranded == 0
        assert result.admission_rejections == 0
        assert result.completions_lost == 0
        assert result.lost_work_bytes == 0.0
        assert result.availability == 1.0
        assert result.machine_downtime == {}
        assert all(c.attempts == 1 for c in result.completions)

    def test_runs_are_deterministic(self):
        a = _run("requeue+checkpoint", _plan())
        b = _run("requeue+checkpoint", _plan())
        assert a.placements == b.placements
        assert a.completions == b.completions
        assert a.end_time == b.end_time

    def test_out_of_fleet_mid_rejected(self):
        plan = FleetFaultPlan(crashes=(MachineCrash(9, 10.0, 20.0),))
        with pytest.raises(ValueError, match="machine 9"):
            FleetScheduler(
                build_fleet(_MIX),
                build_trace(_trace_spec(5)),
                SchedulerConfig(),
                faults=plan,
            )


class TestConfigValidation:
    def test_recovery_knobs(self):
        with pytest.raises(ValueError, match="recovery"):
            SchedulerConfig(recovery="retry")
        with pytest.raises(ValueError, match="max_retries"):
            SchedulerConfig(max_retries=-1)
        with pytest.raises(ValueError, match="retry_backoff_s"):
            SchedulerConfig(retry_backoff_s=-1.0)
        for bad in (0.0, 1.5):
            with pytest.raises(ValueError, match="checkpoint_quantum"):
                SchedulerConfig(checkpoint_quantum=bad)
        with pytest.raises(ValueError, match="slo_slowdown"):
            SchedulerConfig(slo_slowdown=0.5)
        with pytest.raises(ValueError, match="breaker_cooldown_s"):
            SchedulerConfig(breaker_cooldown_s=-1.0)


# --------------------------------------------------------------------- #
# Store and fingerprint integration
# --------------------------------------------------------------------- #


class TestStoreIntegration:
    def _spec(self) -> FleetSpec:
        return FleetSpec(
            mix=_MIX,
            trace=_trace_spec(12),
            tick_s=2.0,
            faults=_plan(),
            retry_backoff_s=5.0,
        )

    def test_faulted_outcome_round_trips(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        first = run_fleet_spec(self._spec(), store=store)
        again = run_fleet_spec(self._spec(), store=store)
        assert first == again
        assert store.stats.misses == 1
        assert store.stats.hits == 1
        assert first.requeues > 0 or first.completions_lost > 0

    def test_pre_fault_payload_is_corrupt_miss(self, tmp_path):
        # A payload written before the fault fields existed fails the
        # strict schema check and is recomputed, not silently served.
        store = ResultStore(tmp_path / "store")
        outcome = run_fleet_spec(self._spec(), store=store)
        fp = fleet_fingerprint(self._spec())
        old = outcome.to_payload()
        for key in ("requeues", "slo_violation_rate", "goodput", "availability"):
            del old[key]
        store.put(fp, old)
        recomputed = run_fleet_spec(self._spec(), store=store)
        assert recomputed == outcome
        assert store.stats.corrupt == 1

    def test_fingerprint_sensitive_to_fault_fields(self):
        base = FleetSpec(mix=_MIX, trace=_trace_spec(12))
        seen = {fleet_fingerprint(base)}
        for change in (
            {"faults": _plan()},
            {"faults": _plan().scaled(0.5)},
            {"recovery": "none"},
            {"max_retries": 1},
            {"retry_backoff_s": 1.0},
            {"checkpoint_quantum": 0.5},
            {"slo_slowdown": 2.0},
            {"breaker_cooldown_s": 5.0},
        ):
            fp = fleet_fingerprint(dataclasses.replace(base, **change))
            assert fp not in seen, f"fingerprint ignored {change}"
            seen.add(fp)
