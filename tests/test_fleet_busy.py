"""Fleet steps at event cost: the busy set, kept-current vectors, and
admission without a per-arrival workload copy.

The run loop advances only machines with residents and keeps each
machine's ``state_version`` and residency in vectors it updates where it
touches a machine. These tests pin down, on a sparse chaos trace with
idle gaps (a crash on an idle machine, a brown-out that starts while its
machine is idle, crashes of busy machines, lost completions):

* at every tick the kept vectors equal ones rebuilt from the backends,
  and every busy machine's clock is the fleet clock;
* at every tick each backend's kept state id equals one interned afresh
  from its resident rows and occupied nodes, and each scorable machine's
  scoring state pairs that with its current capacity scale — fault-free
  and under chaos;
* every admitted app starts at or after its arrival (an idle machine's
  clock is pinned before admission);
* every advance of a busy machine runs under that instant's capacity
  scale;
* the run is bitwise the run of the dict-walking reference backend,
  which derives everything from the full per-arrival workload, under
  both the production tick and the exhaustive reference tick;
* a scheduler runs once, and a trace rejects bad arrays when built.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.fleet import (
    FleetFaultPlan,
    FleetScheduler,
    MachineCrash,
    MachineDegradation,
    SchedulerConfig,
    build_fleet,
    chaos_plan,
)
from repro.workloads import TraceSpec, build_trace, trace_catalog
from repro.workloads.arrivals import ArrivalTrace

from tests.oracle.exhaustive_tick import OracleScheduler
from tests.oracle.flow_backend import OracleFlowBackend

_CATALOG = trace_catalog(TraceSpec())

#: Machine 1 crashes and machine 2 browns out inside the idle gap between
#: bursts; machine 0 crashes while busy in the first burst.
_PLAN = FleetFaultPlan(
    seed=5,
    crashes=(MachineCrash(0, 5.0, 60.0), MachineCrash(1, 200.0, 250.0)),
    degradations=(MachineDegradation(2, 0.4, 300.0, 500.0),),
    admission_reject_prob=0.1,
    lost_completion_prob=0.3,
)


def _sparse_trace(bursts=(0.0, 400.0, 800.0), per_burst=10, scale=(0.3, 1.0), seed=2):
    rng = np.random.default_rng(seed)
    times = np.concatenate([t0 + np.sort(rng.uniform(0.0, 10.0, per_burst)) for t0 in bursts])
    n = len(times)
    return ArrivalTrace(
        TraceSpec(arrivals=n),
        times,
        rng.integers(0, len(_CATALOG), n),
        rng.uniform(*scale, n),
        _CATALOG,
    )


#: Schedulers by the retired scoring-mode names the test ids keep:
#: "batched" is the exhaustive reference tick.
_SCHEDULERS = {"incremental": FleetScheduler, "batched": OracleScheduler}


def _scheduler(*, backend="flow", scoring="incremental", trace=None, faults=_PLAN, mix=None):
    fleet = build_fleet(mix or (("A", 2), ("sym4", 2)))
    cfg = SchedulerConfig(backend=backend, tick_s=2.0, recovery="requeue+checkpoint")
    return _SCHEDULERS[scoring](fleet, trace or _sparse_trace(), cfg, seed=3, faults=faults)


def _fresh_state(b):
    """``b``'s state interned afresh from its resident rows and nodes."""
    return b.states.intern(tuple(b.resident_rows()), b.occupied_nodes())


def _checked(sched):
    """Wrap ``sched`` so every tick and every busy advance asserts the
    busy-set invariants and every backend's kept state id; returns the
    list of tick times seen."""
    ticks = []
    tick = sched._tick
    refresh = sched._refresh_machines
    injector = sched.injector

    def checked_tick(batch, scales, now, *args):
        backends = sched.backends
        assert sched._ver.tolist() == [b.state_version for b in backends]
        assert sched._busy.tolist() == [b.num_live > 0 for b in backends]
        assert all(b.now == now for b in backends if b.num_live)
        assert [b.state_id for b in backends] == [_fresh_state(b) for b in backends]
        ticks.append(now)
        return tick(batch, scales, now, *args)

    def checked_refresh(stale, ver, sid, scales):
        refresh(stale, ver, sid, scales)
        # Every machine the tick may score holds the scoring state of its
        # fresh resident state and its current capacity-scale key.
        now = ticks[-1]
        current = (sched._mver == ver) & (sched._msid == sid)
        for mid in np.flatnonzero(current).tolist():
            b = sched.backends[mid]
            key = None if injector is None else injector.scale_key_for(mid, now)
            fresh = (id(b.machine), _fresh_state(b), sched._scale_ids[key])
            assert sched._state_ids[fresh] == sched._mstate[mid]
            scale = sched._states[sched._mstate[mid]][3]
            want = None if injector is None else injector.capacity_scale_for(mid, b.machine, now)
            assert (scale is None) == (want is None)
            assert scale is None or scale.tobytes() == want.tobytes()

    sched._tick = checked_tick
    sched._refresh_machines = checked_refresh
    for b in sched.backends:
        advance = b.advance

        def checked_advance(to, b=b, advance=advance):
            if b.num_live and injector is not None:
                want = injector.capacity_scale_for(b.mid, b.machine, b.now)
                got = b.capacity_scale
                assert (got is None) == (want is None)
                assert got is None or got.tobytes() == want.tobytes()
            advance(to)

        b.advance = checked_advance
    return ticks


def _reference_backend(b):
    """The dict-walking reference backend in place of fluid backend ``b``."""
    return OracleFlowBackend(
        b.mid, b.class_name, b.machine, policy=b.policy, dwp=b.dwp, seed=b.seed,
        slo_slowdown=b.slo_slowdown,
    )


def _assert_identical(a, b):
    for field in (
        "placements", "completions", "utilization", "end_time", "ticks", "requeues",
        "stranded", "admission_rejections", "completions_lost", "lost_work_bytes",
        "slo_violations", "availability", "machine_downtime",
    ):
        assert getattr(a, field) == getattr(b, field), field


class TestBusySet:
    def test_sparse_chaos_invariants(self):
        sched = _scheduler()
        ticks = _checked(sched)
        out = sched.run(1_000_000.0)
        # The scenario exercises what it is built for.
        assert out.completions_lost > 0 and out.requeues > out.completions_lost
        assert len(out.completions) + out.stranded == len(sched.trace)
        assert not any(300.0 <= t < 400.0 for t in ticks)  # an idle gap
        browned = [c for c in out.completions if c.mid == 2 and 300.0 <= c.placed_s < 500.0]
        assert browned
        for c in out.completions:
            assert c.arrival_s <= c.placed_s <= c.finish_s
            assert math.isfinite(c.finish_s)
        # Kept vectors still match after the last step.
        assert sched._ver.tolist() == [b.state_version for b in sched.backends]
        assert not sched._busy.any()

    def test_idle_crash_evicts_nothing(self):
        sched = _scheduler()
        evicted = {}
        for b in sched.backends:
            evict_all = b.evict_all

            def spy(b=b, evict_all=evict_all):
                out = evict_all()
                evicted.setdefault(b.mid, []).append(len(out))
                return out

            b.evict_all = spy
        sched.run(1_000_000.0)
        assert evicted[0][0] > 0  # machine 0 crashed busy
        assert evicted[1] == [0]  # machine 1 crashed idle

    def test_placed_at_first_tick_after_an_idle_gap(self):
        """Fault-free, every app of a sparse trace starts at the first
        tick at or after its arrival, on whatever machine was idle."""
        trace = _sparse_trace(per_burst=3, scale=(0.05, 0.1))
        out = _scheduler(trace=trace, faults=None).run(1_000_000.0)
        assert len(out.completions) == len(trace)
        for c in out.completions:
            assert 0.0 <= c.placed_s - c.arrival_s < 2.0

    @pytest.mark.parametrize("scoring", ["incremental", "batched"])
    def test_matches_reference_backend(self, scoring):
        """The production run equals the run over the dict-walking
        reference backend, which admits the full per-arrival workload."""
        sched = _scheduler(scoring=scoring)
        ref = _scheduler(scoring=scoring)
        ref.backends = [_reference_backend(b) for b in ref.backends]
        _checked(ref)
        _assert_identical(sched.run(1_000_000.0), ref.run(1_000_000.0))

    @pytest.mark.parametrize("faults", [None, _PLAN], ids=["clean", "chaos"])
    def test_kept_state_ids(self, faults):
        """At every tick each backend's kept state id, and each scorable
        machine's scoring state, equal ones interned afresh — and the run
        over kept ids equals the run over the dict-walking reference
        backend, whose ids are re-interned whenever its version moves."""
        sched = _scheduler(faults=faults)
        ref = _scheduler(faults=faults)
        ref.backends = [_reference_backend(b) for b in ref.backends]
        ticks = _checked(sched)
        _checked(ref)
        _assert_identical(sched.run(1_000_000.0), ref.run(1_000_000.0))
        assert ticks and len(sched._states) > 1  # busy states were checked

    def test_incremental_matches_batched(self):
        _assert_identical(
            _scheduler(scoring="batched").run(1_000_000.0),
            _scheduler(scoring="incremental").run(1_000_000.0),
        )

    def test_sim_backend_forgets_lost_completions(self):
        """``SimBackend.forget_app`` bumps the machine's version; the
        scheduler's kept vector follows it."""
        plan = FleetFaultPlan(
            seed=1, crashes=(MachineCrash(0, 1.0, 30.0),), lost_completion_prob=0.5
        )
        trace = _sparse_trace(bursts=(0.0, 100.0), per_burst=3, scale=(0.02, 0.04))
        sched = _scheduler(backend="sim", trace=trace, faults=plan, mix=(("A", 2),))
        _checked(sched)
        out = sched.run(1_000_000.0)
        assert out.completions_lost > 0
        assert len(out.completions) + out.stranded == len(trace)


class TestRunOnce:
    def test_second_run_raises(self):
        fleet = build_fleet((("A", 2), ("B", 2)))
        trace = build_trace(TraceSpec(arrivals=40, rate_per_s=2.0, seed=7))
        sched = FleetScheduler(fleet, trace, SchedulerConfig(tick_s=2.0))
        assert len(sched.run(1_000_000.0).completions) == 40
        with pytest.raises(RuntimeError, match="runs once"):
            sched.run(1_000_000.0)

    def test_second_run_raises_under_chaos(self):
        fleet = build_fleet((("A", 2), ("B", 2)))
        trace = build_trace(TraceSpec(arrivals=40, rate_per_s=2.0, seed=7))
        sched = FleetScheduler(
            fleet, trace, SchedulerConfig(tick_s=2.0), faults=chaos_plan(4, 40.0, seed=3)
        )
        sched.run(1_000_000.0)
        with pytest.raises(RuntimeError, match="runs once"):
            sched.run(1_000_000.0)


def _trace(times=(0.0, 1.0), kinds=(0, 1), scales=(1.0, 1.0)):
    return ArrivalTrace(
        TraceSpec(arrivals=len(times)), np.asarray(times), np.asarray(kinds),
        np.asarray(scales), _CATALOG,
    )


class TestTraceValidation:
    def test_accepts_valid_and_empty(self):
        assert len(_trace()) == 2
        assert len(_trace((), np.zeros(0, dtype=np.int64), ())) == 0
        assert len(_trace([0.0, 0.0], [0, 4], [0.5, 2.0])) == 2  # lists, equal times

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(times=np.zeros((2, 1))),
            dict(kinds=np.zeros((2, 1), dtype=np.int64)),
            dict(scales=np.ones((1, 2))),
        ],
    )
    def test_rejects_non_1d(self, kwargs):
        with pytest.raises(ValueError, match="1-D"):
            _trace(**kwargs)

    @pytest.mark.parametrize(
        "kwargs", [dict(times=(0.0,)), dict(kinds=(0, 1, 2)), dict(scales=(1.0,))]
    )
    def test_rejects_unequal_lengths(self, kwargs):
        with pytest.raises(ValueError, match="equal length"):
            _trace(**kwargs)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_times(self, t):
        with pytest.raises(ValueError, match="finite and non-decreasing"):
            _trace(times=(0.0, t))

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError, match="finite and non-decreasing"):
            _trace(times=(1.0, 0.5))

    def test_rejects_non_integer_kinds(self):
        with pytest.raises(ValueError, match="kind_idx must be integers"):
            _trace(kinds=(0.0, 1.0))

    @pytest.mark.parametrize("kind", [-1, len(_CATALOG)])
    def test_rejects_kinds_outside_catalog(self, kind):
        with pytest.raises(ValueError, match="kind_idx must be integers indexing"):
            _trace(kinds=(0, kind))

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_work_scale(self, scale):
        with pytest.raises(ValueError, match="work_scale must be finite and positive"):
            _trace(scales=(1.0, scale))

    def test_work_bytes_is_the_scaled_catalog_entry(self):
        trace = _trace(scales=(0.25, 3.0))
        assert trace.work_bytes(0) == _CATALOG[0].work_bytes * 0.25
        assert trace.work_bytes(1) == trace.workload(1).work_bytes
