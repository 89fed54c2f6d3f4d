"""Epoch kernel vs reference path: bitwise-equality property tests.

The array-native epoch kernel (:mod:`repro.engine.kernel`) re-expresses
the simulator's per-epoch loop over dense arrays and strides across
multi-epoch tuner dormancy windows. Its contract is *bitwise* equality:
every DWP trajectory sample, counter value, RNG draw, telemetry
aggregate, and ``SimResult`` field must match the scalar reference loop
(``tests/oracle/epoch_reference.py``) exactly — with and without an active
fault plan, across the Table-I workload suite and every tuner variant.

The satellites ride along: run-length traffic coalescing, the cached
worker frequency, the solver-cache lookup/store split, and the
``next_wake_epoch`` stride hints.
"""

import pytest

from repro.core import (
    HARDENED_PROFILE,
    AdaptiveBWAP,
    CanonicalTuner,
    CoScheduledDWPTuner,
    DWPTuner,
)
from repro.engine import Application, PhasedApplication, Simulator, pick_worker_nodes
from repro.engine.sim import Tuner, wake_epoch_at
from repro.faults import DEFAULT_FAULT_PLAN, FaultPlan, PhaseShock
from repro.memsim import FirstTouch, UniformAll
from repro.perf.counters import MeasurementConfig
from repro.perf.profiler import AccessProfiler, TrafficSample
from repro.workloads import (
    ocean_cp,
    paper_benchmarks,
    streamcluster,
    swaptions,
    two_phase,
)
from tests.oracle.epoch_reference import ReferenceSimulator

QUICK = dict(config=MeasurementConfig(n=6, c=1, t=0.1), warmup_s=0.2)
SUITE = {wl.name: wl for wl in paper_benchmarks()}


def _trajectory(tuner):
    return [(s.time_s, s.dwp, s.stall_rate, s.accepted) for s in tuner.trajectory]


def _run_pair(build, max_time=None):
    """Run the scenario on the kernel and on the scalar reference loop;
    return both outcomes."""
    out = []
    for sim_cls in (Simulator, ReferenceSimulator):
        sim, tuners = build(sim_cls)
        res = sim.run(max_time=max_time) if max_time else sim.run()
        out.append((sim, tuners, res))
    return out


def _assert_bitwise_equal(on, off):
    sim_on, tuners_on, res_on = on
    sim_off, tuners_off, res_off = off
    assert res_on.sim_time == res_off.sim_time
    assert res_on.execution_times == res_off.execution_times
    assert res_on.telemetry == res_off.telemetry
    assert res_on.migration == res_off.migration
    assert res_on.final_allocation == res_off.final_allocation
    assert sim_on.epoch == sim_off.epoch
    assert sim_on.now == sim_off.now
    assert sim_on.counters._apps == sim_off.counters._apps
    assert (
        sim_on.counters._rng.bit_generator.state
        == sim_off.counters._rng.bit_generator.state
    )
    assert len(tuners_on) == len(tuners_off)
    for t_on, t_off in zip(tuners_on, tuners_off):
        if hasattr(t_on, "trajectory"):
            assert _trajectory(t_on) == _trajectory(t_off)
            assert t_on.dwp == t_off.dwp
            assert t_on.is_settled() == t_off.is_settled()


class TestDWPTunerEquality:
    """Plain DWP climb, solo app, every Table-I workload, +/- faults."""

    @pytest.mark.parametrize("name", sorted(SUITE))
    @pytest.mark.parametrize("faults", [None, DEFAULT_FAULT_PLAN], ids=["clean", "faulted"])
    def test_solo_tuned_run(self, mach_b, canonical_b, name, faults):
        def build(sim_cls):
            sim = sim_cls(mach_b, faults=faults)
            app = sim.add_app(
                Application("a", SUITE[name], mach_b, (0,), policy=None)
            )
            tuner = sim.add_tuner(DWPTuner(app, canonical_b.weights((0,)), **QUICK))
            return sim, [tuner]

        _assert_bitwise_equal(*_run_pair(build, max_time=400.0))


class TestCoScheduledEquality:
    """Two-stage co-scheduled climb with a looping background app."""

    @pytest.mark.parametrize("faults", [None, DEFAULT_FAULT_PLAN], ids=["clean", "faulted"])
    def test_coscheduled_run(self, mach_b, canonical_b, faults):
        def build(sim_cls):
            sim = sim_cls(mach_b, faults=faults)
            rest = tuple(n for n in mach_b.node_ids if n != 0)
            sim.add_app(
                Application(
                    "A", swaptions(), mach_b, rest, policy=FirstTouch(), looping=True
                )
            )
            app = sim.add_app(
                Application("B", streamcluster(), mach_b, (0,), policy=None)
            )
            tuner = sim.add_tuner(
                CoScheduledDWPTuner(app, canonical_b.weights((0,)), "A", **QUICK)
            )
            return sim, [tuner]

        _assert_bitwise_equal(*_run_pair(build, max_time=400.0))


class TestAdaptiveEquality:
    """Adaptive monitor + re-tuning over a phase-changing application."""

    @pytest.mark.parametrize("faults", [None, DEFAULT_FAULT_PLAN], ids=["clean", "faulted"])
    def test_phased_adaptive_run(self, mach_b, faults):
        pw = two_phase("x", streamcluster(), ocean_cp(), split=0.5)

        def build(sim_cls):
            ct = CanonicalTuner(mach_b)
            sim = sim_cls(mach_b, faults=faults)
            app = sim.add_app(PhasedApplication("p", pw, mach_b, (0,), policy=None))
            tuner = sim.add_tuner(
                AdaptiveBWAP(
                    app,
                    ct.weights((0,)),
                    measurement=MeasurementConfig(n=6, c=1, t=0.1),
                    warmup_s=0.2,
                )
            )
            return sim, [tuner]

        on, off = _run_pair(build, max_time=400.0)
        _assert_bitwise_equal(on, off)
        assert on[1][0].searches_started == off[1][0].searches_started
        assert on[1][0].retunes == off[1][0].retunes
        assert on[1][0].state is off[1][0].state


class TestPhasedShockEquality:
    """Phased apps under phase-shock faults: every phase crossing, shock
    edge, depletion and looping restart reaches the kernel's memoised
    blocks exactly when the reference, which derives its consumers afresh
    each epoch, sees it."""

    @pytest.mark.parametrize("looping", [False, True])
    def test_phased_shocked_run(self, mach_b, canonical_b, looping):
        plan = FaultPlan(
            phase_shocks=(
                PhaseShock(1.8, start_s=0.5, end_s=3.0, app_id="p"),
                PhaseShock(0.4, start_s=2.0, end_s=9.0),
                PhaseShock(1.3, start_s=12.0, end_s=30.0, app_id="bg"),
            )
        )

        def build(sim_cls):
            sim = sim_cls(mach_b, faults=plan)
            bg = PhasedApplication(
                "bg", two_phase("y", swaptions(), streamcluster(), split=0.3),
                mach_b, (1, 2, 3), policy=FirstTouch(), looping=looping,
            )
            sim.add_app(bg)
            app = sim.add_app(
                PhasedApplication(
                    "p", two_phase("x", streamcluster(), ocean_cp(), split=0.4),
                    mach_b, (0,), policy=None,
                )
            )
            tuner = sim.add_tuner(DWPTuner(app, canonical_b.weights((0,)), **QUICK))
            return sim, [tuner]

        on, off = _run_pair(build, max_time=400.0)
        _assert_bitwise_equal(on, off)
        sim = on[0]
        assert sim._apps["p"].current_phase_index == 1
        assert sim._apps["bg"].completions >= 1
        assert sim.now > 30.0


class TestHardenedEquality:
    """Hardened climb with the fault-matrix profile under the full plan."""

    def test_hardened_faulted_run(self, mach_b, canonical_b):
        def build(sim_cls):
            sim = sim_cls(mach_b, faults=DEFAULT_FAULT_PLAN)
            app = sim.add_app(
                Application("a", streamcluster(), mach_b, (0,), policy=None)
            )
            tuner = sim.add_tuner(
                DWPTuner(
                    app,
                    canonical_b.weights((0,)),
                    hardening=HARDENED_PROFILE,
                    **QUICK,
                )
            )
            return sim, [tuner]

        on, off = _run_pair(build, max_time=400.0)
        _assert_bitwise_equal(on, off)
        assert on[1][0].degraded == off[1][0].degraded
        assert on[1][0].migration_retries == off[1][0].migration_retries


class TestStrideEngages:
    """The kernel must actually skip dormant epochs, not just match."""

    def test_fewer_solver_lookups_with_kernel(self, mach_a):
        def build(sim_cls):
            sim = sim_cls(mach_a)
            workers = pick_worker_nodes(mach_a, 2)
            others = tuple(n for n in range(mach_a.num_nodes) if n not in workers)
            sim.add_app(
                Application(
                    "bg", swaptions(), mach_a, others, policy=FirstTouch(), looping=True
                )
            )
            app = sim.add_app(
                Application(
                    "fg", streamcluster(), mach_a, workers, policy=None, looping=True
                )
            )
            ct = CanonicalTuner(mach_a)
            tuner = sim.add_tuner(
                AdaptiveBWAP(
                    app,
                    ct.weights(workers),
                    measurement=MeasurementConfig(n=6, c=1, t=0.1),
                    warmup_s=0.2,
                )
            )
            return sim, [tuner]

        on, off = _run_pair(build, max_time=60.0)
        _assert_bitwise_equal(on, off)
        on_calls = on[0].solver_cache.hits + on[0].solver_cache.misses
        # Strided epochs never consult the solver cache: the kernel run
        # must have done materially fewer lookups than the reference's
        # one solve per epoch of the same trajectory.
        assert on_calls < off[0].epoch

    def test_never_settling_tuner_without_hint_blocks_stride(self, mach_b):
        class _Poll(Tuner):
            def __init__(self):
                self.epochs = 0

            def on_start(self, sim):
                pass

            def on_epoch(self, sim):
                self.epochs += 1

            def is_settled(self):
                return False

        def build(sim_cls):
            sim = sim_cls(mach_b)
            sim.add_app(
                Application(
                    "a", swaptions(), mach_b, (0, 1), policy=UniformAll(), looping=True
                )
            )
            poll = sim.add_tuner(_Poll())
            return sim, [poll]

        on, off = _run_pair(build, max_time=20.0)
        _assert_bitwise_equal(on, off)
        # The default next_wake_epoch hint pins the stride at zero, so a
        # hint-less tuner sees every epoch on both paths.
        assert on[1][0].epochs == off[1][0].epochs
        assert on[1][0].epochs == on[0].epoch


class TestTrafficCoalescing:
    """Satellite 1: run-length TrafficSamples leave characterise() alone."""

    def _run(self, sim_cls, mach, wl):
        sim = sim_cls(mach)
        sim.add_app(Application("a", wl, mach, (0,), policy=UniformAll()))
        res = sim.run()
        prof = AccessProfiler(wl.name)
        prof.extend(res.telemetry["a"].traffic)
        return prof, res

    @pytest.mark.parametrize("name", sorted(SUITE))
    def test_characterise_unchanged(self, mach_b, name):
        kernel, res_k = self._run(Simulator, mach_b, SUITE[name])
        ref, res_r = self._run(ReferenceSimulator, mach_b, SUITE[name])
        # The kernel's strided epochs extend the run the reference records
        # one epoch at a time: same samples, same characterisation.
        assert res_k.telemetry == res_r.telemetry
        assert kernel.characterise() == ref.characterise()
        assert res_k.execution_times == res_r.execution_times
        # Coalescing only merges, never drops: durations still cover the
        # app's active time.
        assert sum(s.duration_s for s in res_k.telemetry["a"].traffic) == (
            pytest.approx(res_k.telemetry["a"].active_time, rel=1e-12)
        )

    def test_only_identical_rates_merge(self):
        from repro.engine.sim import AppTelemetry

        tele = AppTelemetry()
        tele.record_traffic(0.25, 1.0, 0.5, 0.1)
        tele.record_traffic(0.25, 1.0, 0.5, 0.1)
        tele.record_traffic(0.25, 2.0, 0.5, 0.1)
        assert tele.traffic == [
            TrafficSample(0.5, 1.0, 0.5, 0.1),
            TrafficSample(0.25, 2.0, 0.5, 0.1),
        ]


class TestWakeHints:
    """next_wake_epoch contracts used by the stride planner."""

    def test_default_hint_is_next_epoch(self, mach_b):
        class _T(Tuner):
            def on_start(self, sim):
                pass

            def on_epoch(self, sim):
                pass

            def is_settled(self):
                return True

        sim = Simulator(mach_b)
        assert _T().next_wake_epoch(sim) == sim.epoch

    def test_wake_epoch_at_matches_float_accumulation(self, mach_b):
        sim = Simulator(mach_b)
        deadline = 17 * sim.epoch_s + 1e-9
        epoch = wake_epoch_at(sim, deadline)
        # Replay the simulator's own accumulation: the returned epoch is
        # the first whose post-step time reaches the deadline.
        t = sim.now
        for k in range(epoch):
            t = t + sim.epoch_s
        assert t < deadline
        assert t + sim.epoch_s >= deadline

    def test_dwp_tuner_hint_respects_next_action(self, mach_b, canonical_b):
        sim = Simulator(mach_b)
        app = sim.add_app(
            Application("a", streamcluster(), mach_b, (0,), policy=None)
        )
        tuner = sim.add_tuner(DWPTuner(app, canonical_b.weights((0,)), **QUICK))
        tuner.on_start(sim)
        wake = tuner.next_wake_epoch(sim)
        assert wake is not None and wake >= sim.epoch
        # Stepping to the hinted epoch must not cross _next_action.
        t = sim.now
        for _ in range(wake - sim.epoch):
            t = t + sim.epoch_s
        assert t < tuner._next_action


class TestFrequencyMemo:
    """Satellite 2: worker frequency resolved once per app at attach."""

    def test_memo_hit_and_value(self, mach_b):
        sim = Simulator(mach_b)
        app = sim.add_app(
            Application("a", streamcluster(), mach_b, (0,), policy=UniformAll())
        )
        assert sim._app_freq["a"] == mach_b.node(0).cores[0].frequency_ghz
        assert sim._worker_frequency_ghz(app) == sim._app_freq["a"]

    def test_unattached_app_still_resolves(self, mach_b):
        sim = Simulator(mach_b)
        app = Application("x", streamcluster(), mach_b, (0,), policy=UniformAll())
        assert (
            sim._worker_frequency_ghz(app) == mach_b.node(0).cores[0].frequency_ghz
        )


class TestCounterBatchUpdate:
    """update_many matches a loop of update calls, validation included."""

    def test_equivalent_to_loop(self, mach_b):
        from repro.perf.counters import CounterBank

        a, b = CounterBank(), CounterBank()
        rows = [("x", 1.0, 2.0, {0: 1.0}), ("y", 0.0, 0.0, None)]
        a.update_many(rows)
        for app_id, stall, thr, per_node in rows:
            b.update(app_id, stall, thr, per_node)
        assert a._apps == b._apps

    def test_validation_preserved(self):
        from repro.perf.counters import CounterBank

        bank = CounterBank()
        with pytest.raises(ValueError):
            bank.update_many([("x", -1.0, 0.0, None)])
