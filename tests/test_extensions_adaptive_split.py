"""Adaptive BWAP (phase re-tuning) and split per-class placement (§VI)."""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    AdaptiveBWAP,
    AdaptiveConfig,
    AdaptiveState,
    CanonicalTuner,
    HardeningConfig,
    SplitPlacement,
    split_bwap_init,
)
from repro.engine import Application, PhasedApplication, Simulator
from repro.faults import DEFAULT_FAULT_PLAN, FaultPlan, MigrationFaultSpec
from repro.memsim import UniformAll
from repro.memsim.pages import UNALLOCATED
from repro.perf.counters import MeasurementConfig
from repro.workloads import ft_c, ocean_cp, streamcluster, two_phase
from tests.oracle.hardened_tuner import interleave_write
from tests.oracle.page_counts import check_counts

QUICK = dict(measurement=MeasurementConfig(n=6, c=1, t=0.1), warmup_s=0.2)


def quick_tuner_kwargs():
    return dict(config=MeasurementConfig(n=6, c=1, t=0.1), warmup_s=0.2)


class TestAdaptiveConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(stability_window=1),
            dict(stability_threshold=0.0),
            dict(drift_threshold=0.0),
            dict(drift_floor_fraction=0.0),
            dict(drift_confirmations=0),
            dict(check_interval_s=0.0),
            dict(stability_window=3.0),
            dict(stability_threshold=float("nan")),
            dict(drift_threshold=float("nan")),
            dict(drift_floor_fraction=float("nan")),
            dict(drift_confirmations=2.0),
            dict(check_interval_s=float("nan")),
            dict(check_interval_s=float("inf")),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AdaptiveConfig(**kwargs)


class TestAdaptiveBWAP:
    def _run(self, mach, workload_or_phased, phased=False, max_time=600.0):
        ct = CanonicalTuner(mach)
        sim = Simulator(mach)
        if phased:
            app = sim.add_app(
                PhasedApplication("p", workload_or_phased, mach, (0,), policy=None)
            )
        else:
            app = sim.add_app(
                Application("p", workload_or_phased, mach, (0,), policy=None)
            )
        tuner = sim.add_tuner(AdaptiveBWAP(app, ct.weights((0,)), **QUICK))
        res = sim.run(max_time=max_time)
        return res, tuner

    def test_triggers_once_stable(self, mach_b):
        wl = dataclasses.replace(streamcluster(), work_bytes=150e9)
        res, tuner = self._run(mach_b, wl)
        assert tuner.searches_started == 1
        assert tuner.retunes == 0
        assert tuner.state in (AdaptiveState.MONITORING, AdaptiveState.TUNING)

    def test_final_dwp_none_before_search(self, mach_b):
        ct = CanonicalTuner(mach_b)
        app = Application("p", streamcluster(), mach_b, (0,), policy=None)
        tuner = AdaptiveBWAP(app, ct.weights((0,)))
        assert tuner.final_dwp is None

    def test_retunes_on_phase_change(self, mach_b):
        sc = dataclasses.replace(streamcluster(), work_bytes=700e9)
        oc = dataclasses.replace(ocean_cp(), work_bytes=700e9)
        pw = two_phase("sc-then-oc", sc, oc, split=0.5)
        res, tuner = self._run(mach_b, pw, phased=True)
        assert tuner.retunes >= 1
        assert tuner.searches_started >= 2

    def test_adaptive_beats_one_shot_on_phased_workload(self, mach_b):
        from repro.core.dwp import DWPTuner

        sc = dataclasses.replace(streamcluster(), work_bytes=700e9)
        oc = dataclasses.replace(ocean_cp(), work_bytes=700e9)
        pw = two_phase("sc-then-oc", sc, oc, split=0.5)
        _, tuner = self._run(mach_b, pw, phased=True)
        res_adaptive, _ = self._run(mach_b, pw, phased=True)

        ct = CanonicalTuner(mach_b)
        sim = Simulator(mach_b)
        app = sim.add_app(PhasedApplication("p", pw, mach_b, (0,), policy=None))
        sim.add_tuner(
            DWPTuner(app, ct.weights((0,)), mode="kernel", **quick_tuner_kwargs())
        )
        res_oneshot = sim.run()
        assert (
            res_adaptive.execution_time("p")
            < res_oneshot.execution_time("p") * 1.02
        )

    def test_no_spurious_retune_on_stable_workload(self, mach_b):
        wl = dataclasses.replace(ocean_cp(), work_bytes=400e9)
        res, tuner = self._run(mach_b, wl)
        assert tuner.retunes == 0


class TestSplitPlacement:
    def test_private_pages_favour_owner_node(self, mach_b):
        ct = CanonicalTuner(mach_b)
        pol = SplitPlacement(ct, mode="kernel")
        app = Application("a", ft_c(), mach_b, (0, 1), policy=pol)
        # Private pages of threads on node 1 concentrate around node 1.
        dist = app.private_distribution(1)
        assert dist[1] == pytest.approx(ct.weights((1,))[1], abs=0.03)
        assert dist[1] > dist[0]

    def test_shared_pages_follow_worker_canonical(self, mach_b):
        ct = CanonicalTuner(mach_b)
        pol = SplitPlacement(ct, mode="kernel")
        app = Application("a", ft_c(), mach_b, (0, 1), policy=pol)
        assert app.shared_distribution() == pytest.approx(
            ct.weights((0, 1)), abs=0.03
        )

    def test_dwp_private_shifts_toward_owner(self, mach_b):
        ct = CanonicalTuner(mach_b)
        low = SplitPlacement(ct, dwp_private=0.0).private_weights(1)
        high = SplitPlacement(ct, dwp_private=0.9).private_weights(1)
        assert high[1] > low[1]

    def test_validation(self, mach_b):
        ct = CanonicalTuner(mach_b)
        with pytest.raises(ValueError):
            SplitPlacement(ct, dwp_shared=1.5)
        with pytest.raises(ValueError):
            SplitPlacement(ct, mode="bogus")


class TestSplitDWPTuner:
    def test_split_init_runs_and_settles(self, mach_b):
        ct = CanonicalTuner(mach_b)
        sim = Simulator(mach_b)
        app = sim.add_app(
            Application(
                "a",
                dataclasses.replace(ft_c(), work_bytes=200e9),
                mach_b,
                (0, 1),
                policy=None,
            )
        )
        tuner = split_bwap_init(sim, app, ct, **quick_tuner_kwargs())
        res = sim.run()
        assert tuner.is_settled()
        # Private pages remain split-placed (owner-local bias) even after
        # the shared-DWP search migrated shared pages.
        dist1 = app.private_distribution(1)
        assert dist1[1] > dist1[0]

    def test_split_rejects_app_with_policy(self, mach_b):
        ct = CanonicalTuner(mach_b)
        sim = Simulator(mach_b)
        app = sim.add_app(
            Application("a", ft_c(), mach_b, (0,), policy=UniformAll())
        )
        with pytest.raises(ValueError):
            split_bwap_init(sim, app, ct)

    def test_split_competitive_on_private_heavy_workload(self, mach_a):
        # The paper's Section IV-A analyses BWAP's private-page inaccuracy
        # on OC/ON/FT.C; the split extension must not be worse than
        # baseline BWAP there.
        from repro.core import bwap_init, BWAPConfig

        ct = CanonicalTuner(mach_a)
        wl = dataclasses.replace(ft_c(), work_bytes=250e9)

        sim = Simulator(mach_a)
        app = sim.add_app(Application("a", wl, mach_a, (0, 1), policy=None))
        split_bwap_init(sim, app, ct, **quick_tuner_kwargs())
        t_split = sim.run().execution_time("a")

        sim = Simulator(mach_a)
        app = sim.add_app(Application("a", wl, mach_a, (0, 1), policy=None))
        bwap_init(
            sim, app, canonical_tuner=ct,
            config=BWAPConfig(measurement=MeasurementConfig(n=6, c=1, t=0.1),
                              warmup_s=0.2),
        )
        t_bwap = sim.run().execution_time("a")
        assert t_split < t_bwap * 1.10


class TestAnalyticProbe:
    def test_probe_matches_batched_curve(self, mach_b):
        from repro.core.dwp import dwp_probe_curve

        canonical = CanonicalTuner(mach_b).weights((0,))
        app = Application("A", streamcluster(), mach_b, (0,), policy=None)
        tuner = AdaptiveBWAP(app, canonical)
        dwps, times = tuner.analytic_probe()
        assert dwps.shape == times.shape == (11,)
        expected = dwp_probe_curve(
            mach_b, app.workload, (0,), canonical, dwps,
            num_threads=app.num_threads,
        )
        assert np.array_equal(times, expected)
        assert (times > 0).all()


class TestSplitTunerFaults:
    """The split climb writes pages through ``Simulator.migrate_placement``,
    so injected migration faults and the retry defence reach it."""

    def _run(self, mach_b, faults, **kwargs):
        sim = Simulator(mach_b, faults=faults)
        app = sim.add_app(
            Application(
                "a",
                dataclasses.replace(ft_c(), work_bytes=200e9),
                mach_b,
                (0, 1),
                policy=None,
            )
        )
        tuner = split_bwap_init(
            sim, app, CanonicalTuner(mach_b), **quick_tuner_kwargs(), **kwargs
        )
        result = sim.run()
        return app, tuner, result.migration["a"]

    def test_page_failures_reach_the_split_climb(self, mach_b):
        app, tuner, migration = self._run(mach_b, DEFAULT_FAULT_PLAN)
        assert tuner.is_settled()
        assert migration.pages_failed > 0
        check_counts(app.space)

    def test_bounced_split_batch_is_replayed(self, mach_b):
        plan = FaultPlan(
            seed=3, migration=MigrationFaultSpec(transient_reject_prob=0.5)
        )
        app, tuner, migration = self._run(
            mach_b, plan, hardening=HardeningConfig(max_retries=2)
        )
        assert migration.rejected_calls > 0
        assert tuner.migration_retries == migration.retries > 0
        check_counts(app.space)
        assert (app.space.page_nodes() != UNALLOCATED).all()

    def test_replay_of_first_write_places_private_segments(self, mach_b):
        # Back every page on node 0 first, so the split tuner's first write
        # is a migration the fault layer can bounce.
        plan = FaultPlan(
            seed=1, migration=MigrationFaultSpec(transient_reject_prob=0.999)
        )
        sim = Simulator(mach_b, faults=plan)
        app = sim.add_app(Application("a", ft_c(), mach_b, (0, 1), policy=None))
        sim.migrate_placement(app, interleave_write(np.array([1.0, 0, 0, 0]), "user"))
        tuner = split_bwap_init(
            sim,
            app,
            CanonicalTuner(mach_b),
            hardening=HardeningConfig(max_retries=2),
            **quick_tuner_kwargs(),
        )
        sim.start()
        assert sim.migration.stats("a").rejected_calls == 1
        assert app.private_distribution(1)[1] == 0.0  # the bounce reverted it
        write, _ = tuner._pending_retry
        write(app.space)
        dist1 = app.private_distribution(1)
        assert dist1[1] > dist1[0]
