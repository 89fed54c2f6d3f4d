"""DWP weight blending and the on-line tuner."""

import numpy as np
import pytest

from repro.core import combine_weights
from repro.core.dwp import CoScheduledDWPTuner, DWPTuner
from repro.engine import Application, Simulator
from repro.memsim import FirstTouch
from repro.perf.counters import MeasurementConfig
from repro.units import MiB
from repro.workloads import swaptions
from repro.workloads.base import WorkloadSpec


class TestCombineWeights:
    def setup_method(self):
        self.canonical = np.array([0.3, 0.2, 0.3, 0.2])
        self.workers = (0, 1)

    def test_dwp_zero_is_canonical(self):
        w = combine_weights(self.canonical, self.workers, 0.0)
        assert w == pytest.approx(self.canonical)

    def test_dwp_one_all_on_workers(self):
        w = combine_weights(self.canonical, self.workers, 1.0)
        assert w[2] == pytest.approx(0.0) and w[3] == pytest.approx(0.0)
        assert w[0] + w[1] == pytest.approx(1.0)

    def test_worker_ratios_preserved(self):
        # Section III-B: canonical relations within the worker set persist.
        for dwp in (0.0, 0.3, 0.7, 1.0):
            w = combine_weights(self.canonical, self.workers, dwp)
            assert w[0] / w[1] == pytest.approx(0.3 / 0.2)

    def test_non_worker_ratios_preserved(self):
        for dwp in (0.0, 0.3, 0.7):
            w = combine_weights(self.canonical, self.workers, dwp)
            assert w[2] / w[3] == pytest.approx(0.3 / 0.2)

    def test_worker_mass_interpolates_linearly(self):
        m0 = 0.5  # canonical worker mass
        for dwp in (0.0, 0.25, 0.5, 1.0):
            w = combine_weights(self.canonical, self.workers, dwp)
            assert w[0] + w[1] == pytest.approx(m0 + dwp * (1 - m0))

    def test_always_a_distribution(self):
        for dwp in np.linspace(0, 1, 11):
            w = combine_weights(self.canonical, self.workers, dwp)
            assert w.sum() == pytest.approx(1.0)
            assert (w >= -1e-12).all()

    def test_all_workers_degenerate(self):
        w = combine_weights([0.25, 0.25, 0.25, 0.25], (0, 1, 2, 3), 0.5)
        assert w == pytest.approx([0.25] * 4)

    def test_unnormalised_canonical_ok(self):
        w = combine_weights([3, 2, 3, 2], (0, 1), 0.0)
        assert w == pytest.approx([0.3, 0.2, 0.3, 0.2])

    def test_validation(self):
        with pytest.raises(ValueError):
            combine_weights(self.canonical, self.workers, 1.5)
        with pytest.raises(ValueError):
            combine_weights(self.canonical, (), 0.5)
        with pytest.raises(ValueError):
            combine_weights(self.canonical, (9,), 0.5)
        with pytest.raises(ValueError):
            combine_weights(np.zeros(4), (0,), 0.5)
        with pytest.raises(ValueError):
            combine_weights([0.0, 0.0, 0.5, 0.5], (0, 1), 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_canonical(self, bad):
        # NaN used to come back as [nan nan 0 0] with only a RuntimeWarning.
        with pytest.raises(ValueError, match="finite.*" + str(bad)):
            combine_weights([bad, 1.0, 1.0, 1.0], (0, 1), 0.5)


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


def quick_config():
    return dict(
        config=MeasurementConfig(n=6, c=1, t=0.1),
        warmup_s=0.2,
    )


class TestDWPTuner:
    def test_initial_placement_at_dwp_zero(self, mach_b, canonical_b):
        sim = Simulator(mach_b)
        app = sim.add_app(
            Application("a", fast_workload(), mach_b, (0,), policy=None)
        )
        tuner = sim.add_tuner(
            DWPTuner(app, canonical_b.weights((0,)), **quick_config())
        )
        tuner.on_start(sim)
        dist = app.space.placement_distribution()
        assert dist == pytest.approx(canonical_b.weights((0,)), abs=0.02)
        assert tuner.dwp == 0.0

    def test_tuner_settles(self, mach_b, canonical_b):
        sim = Simulator(mach_b)
        app = sim.add_app(
            Application("a", fast_workload(), mach_b, (0,), policy=None)
        )
        tuner = sim.add_tuner(
            DWPTuner(app, canonical_b.weights((0,)), **quick_config())
        )
        sim.run()
        assert tuner.is_settled()
        assert 0.0 <= tuner.final_dwp <= 1.0
        assert tuner.iterations >= 1

    def test_trajectory_dwp_monotone(self, mach_b, canonical_b):
        sim = Simulator(mach_b)
        app = sim.add_app(
            Application("a", fast_workload(), mach_b, (0,), policy=None)
        )
        tuner = sim.add_tuner(
            DWPTuner(app, canonical_b.weights((0,)), **quick_config())
        )
        sim.run()
        dwps = [s.dwp for s in tuner.trajectory]
        assert dwps == sorted(dwps)

    def test_migrations_charged(self, mach_b, canonical_b):
        sim = Simulator(mach_b)
        app = sim.add_app(
            Application("a", fast_workload(), mach_b, (0,), policy=None)
        )
        tuner = sim.add_tuner(
            DWPTuner(app, canonical_b.weights((0,)), **quick_config())
        )
        res = sim.run()
        if tuner.final_dwp > 0:
            assert res.migration["a"].pages_moved > 0

    def test_latency_sensitive_app_climbs(self, mach_b, canonical_b):
        # Plenty of bandwidth + high latency weight => high DWP is optimal.
        wl = fast_workload(read_bw_node=3.0, write_bw_node=0.5, latency_weight=0.6)
        sim = Simulator(mach_b)
        app = sim.add_app(Application("a", wl, mach_b, (0,), policy=None))
        tuner = sim.add_tuner(
            DWPTuner(app, canonical_b.weights((0,)), **quick_config())
        )
        sim.run()
        assert tuner.final_dwp >= 0.5

    def test_bw_hungry_app_stays_low(self, mach_a, canonical_a):
        # Extreme bandwidth demand on the asymmetric machine: spreading wins.
        wl = fast_workload(read_bw_node=20.0, write_bw_node=6.0, latency_weight=0.02)
        sim = Simulator(mach_a)
        app = sim.add_app(Application("a", wl, mach_a, (0,), policy=None))
        tuner = sim.add_tuner(
            DWPTuner(app, canonical_a.weights((0,)), **quick_config())
        )
        sim.run()
        assert tuner.final_dwp <= 0.3

    def test_kernel_mode_works(self, mach_b, canonical_b):
        sim = Simulator(mach_b)
        app = sim.add_app(
            Application("a", fast_workload(), mach_b, (0,), policy=None)
        )
        tuner = sim.add_tuner(
            DWPTuner(app, canonical_b.weights((0,)), mode="kernel", **quick_config())
        )
        sim.run()
        assert tuner.is_settled()

    def test_rejects_bad_params(self, mach_b, canonical_b):
        app = Application("a", fast_workload(), mach_b, (0,), policy=None)
        with pytest.raises(ValueError):
            DWPTuner(app, canonical_b.weights((0,)), step=0.0)
        with pytest.raises(ValueError):
            DWPTuner(app, canonical_b.weights((0,)), warmup_s=-1.0)
        with pytest.raises(ValueError):
            DWPTuner(app, canonical_b.weights((0,)), tolerance=-0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(step=float("nan")),
            dict(warmup_s=float("nan")),
            dict(warmup_s=float("inf")),
            dict(tolerance=float("nan")),
            dict(tolerance=float("inf")),
            dict(warm_start=float("nan")),
        ],
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_rejects_non_finite_params(self, mach_b, canonical_b, kwargs):
        # A NaN warm-up never waits between decisions and a NaN tolerance
        # stops the climb after two: both must fail at construction.
        app = Application("a", fast_workload(), mach_b, (0,), policy=None)
        with pytest.raises(ValueError):
            DWPTuner(app, canonical_b.weights((0,)), **kwargs)


class TestCoScheduledTuner:
    def _setup(self, mach, canonical, workers=(0,)):
        sim = Simulator(mach)
        rest = tuple(n for n in mach.node_ids if n not in workers)
        sim.add_app(
            Application("A", swaptions(), mach, rest, policy=FirstTouch(), looping=True)
        )
        app = sim.add_app(
            Application("B", fast_workload(), mach, workers, policy=None)
        )
        tuner = sim.add_tuner(
            CoScheduledDWPTuner(
                app, canonical.weights(workers), "A", **quick_config()
            )
        )
        return sim, tuner

    def test_two_stages_reached(self, mach_b, canonical_b):
        sim, tuner = self._setup(mach_b, canonical_b)
        sim.run()
        assert tuner.stage == 2
        assert tuner.is_settled()

    def test_stage1_short_for_cpu_bound_coloc(self, mach_b, canonical_b):
        # Swaptions barely stalls, so stage 1 must end almost immediately
        # (the min_abs_improvement floor).
        sim, tuner = self._setup(mach_b, canonical_b)
        sim.run()
        stage1_steps = sum(1 for s in tuner.trajectory if s.dwp == 0.0)
        assert tuner.trajectory[0].dwp == 0.0
        # Stage 1 should have raised DWP at most twice before handing over.
        assert tuner.trajectory[2].dwp <= 0.2

    def test_rejects_bad_tolerances(self, mach_b, canonical_b):
        app = Application("B", fast_workload(), mach_b, (0,), policy=None)
        with pytest.raises(ValueError):
            CoScheduledDWPTuner(app, canonical_b.weights((0,)), "A",
                                stability_tolerance=-1.0)
        with pytest.raises(ValueError):
            CoScheduledDWPTuner(app, canonical_b.weights((0,)), "A",
                                min_abs_improvement=-1.0)
        for name in ("stability_tolerance", "min_abs_improvement"):
            with pytest.raises(ValueError):
                CoScheduledDWPTuner(
                    app, canonical_b.weights((0,)), "A", **{name: float("nan")}
                )


class TestDWPProbeCurve:
    def test_matches_pointwise_analytic(self, mach_a, canonical_a):
        from repro.core.dwp import dwp_probe_curve
        from repro.core.search import analytic_execution_time

        workers = (0, 1)
        canonical = canonical_a.weights(workers)
        workload = fast_workload()
        dwps = (0.0, 0.2, 0.5, 1.0)
        curve = dwp_probe_curve(mach_a, workload, workers, canonical, dwps)
        assert curve.shape == (len(dwps),)
        # The batched ladder is the scalar evaluation of each rung, bitwise.
        for d, t in zip(dwps, curve):
            w = combine_weights(canonical, workers, d)
            assert t == analytic_execution_time(mach_a, workload, workers, w)

    def test_curve_is_positive_and_finite(self, mach_b, canonical_b):
        from repro.core.dwp import dwp_probe_curve

        workers = (0,)
        curve = dwp_probe_curve(
            mach_b, fast_workload(), workers,
            canonical_b.weights(workers), tuple(i / 10 for i in range(11)),
        )
        assert (curve > 0).all() and np.isfinite(curve).all()

    def test_rejects_empty_ladder(self, mach_b, canonical_b):
        from repro.core.dwp import dwp_probe_curve

        with pytest.raises(ValueError):
            dwp_probe_curve(
                mach_b, fast_workload(), (0,), canonical_b.weights((0,)), ()
            )
