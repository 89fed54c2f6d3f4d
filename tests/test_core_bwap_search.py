"""BWAP facade and the offline N-dimensional search oracle."""

import numpy as np
import pytest

from repro.core import BWAPConfig, bwap_init
from repro.core.search import (
    analytic_execution_time,
    hill_climb,
    make_placement_evaluator,
    search_optimal_placement,
    uniform_workers_start,
)
from repro.engine import Application, Simulator, pick_worker_nodes
from repro.memsim import UniformAll, UniformWorkers
from repro.units import MiB
from repro.workloads import streamcluster
from repro.workloads.base import WorkloadSpec


def wl(**kw):
    base = dict(
        name="t",
        read_bw_node=12.0,
        write_bw_node=3.0,
        private_fraction=0.2,
        latency_weight=0.2,
        shared_bytes=32 * MiB,
        private_bytes_per_thread=2 * MiB,
        work_bytes=300e9,
    )
    base.update(kw)
    return WorkloadSpec(**base)


class TestBwapInit:
    def test_returns_standalone_tuner(self, mach_b, canonical_b):
        sim = Simulator(mach_b)
        app = sim.add_app(Application("a", wl(), mach_b, (0,), policy=None))
        tuner = bwap_init(sim, app, canonical_tuner=canonical_b)
        assert tuner.app is app
        sim.run()
        assert tuner.is_settled()

    def test_rejects_app_with_policy(self, mach_b, canonical_b):
        sim = Simulator(mach_b)
        app = sim.add_app(Application("a", wl(), mach_b, (0,), policy=UniformAll()))
        with pytest.raises(ValueError):
            bwap_init(sim, app, canonical_tuner=canonical_b)

    def test_bwap_uniform_variant_starts_uniform(self, mach_b, canonical_b):
        sim = Simulator(mach_b)
        app = sim.add_app(Application("a", wl(), mach_b, (0,), policy=None))
        tuner = bwap_init(
            sim, app, canonical_tuner=canonical_b,
            config=BWAPConfig(use_canonical=False),
        )
        assert tuner.canonical == pytest.approx(np.full(4, 0.25))

    def test_full_bwap_starts_canonical(self, mach_b, canonical_b):
        sim = Simulator(mach_b)
        app = sim.add_app(Application("a", wl(), mach_b, (0,), policy=None))
        tuner = bwap_init(sim, app, canonical_tuner=canonical_b)
        assert tuner.canonical == pytest.approx(canonical_b.weights((0,)))

    def test_coscheduled_variant_selected(self, mach_b, canonical_b):
        from repro.core.dwp import CoScheduledDWPTuner
        from repro.memsim import FirstTouch
        from repro.workloads import swaptions

        sim = Simulator(mach_b)
        sim.add_app(
            Application("A", swaptions(), mach_b, (2, 3),
                        policy=FirstTouch(), looping=True)
        )
        app = sim.add_app(Application("B", wl(), mach_b, (0,), policy=None))
        tuner = bwap_init(
            sim, app, canonical_tuner=canonical_b, high_priority_app_id="A"
        )
        assert isinstance(tuner, CoScheduledDWPTuner)

    def test_bwap_beats_uniform_workers(self, mach_a, canonical_a):
        workload = streamcluster()
        workers = pick_worker_nodes(mach_a, 2)

        sim = Simulator(mach_a)
        sim.add_app(
            Application("a", workload, mach_a, workers, policy=UniformWorkers())
        )
        t_uw = sim.run().execution_time("a")

        sim = Simulator(mach_a)
        app = sim.add_app(Application("a", workload, mach_a, workers, policy=None))
        bwap_init(sim, app, canonical_tuner=canonical_a)
        t_bwap = sim.run().execution_time("a")
        assert t_bwap < t_uw


class TestHillClimb:
    def test_minimises_quadratic(self):
        target = np.array([0.5, 0.3, 0.2])

        def objective(w):
            return float(((w - target) ** 2).sum())

        res = hill_climb(objective, np.full(3, 1 / 3), step=0.2, max_iterations=100)
        assert res.objective < 0.01
        assert res.weights == pytest.approx(target, abs=0.1)

    def test_history_monotone_improving(self):
        def objective(w):
            return float(w[0])

        res = hill_climb(objective, np.array([0.5, 0.5]), max_iterations=30)
        vals = [v for _, v in res.history]
        assert vals == sorted(vals, reverse=True)

    def test_evaluation_count_tracked(self):
        calls = []

        def objective(w):
            calls.append(1)
            return 1.0  # flat: no improvement possible

        res = hill_climb(objective, np.array([0.5, 0.5]), max_iterations=5)
        assert res.evaluations == len(calls)

    def test_weights_stay_on_simplex(self):
        def objective(w):
            return float(-w[1])

        res = hill_climb(objective, np.array([0.9, 0.1]), max_iterations=50)
        assert res.weights.sum() == pytest.approx(1.0)
        assert (res.weights >= 0).all()

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError):
            hill_climb(lambda w: 0.0, np.array([-1.0, 2.0]))


class TestUniformWorkersStart:
    def test_mass_on_workers_only(self):
        s = uniform_workers_start(4, (1, 3))
        assert s == pytest.approx([0, 0.5, 0, 0.5])


class TestAnalyticEvaluator:
    def test_agrees_with_simulation(self, mach_a):
        workload = streamcluster()
        workers = pick_worker_nodes(mach_a, 2)
        for weights in (
            np.full(8, 1 / 8),
            uniform_workers_start(8, workers),
        ):
            fast = analytic_execution_time(mach_a, workload, workers, weights)
            slow = make_placement_evaluator(mach_a, workload, workers)(weights)
            assert fast == pytest.approx(slow, rel=0.01)

    def test_search_beats_uniform_workers(self, mach_a):
        workload = streamcluster()
        workers = pick_worker_nodes(mach_a, 2)
        res = search_optimal_placement(
            mach_a, workload, workers, max_iterations=30
        )
        t_uw = analytic_execution_time(
            mach_a, workload, workers, uniform_workers_start(8, workers)
        )
        assert res.objective < t_uw

    def test_search_finds_asymmetric_weights_on_machine_a(self, mach_a):
        # Motivation Observation 2: the oracle's weights are uneven.
        res = search_optimal_placement(
            mach_a, streamcluster(), (0, 1), max_iterations=30
        )
        positive = res.weights[res.weights > 0.01]
        assert positive.max() / positive.min() > 1.5

    def test_search_spreads_beyond_workers(self, mach_a):
        # Motivation Observation 1: pages land on non-worker nodes too.
        res = search_optimal_placement(
            mach_a, streamcluster(), (0, 1), max_iterations=30
        )
        non_workers = [i for i in range(8) if i not in (0, 1)]
        assert res.weights[non_workers].sum() > 0.05

    def test_invalid_evaluator_name(self, mach_a):
        with pytest.raises(ValueError):
            search_optimal_placement(
                mach_a, streamcluster(), (0,), evaluator="bogus"
            )


class TestBatchedSearch:
    def test_batched_and_scalar_search_identical(self, mach_a):
        # The batched neighbour scoring must replay the per-candidate climb
        # exactly: same weights (bitwise), objective, and evaluation count.
        workload = streamcluster()
        workers = pick_worker_nodes(mach_a, 2)
        batched = search_optimal_placement(
            mach_a, workload, workers, max_iterations=12
        )

        def scalar_eval(w):
            return analytic_execution_time(mach_a, workload, workers, w)

        scalar = hill_climb(
            scalar_eval, uniform_workers_start(8, workers), max_iterations=12
        )
        assert np.array_equal(batched.weights, scalar.weights)
        assert batched.objective == scalar.objective
        assert batched.evaluations == scalar.evaluations
        assert batched.iterations == scalar.iterations

    def test_evaluate_many_matches_call(self, mach_a):
        from repro.core.search import make_analytic_evaluator

        ev = make_analytic_evaluator(mach_a, streamcluster(), (0, 1))
        rng = np.random.RandomState(3)
        wm = rng.dirichlet(np.ones(8), size=12)
        batched = ev.evaluate_many(wm)
        assert np.array_equal(batched, np.array([ev(w) for w in wm]))

    def test_evaluate_many_rejects_bad_shape(self, mach_a):
        from repro.core.search import make_analytic_evaluator

        ev = make_analytic_evaluator(mach_a, streamcluster(), (0, 1))
        with pytest.raises(ValueError):
            ev.evaluate_many(np.ones(8))
        with pytest.raises(ValueError):
            ev.evaluate_many(np.ones((2, 5)))

    def test_top_distributions_distinct(self, mach_a):
        # Satellite of the batched search: post-clamp renormalisation can
        # recreate a vector already on the top list; the near-optimum
        # averaging slots must hold distinct distributions.
        res = search_optimal_placement(
            mach_a, streamcluster(), (0, 1), max_iterations=40
        )
        keys = [tuple(np.round(wt, 6)) for wt, _ in res.top]
        assert len(keys) == len(set(keys))
        values = [v for _, v in res.top]
        assert values == sorted(values)
