"""Warm-start integration: identity, polish behaviour, probe-session memo.

The load-bearing properties:

* ``warm_start=None`` (or omitting the kwarg) leaves every tuner variant
  bit-for-bit on the paper's plain climb, across benchmarks, tuner
  builds, and fault intensities;
* a fixed ``warm_start=d`` behaves exactly like the plain climb with its
  starting DWP preset to ``d`` — the warm start changes where the climb
  begins, never how it climbs;
* :class:`DWPProbeSession` re-entered with a narrower DWP range reuses
  its memo (no new evaluations, bitwise-equal values).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import (
    BWAPConfig,
    DWPProbeSession,
    DWPTuner,
    HARDENED_PROFILE,
    bwap_init,
    dwp_probe_curve,
)
from repro.core.adaptive import AdaptiveBWAP
from repro.engine import Application, Simulator, pick_worker_nodes
from repro.faults import DEFAULT_FAULT_PLAN
from repro.workloads import sp_b, streamcluster

#: Enough work that every climb completes several decisions (the
#: calibration sizes finish before a smoothed tuner's first decision).
_WORK = 800e9


def _wl(factory):
    return dataclasses.replace(factory(), work_bytes=_WORK)


def _run(
    machine,
    canonical_tuner,
    wl,
    num_workers,
    *,
    tuner_cls=DWPTuner,
    faults=None,
    preset_dwp=None,
    seed=42,
    **tuner_kw,
):
    """One stand-alone run under an explicitly constructed tuner."""
    workers = pick_worker_nodes(machine, num_workers)
    canonical = canonical_tuner.weights(workers)
    sim = Simulator(machine, seed=seed, faults=faults)
    app = sim.add_app(Application("B", wl, machine, workers, policy=None))
    tuner = tuner_cls(app, canonical, **tuner_kw)
    if preset_dwp is not None:
        tuner.dwp = preset_dwp
    sim.add_tuner(tuner)
    result = sim.run()
    return tuner, result


def _assert_identical(pair_a, pair_b):
    """Bitwise-identical runs: trajectory, final DWP, time, migration."""
    tuner_a, result_a = pair_a
    tuner_b, result_b = pair_b
    assert tuner_a.trajectory == tuner_b.trajectory
    assert tuner_a.final_dwp == tuner_b.final_dwp
    assert result_a.execution_time("B") == result_b.execution_time("B")
    assert (
        result_a.migration["B"].pages_moved == result_b.migration["B"].pages_moved
    )


# Stable case ids: the hardened case keeps the name it had when the
# hardened tuner was a class of its own.
_TUNER_IDS = ["DWPTuner-extra0", "HardenedDWPTuner-extra1"]


class TestWarmStartNoneIdentity:
    @pytest.mark.parametrize("wl_factory", [streamcluster, sp_b])
    @pytest.mark.parametrize("intensity", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize(
        "tuner_cls,extra",
        [
            (DWPTuner, {}),
            (DWPTuner, {"hardening": HARDENED_PROFILE}),
        ],
        ids=_TUNER_IDS,
    )
    def test_none_reproduces_plain_trajectories(
        self, mach_b, canonical_b, wl_factory, intensity, tuner_cls, extra
    ):
        faults = DEFAULT_FAULT_PLAN.scaled(intensity) if intensity else None
        base = _run(
            mach_b, canonical_b, _wl(wl_factory), 1,
            tuner_cls=tuner_cls, faults=faults, **extra,
        )
        warm_none = _run(
            mach_b, canonical_b, _wl(wl_factory), 1,
            tuner_cls=tuner_cls, faults=faults, warm_start=None, **extra,
        )
        _assert_identical(base, warm_none)
        assert warm_none[0].warm_started_dwp is None


class TestFixedWarmStart:
    @pytest.mark.parametrize("dwp", [0.2, 0.5])
    @pytest.mark.parametrize(
        "tuner_cls,extra",
        [
            (DWPTuner, {}),
            (DWPTuner, {"hardening": HARDENED_PROFILE}),
        ],
        ids=_TUNER_IDS,
    )
    def test_equals_plain_climb_preset_at_that_dwp(
        self, mach_b, canonical_b, dwp, tuner_cls, extra
    ):
        warm = _run(
            mach_b, canonical_b, _wl(streamcluster), 1,
            tuner_cls=tuner_cls, warm_start=dwp, **extra,
        )
        preset = _run(
            mach_b, canonical_b, _wl(streamcluster), 1,
            tuner_cls=tuner_cls, preset_dwp=dwp, **extra,
        )
        _assert_identical(warm, preset)
        assert warm[0].warm_started_dwp == dwp

    def test_polish_uses_fewer_probes_and_reaches_optimum(
        self, mach_b, canonical_b
    ):
        # B1W streamcluster's optimum sits high (DWP ~ 1.0): the plain
        # climb pays ~10 probes, a near-optimal warm start only the
        # mandatory baseline + confirmation.
        plain_tuner, _ = _run(mach_b, canonical_b, _wl(streamcluster), 1)
        warm_tuner, _ = _run(
            mach_b, canonical_b, _wl(streamcluster), 1, warm_start=0.9
        )
        assert warm_tuner.final_dwp >= 0.9
        assert warm_tuner.iterations < plain_tuner.iterations / 2
        # The jump itself is placement-by-allocation, not migration: the
        # pages do not exist yet at BWAP-init time.
        assert warm_tuner.final_dwp >= plain_tuner.final_dwp

    def test_validation(self, mach_b, canonical_b):
        workers = pick_worker_nodes(mach_b, 1)
        canonical = canonical_b.weights(workers)
        machine = mach_b
        app = Application("B", _wl(streamcluster), machine, workers, policy=None)
        with pytest.raises(ValueError, match="warm_start"):
            DWPTuner(app, canonical, warm_start=1.5)
        with pytest.raises(ValueError, match="warm_start"):
            DWPTuner(app, canonical, warm_start=-0.1)


class _FixedPredictor:
    """Minimal predictor-shaped object (duck-typed predict_dwp hook)."""

    def __init__(self, value):
        self.value = value
        self.calls = 0

    def predict_dwp(self, app, canonical):
        self.calls += 1
        return self.value


class TestPredictorHook:
    def test_predictor_object_is_resolved_at_start(self, mach_b, canonical_b):
        predictor = _FixedPredictor(0.5)
        warm = _run(
            mach_b, canonical_b, _wl(streamcluster), 1, warm_start=predictor
        )
        fixed = _run(mach_b, canonical_b, _wl(streamcluster), 1, warm_start=0.5)
        _assert_identical(warm, fixed)
        assert predictor.calls == 1

    def test_plain_callable_works_too(self, mach_b, canonical_b):
        warm = _run(
            mach_b, canonical_b, _wl(streamcluster), 1,
            warm_start=lambda app, canonical: 0.5,
        )
        fixed = _run(mach_b, canonical_b, _wl(streamcluster), 1, warm_start=0.5)
        _assert_identical(warm, fixed)

    def test_out_of_range_prediction_raises(self, mach_b, canonical_b):
        with pytest.raises(ValueError, match="outside"):
            _run(
                mach_b, canonical_b, _wl(streamcluster), 1,
                warm_start=_FixedPredictor(1.5),
            )


class TestConfigPlumbing:
    def test_bwap_config_validates_range(self):
        with pytest.raises(ValueError, match="warm_start"):
            BWAPConfig(warm_start=1.5)
        assert BWAPConfig(warm_start=0.3).warm_start == 0.3
        assert BWAPConfig().warm_start is None

    def test_bwap_init_forwards_warm_start(self, mach_b, canonical_b):
        workers = pick_worker_nodes(mach_b, 1)
        sim = Simulator(mach_b, seed=42)
        app = sim.add_app(
            Application("B", _wl(streamcluster), mach_b, workers, policy=None)
        )
        tuner = bwap_init(
            sim, app,
            canonical_tuner=canonical_b,
            config=BWAPConfig(warm_start=0.3),
        )
        assert tuner.warm_start == 0.3
        sim.run()
        assert tuner.warm_started_dwp == 0.3
        assert tuner.final_dwp >= 0.3

    def test_adaptive_forwards_warm_start_to_inner_searches(
        self, mach_b, canonical_b
    ):
        workers = pick_worker_nodes(mach_b, 1)
        canonical = canonical_b.weights(workers)
        sim = Simulator(mach_b, seed=42)
        app = sim.add_app(
            Application("B", _wl(streamcluster), mach_b, workers, policy=None)
        )
        adaptive = AdaptiveBWAP(app, canonical, warm_start=0.3)
        adaptive.on_start(sim)
        adaptive._start_search(sim)
        assert adaptive._inner is not None
        assert adaptive._inner.warm_start == 0.3
        assert adaptive._inner.warm_started_dwp == 0.3


class TestProbeSessionMemo:
    def test_narrower_reentry_reuses_memo(self, mach_b, canonical_b):
        workers = pick_worker_nodes(mach_b, 1)
        canonical = canonical_b.weights(workers)
        wl = _wl(streamcluster)
        session = DWPProbeSession(mach_b, wl, workers, canonical)
        full = np.round(np.arange(0.0, 1.001, 0.05), 6)
        times_full = session.probe(full)
        assert session.evaluations == len(full)
        assert session.memo_size == len(full)
        # Narrower re-entry: every value served from the memo, bitwise.
        narrow = full[4:9]
        times_narrow = session.probe(narrow)
        assert session.evaluations == len(full)
        assert np.array_equal(times_narrow, times_full[4:9])
        # Partial overlap: only genuinely new DWPs are evaluated.
        mixed = np.round(np.array([0.2, 0.225, 0.25]), 6)
        session.probe(mixed)
        assert session.evaluations == len(full) + 1  # only 0.225 is new

    def test_dwp_probe_curve_with_session_is_bitwise_identical(
        self, mach_b, canonical_b
    ):
        workers = pick_worker_nodes(mach_b, 1)
        canonical = canonical_b.weights(workers)
        wl = _wl(streamcluster)
        grid = np.round(np.arange(0.0, 1.001, 0.1), 6)
        fresh = dwp_probe_curve(mach_b, wl, workers, canonical, grid)
        session = DWPProbeSession(mach_b, wl, workers, canonical)
        via_session = dwp_probe_curve(
            mach_b, wl, workers, canonical, grid, session=session
        )
        assert np.array_equal(fresh, via_session)

    def test_best_returns_argmin(self, mach_b, canonical_b):
        workers = pick_worker_nodes(mach_b, 1)
        canonical = canonical_b.weights(workers)
        wl = _wl(streamcluster)
        session = DWPProbeSession(mach_b, wl, workers, canonical)
        grid = np.round(np.arange(0.0, 1.001, 0.1), 6)
        best, best_time = session.best(grid)
        times = session.probe(grid)
        assert best_time == times.min()
        assert best == grid[int(np.argmin(times))]
