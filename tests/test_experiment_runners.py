"""Fast smoke tests of the figure/table runner modules.

The full experiments are exercised by the benchmark harness; these tests
run reduced configurations (fewer benchmarks/policies/scenarios) to verify
the runners' mechanics and render paths quickly.
"""

import dataclasses

import pytest

from repro.experiments.fig1 import run_fig1a, run_fig1b
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3ab
from repro.experiments.fig4 import run_fig4
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.workloads import streamcluster


def small_sc():
    return dataclasses.replace(streamcluster(), work_bytes=150e9)


QUICK_POLICIES = ("first-touch", "uniform-workers", "uniform-all", "bwap")


class TestFig1Runners:
    def test_fig1a_exact(self):
        r = run_fig1a()
        assert r.max_relative_error < 0.01
        assert "9.2" in r.render()

    def test_fig1b_reduced(self):
        r = run_fig1b(benchmarks=[small_sc()], search_iterations=15)
        series = r.normalized["SC"]
        assert series["n-dim search"] == 1.0
        assert series["first-touch"] > 1.0
        assert "SC" in r.render()
        assert r.oracle_weights["SC"].sum() == pytest.approx(1.0)


class TestFig2Runner:
    def test_reduced_panel(self):
        r = run_fig2(
            worker_counts=(2,), policies=QUICK_POLICIES, benchmarks=[small_sc()]
        )
        series = r.speedups[2]["SC"]
        assert series["uniform-workers"] == pytest.approx(1.0)
        assert set(series) == set(QUICK_POLICIES)
        assert r.best_policy(2, "SC") in QUICK_POLICIES
        assert "Fig. 2" in r.render()

    def test_exec_times_recorded(self):
        r = run_fig2(
            worker_counts=(1,),
            policies=("uniform-workers", "uniform-all"),
            benchmarks=[small_sc()],
        )
        assert r.exec_times[1]["SC"]["uniform-all"] > 0


class TestFig3Runner:
    def test_fig3ab_reduced(self):
        r = run_fig3ab(
            worker_counts=(1,),
            policies=("uniform-workers", "uniform-all", "bwap"),
            benchmarks=[small_sc()],
        )
        assert r.speedups[1]["SC"]["uniform-workers"] == pytest.approx(1.0)
        assert "Fig. 3a" in r.render()


class TestFig4Runner:
    def test_reduced_sweep(self):
        r = run_fig4(worker_counts=(1,), dwp_values=[0.0, 0.5, 1.0])
        panel = r.panels[1]
        assert len(panel.sweep) == 3
        assert 0.0 <= panel.bwap_final_dwp <= 1.0
        assert panel.bwap_trajectory  # the search left a trace
        rows = panel.normalised_rows()
        assert max(row[2] for row in rows) == pytest.approx(1.0)
        assert "Fig. 4" in r.render()


class TestTableRunners:
    def test_table1_single_bench(self):
        r = run_table1(benchmarks=[streamcluster()])
        c = r.measured["SC"]
        assert c.shared_pct == pytest.approx(99.8, abs=0.5)
        assert "Table I" in r.render()

    def test_table2_single_scenario(self):
        r = run_table2(scenarios=[("B", 1)], benchmarks=[small_sc()])
        assert ("B", 1) in r.measured["SC"]
        assert 0.0 <= r.measured["SC"][("B", 1)] <= 100.0
        assert "Table II" in r.render()


class _FixedWarmPredictor:
    """Stub predictor: a constant warm start, no model machinery."""

    def predict(self, machine, workload, workers, canonical=None):
        return 0.2


class TestWarmStartRunner:
    def test_quick_grid_with_stub_predictor(self):
        from repro.experiments.warmstart import run_warmstart

        r = run_warmstart(predictor=_FixedWarmPredictor(), quick=True)
        assert len(r.cells) == 2 * 3 * 3  # deployments x benchmarks x variants
        warm = r.cell("B1W", "SC", "warm")
        assert warm.warm_dwp == 0.2
        assert warm.outcome.final_dwp >= 0.2
        # The plain and hardened cells never see the warm start.
        assert r.cell("B1W", "SC", "plain").warm_dwp is None
        assert r.probe_ratio() > 0.0 and r.traffic_ratio() > 0.0
        assert "aggregate probe ratio" in r.render()
