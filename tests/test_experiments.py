"""Experiment harness: scenario runner, report rendering, CLI."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import CanonicalTuner

from repro.experiments.common import (
    get_canonical,
    get_machine,
    optimal_worker_count,
    policy_comparison,
    run_scenario,
    speedups_vs,
)
from repro.experiments.report import format_matrix, format_speedup_series, format_table
from repro.topology import fully_connected
from repro.units import MiB
from repro.workloads.base import WorkloadSpec


def quick_wl(**kw):
    base = dict(
        name="q",
        read_bw_node=12.0,
        write_bw_node=3.0,
        private_fraction=0.3,
        latency_weight=0.2,
        shared_bytes=32 * MiB,
        private_bytes_per_thread=2 * MiB,
        work_bytes=150e9,
    )
    base.update(kw)
    return WorkloadSpec(**base)


class TestGetMachine:
    def test_machines_cached(self):
        assert get_machine("A") is get_machine("a")
        assert get_machine("B").num_nodes == 4

    def test_unknown_machine(self):
        with pytest.raises(KeyError):
            get_machine("C")

    def test_canonical_cached(self):
        m = get_machine("B")
        assert get_canonical(m) is get_canonical(m)


#: Runs the second machine's scenario of
#: :class:`TestCanonicalSameName` alone in a fresh interpreter.
_FRESH_RUN = """
import json, sys
sys.path[:0] = sys.argv[1:]
from repro.experiments.common import run_scenario
from repro.topology import fully_connected
from tests.test_experiments import quick_wl
out = run_scenario(fully_connected(4, remote_bw=2.0), quick_wl(), 1, "bwap")
print(json.dumps(out.to_payload()))
"""


class TestCanonicalSameName:
    """Two machines that share a name but differ in structure each get
    their own canonical profile: the cache is keyed by the machine object,
    not by its name."""

    def test_weights_follow_the_machine_not_its_name(self):
        fast = fully_connected(4, remote_bw=8.0)
        slow = fully_connected(4, remote_bw=2.0)
        assert fast.name == slow.name
        for m in (fast, slow):
            for workers in ([0], [0, 1]):
                np.testing.assert_array_equal(
                    get_canonical(m).weights(workers), CanonicalTuner(m).weights(workers)
                )
        assert get_canonical(slow).weights([0])[0] > 0.7

    def test_bwap_run_equals_a_fresh_process(self):
        first = run_scenario(fully_connected(4, remote_bw=8.0), quick_wl(), 1, "bwap")
        second = run_scenario(fully_connected(4, remote_bw=2.0), quick_wl(), 1, "bwap")
        root = Path(__file__).resolve().parents[1]
        fresh = subprocess.run(
            [sys.executable, "-c", _FRESH_RUN, str(root / "src"), str(root)],
            capture_output=True, text=True, check=True,
        )
        assert second.to_payload() == json.loads(fresh.stdout)
        assert second != first


class TestRunScenario:
    def test_standalone_baseline(self):
        out = run_scenario(get_machine("B"), quick_wl(), 1, "uniform-all")
        assert out.exec_time_s > 0
        assert out.final_dwp is None

    def test_bwap_reports_dwp(self):
        out = run_scenario(get_machine("B"), quick_wl(), 1, "bwap")
        assert out.final_dwp is not None
        assert out.tuner_iterations >= 1

    def test_coscheduled_adds_app_a(self):
        out = run_scenario(
            get_machine("B"), quick_wl(), 1, "uniform-workers", coscheduled=True
        )
        assert out.exec_time_s > 0

    def test_coscheduled_full_machine_rejected(self):
        with pytest.raises(ValueError):
            run_scenario(get_machine("B"), quick_wl(), 4, "bwap", coscheduled=True)

    def test_static_dwp_policy(self):
        out = run_scenario(
            get_machine("B"), quick_wl(), 1, "bwap-static", static_dwp=0.5
        )
        assert out.exec_time_s > 0

    def test_static_dwp_requires_value(self):
        with pytest.raises(ValueError):
            run_scenario(get_machine("B"), quick_wl(), 1, "bwap-static")

    def test_weighted_requires_weights(self):
        with pytest.raises(ValueError):
            run_scenario(get_machine("B"), quick_wl(), 1, "weighted")

    def test_weighted_policy(self):
        out = run_scenario(
            get_machine("B"), quick_wl(), 1, "weighted",
            static_weights=np.array([0.4, 0.2, 0.2, 0.2]),
        )
        assert out.exec_time_s > 0

    def test_unknown_policy(self):
        with pytest.raises(KeyError):
            run_scenario(get_machine("B"), quick_wl(), 1, "bogus")

    def test_speedup_over(self):
        fast = run_scenario(get_machine("B"), quick_wl(), 2, "uniform-all")
        slow = run_scenario(get_machine("B"), quick_wl(), 2, "first-touch")
        assert fast.speedup_over(slow) > 1.0


class TestComparisons:
    def test_policy_comparison_and_normalisation(self):
        outcomes = policy_comparison(
            get_machine("B"), quick_wl(), 1,
            policies=("first-touch", "uniform-workers", "uniform-all"),
        )
        sp = speedups_vs(outcomes)
        assert sp["uniform-workers"] == pytest.approx(1.0)
        assert set(sp) == {"first-touch", "uniform-workers", "uniform-all"}

    def test_optimal_worker_count(self):
        # A heavily multi-node-penalised workload prefers one node.
        wl = quick_wl(multi_node_penalty=1.0)
        n = optimal_worker_count(get_machine("B"), wl, (1, 2, 4))
        assert n == 1

    def test_scalable_workload_prefers_more_nodes(self):
        wl = quick_wl(read_bw_node=20.0, multi_node_penalty=0.0, serial_fraction=0.0)
        n = optimal_worker_count(get_machine("B"), wl, (1, 2, 4))
        assert n >= 2


class TestReportRendering:
    def test_format_table_alignment(self):
        s = format_table(["a", "bb"], [[1, 2.5], ["x", 3.25]])
        lines = s.splitlines()
        assert len(lines) == 4
        assert "2.50" in s and "3.25" in s

    def test_format_table_title(self):
        s = format_table(["x"], [[1]], title="T")
        assert s.splitlines()[0] == "T"

    def test_format_matrix_labels(self):
        s = format_matrix(np.eye(2), title="M")
        assert "N1" in s and "N2" in s

    def test_format_speedup_series(self):
        series = {"SC": {"bwap": 1.5, "uniform-workers": 1.0}}
        s = format_speedup_series(series)
        assert "bwap" in s and "SC" in s


class TestCli:
    def test_cli_lists_experiments(self, capsys):
        from repro.experiments.cli import EXPERIMENTS

        assert {"fig1a", "fig1b", "fig2", "fig3ab", "fig3cd",
                "fig4", "table1", "table2", "ablations"} <= set(EXPERIMENTS)

    def test_cli_fig1a_runs(self, capsys):
        from repro.experiments.cli import main

        assert main(["fig1a"]) == 0
        out = capsys.readouterr().out
        assert "9.2" in out  # machine A's local bandwidth

    def test_cli_rejects_unknown(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["bogus"])


class TestBenchCompare:
    """``bench-compare`` fails a guarded metric that regressed or went
    missing, unless a quick run declares it skipped."""

    @staticmethod
    def _write(directory, metrics, *, quick=False, skipped=()):
        import json

        directory.mkdir(exist_ok=True)
        entry = {
            "name": "x",
            "quick": quick,
            "metrics": metrics,
            "guarded": ["rate", "big_rate"],
            "skipped": list(skipped),
        }
        (directory / "BENCH_x.json").write_text(json.dumps(entry))

    def _compare(self, tmp_path, current, **kw):
        from repro.experiments.cli import bench_compare_main

        self._write(tmp_path / "base", {"rate": 10.0, "big_rate": 4.0})
        self._write(tmp_path / "cur", current, **kw)
        return bench_compare_main(
            ["--baseline", str(tmp_path / "base"), "--current", str(tmp_path / "cur")]
        )

    def test_within_tolerance_passes(self, tmp_path):
        assert self._compare(tmp_path, {"rate": 6.0, "big_rate": 4.0}) == 0

    def test_regression_fails(self, tmp_path):
        assert self._compare(tmp_path, {"rate": 4.0, "big_rate": 4.0}) == 1

    def test_missing_metric_fails(self, tmp_path):
        assert self._compare(tmp_path, {"rate": 10.0}) == 1

    def test_quick_run_may_skip_a_declared_metric(self, tmp_path, capsys):
        cur = {"rate": 10.0}
        assert self._compare(tmp_path, cur, quick=True, skipped=["big_rate"]) == 0
        assert "skipped in a quick run" in capsys.readouterr().out
        # Only a quick run may skip, and only what it declares.
        assert self._compare(tmp_path, cur, skipped=["big_rate"]) == 1
        assert self._compare(tmp_path, cur, quick=True) == 1


class TestDWPProbeAblation:
    def test_reduced_scenario(self):
        from repro.experiments.ablations import run_dwp_probe_ablation
        from repro.workloads import streamcluster

        r = run_dwp_probe_ablation(
            scenarios=(("B", 1),),
            benchmarks=[streamcluster()],
            dwp_values=(0.0, 0.5, 1.0),
        )
        curve = r.curves[("B", 1)]["SC"]
        assert curve.shape == (3,)
        assert (curve > 0).all()
        assert r.best_dwp()[("B", 1)]["SC"] in (0.0, 0.5, 1.0)
        assert r.max_gain() >= 1.0
        assert "best DWP" in r.render()
