"""Fig. 1 — motivation (Section II).

* **Fig. 1a**: the node-to-node bandwidth matrix of machine A, profiled
  pair-at-a-time.
* **Fig. 1b**: execution time of first-touch / uniform-workers /
  uniform-all, normalised to the placement found by the offline
  N-dimensional hill-climbing search — five benchmarks, 2 worker nodes with
  8 threads each, machine A, stand-alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.search import search_optimal_placement
from repro.engine import pick_worker_nodes
from repro.experiments.common import get_machine, run_scenario
from repro.experiments.report import format_matrix, format_table
from repro.memsim.contention import isolated_bandwidth_matrix
from repro.topology.builders import MACHINE_A_BANDWIDTH_MATRIX
from repro.workloads import paper_benchmarks


@dataclass
class Fig1aResult:
    """Measured matrix plus its deviation from the paper's (Fig. 1a)."""

    measured: np.ndarray
    paper: np.ndarray

    @property
    def max_relative_error(self) -> float:
        """Worst-case relative deviation from the paper's matrix."""
        return float(np.abs(self.measured - self.paper).max() / self.paper.min())

    def render(self) -> str:
        return format_matrix(
            self.measured,
            title="Fig. 1a — machine A node-to-node bandwidth (GB/s), pairwise profile",
        )


def run_fig1a() -> Fig1aResult:
    """Profile machine A's pairwise bandwidth matrix."""
    machine = get_machine("A")
    measured = isolated_bandwidth_matrix(machine)
    return Fig1aResult(measured=measured, paper=MACHINE_A_BANDWIDTH_MATRIX.copy())


@dataclass
class Fig1bResult:
    """Normalised execution times vs the n-dimensional search oracle."""

    #: benchmark -> policy -> execution time normalised to the oracle
    #: (1.0 = oracle; larger = slower, as in the paper's bars).
    normalized: Dict[str, Dict[str, float]]
    oracle_times: Dict[str, float]
    oracle_weights: Dict[str, np.ndarray]

    def render(self) -> str:
        benchmarks = list(self.normalized)
        policies = list(next(iter(self.normalized.values())))
        rows = [
            [p] + [self.normalized[b][p] for b in benchmarks] for p in policies
        ]
        return format_table(
            ["policy"] + benchmarks,
            rows,
            title=(
                "Fig. 1b — execution time normalised to the n-dim search "
                "(machine A, 2 workers; lower is better, oracle = 1.0)"
            ),
        )


_FIG1B_POLICIES = ("first-touch", "uniform-workers", "uniform-all")


def run_fig1b(
    *,
    num_workers: int = 2,
    search_iterations: int = 60,
    benchmarks=None,
) -> Fig1bResult:
    """Fig. 1b: baselines vs the offline N-dimensional search.

    The oracle leg runs through the batched hill climb: each iteration's
    whole neighbour set is scored as one weight matrix by the batched
    analytic evaluator, so the search cost is a small fraction of the
    simulated baseline runs.
    """
    machine = get_machine("A")
    workloads = benchmarks if benchmarks is not None else paper_benchmarks()
    workers = pick_worker_nodes(machine, num_workers)

    normalized: Dict[str, Dict[str, float]] = {}
    oracle_times: Dict[str, float] = {}
    oracle_weights: Dict[str, np.ndarray] = {}
    for wl in workloads:
        search = search_optimal_placement(
            machine, wl, workers, max_iterations=search_iterations
        )
        # The paper averages the top near-optimal distributions, all within
        # 3% of the optimum.
        top_times = [t for _, t in search.top if t <= search.objective * 1.03]
        oracle = float(np.mean(top_times)) if top_times else search.objective
        oracle_times[wl.name] = oracle
        oracle_weights[wl.name] = search.weights
        normalized[wl.name] = {}
        for policy in _FIG1B_POLICIES:
            out = run_scenario(machine, wl, num_workers, policy)
            normalized[wl.name][policy] = out.exec_time_s / oracle
        normalized[wl.name]["n-dim search"] = 1.0
    return Fig1bResult(
        normalized=normalized, oracle_times=oracle_times, oracle_weights=oracle_weights
    )
