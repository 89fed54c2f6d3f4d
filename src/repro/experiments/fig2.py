"""Fig. 2 — co-scheduled scenario on machine A (Section IV-A).

Each benchmark (application B) runs on 1, 2, or 4 worker nodes while
Swaptions (application A) occupies the remaining nodes. Bars are speedups
versus uniform-workers for every placement policy, including BWAP and the
BWAP-uniform ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.experiments.common import (
    ALL_POLICIES,
    ScenarioSpec,
    get_machine,
    run_specs,
    speedups_vs,
)
from repro.experiments.report import format_speedup_series
from repro.workloads import paper_benchmarks


@dataclass
class Fig2Result:
    """Speedups vs uniform-workers, per worker count and benchmark."""

    #: worker count -> benchmark -> policy -> speedup
    speedups: Dict[int, Dict[str, Dict[str, float]]]
    #: worker count -> benchmark -> policy -> raw execution time (s)
    exec_times: Dict[int, Dict[str, Dict[str, float]]]

    def best_policy(self, num_workers: int, benchmark: str) -> str:
        """Which policy wins a given panel/bar group."""
        series = self.speedups[num_workers][benchmark]
        return max(series, key=series.get)

    def render(self) -> str:
        parts = []
        for n, series in sorted(self.speedups.items()):
            parts.append(
                format_speedup_series(
                    series,
                    title=f"Fig. 2 ({n} worker node{'s' if n > 1 else ''}, "
                    "co-scheduled, machine A)",
                )
            )
        return "\n\n".join(parts)


def run_fig2(
    *,
    worker_counts: Sequence[int] = (1, 2, 4),
    policies: Sequence[str] = ALL_POLICIES,
    benchmarks=None,
    seed: int = 42,
    jobs=None,
) -> Fig2Result:
    """Regenerate Fig. 2a-c.

    The full (worker count x benchmark x policy) grid is built up front and
    fanned out across processes when ``jobs`` > 1 (or the process default
    set by the CLI's ``--jobs`` flag); results merge back in grid order, so
    parallel output is identical to serial.
    """
    get_machine("A")  # fail fast on registry problems before any fan-out
    workloads = benchmarks if benchmarks is not None else paper_benchmarks()
    grid = [(n, wl) for n in worker_counts for wl in workloads]
    specs = [
        ScenarioSpec(
            machine="A",
            workload=wl,
            num_workers=n,
            policy=p,
            coscheduled=True,
            seed=seed,
        )
        for (n, wl) in grid
        for p in policies
    ]
    results = run_specs(specs, jobs=jobs)

    speedups: Dict[int, Dict[str, Dict[str, float]]] = {}
    times: Dict[int, Dict[str, Dict[str, float]]] = {}
    per_cell = len(policies)
    for i, (n, wl) in enumerate(grid):
        outcomes = dict(zip(policies, results[i * per_cell : (i + 1) * per_cell]))
        speedups.setdefault(n, {})[wl.name] = speedups_vs(outcomes)
        times.setdefault(n, {})[wl.name] = {
            p: o.exec_time_s for p, o in outcomes.items()
        }
    return Fig2Result(speedups=speedups, exec_times=times)
