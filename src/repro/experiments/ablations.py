"""Ablation studies from Section IV-B.

* **Canonical tuner contribution** — full BWAP vs BWAP-uniform (paper: up
  to 1.32x, largest on machine A).
* **User-level vs kernel-level weighted interleave** — placement accuracy
  (total-variation distance from the target weights) and end-to-end
  performance (paper: kernel gains at most 3%).
* **DWP tuner overhead** — BWAP's on-line search vs an oracle run that
  starts directly at the DWP BWAP eventually finds (paper: at most 4%).
* **Analytic DWP probe** — the full DWP ladder scored offline in one
  batched contention solve per scenario, showing where the analytic model
  says the online climb should settle and what it is worth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.core import BWAPConfig
from repro.core.dwp import dwp_probe_curve
from repro.core.interleave import (
    apply_weighted_kernel,
    apply_weighted_user,
    placement_error,
)
from repro.experiments.common import get_canonical, get_machine, run_scenario
from repro.experiments.report import format_table
from repro.memsim import AddressSpace
from repro.workloads import paper_benchmarks


@dataclass
class CanonicalAblation:
    """Speedup of full BWAP over BWAP-uniform per benchmark/scenario."""

    #: (machine, workers) -> benchmark -> bwap/bwap-uniform speedup
    gains: Dict[Tuple[str, int], Dict[str, float]]

    def max_gain(self) -> float:
        """The headline number (paper: up to 1.32x)."""
        return max(g for by_bench in self.gains.values() for g in by_bench.values())

    def render(self) -> str:
        rows = []
        for (m, n), by_bench in sorted(self.gains.items()):
            for bench, g in by_bench.items():
                rows.append([f"{m}:{n}W", bench, g])
        return format_table(
            ["scenario", "bench", "bwap / bwap-uniform"],
            rows,
            title="Canonical tuner contribution (speedup of full BWAP over BWAP-uniform)",
        )


def run_canonical_ablation(
    *,
    scenarios: Sequence[Tuple[str, int]] = (("A", 1), ("A", 2), ("B", 1)),
    benchmarks=None,
    seed: int = 42,
) -> CanonicalAblation:
    """Compare BWAP with and without the canonical tuner (co-scheduled)."""
    workloads = benchmarks if benchmarks is not None else paper_benchmarks()
    gains: Dict[Tuple[str, int], Dict[str, float]] = {}
    for mname, n in scenarios:
        machine = get_machine(mname)
        gains[(mname, n)] = {}
        for wl in workloads:
            full = run_scenario(machine, wl, n, "bwap", coscheduled=True, seed=seed)
            uni = run_scenario(machine, wl, n, "bwap-uniform", coscheduled=True, seed=seed)
            gains[(mname, n)][wl.name] = uni.exec_time_s / full.exec_time_s
    return CanonicalAblation(gains=gains)


@dataclass
class InterleaveAblation:
    """User-level (Algorithm 1) vs kernel-level weighted interleave."""

    #: per segment size: (user TV error, kernel TV error)
    accuracy: Dict[int, Tuple[float, float]]
    #: benchmark -> kernel-mode speedup over user mode
    perf_gain: Dict[str, float]

    def max_perf_gain(self) -> float:
        """Headline (paper: kernel gains at most ~3%)."""
        return max(self.perf_gain.values()) if self.perf_gain else 1.0

    def render(self) -> str:
        rows = [
            [f"{pages} pages", f"{u:.4f}", f"{k:.4f}"]
            for pages, (u, k) in sorted(self.accuracy.items())
        ]
        acc = format_table(
            ["segment", "user TV error", "kernel TV error"],
            rows,
            title="Weighted-interleave accuracy (total-variation vs target weights)",
        )
        rows2 = [[b, g] for b, g in self.perf_gain.items()]
        perf = format_table(
            ["bench", "kernel/user speedup"],
            rows2,
            title="End-to-end effect of the exact kernel policy",
        )
        return acc + "\n\n" + perf


def run_interleave_ablation(
    *,
    segment_pages: Sequence[int] = (1_000, 10_000, 100_000),
    benchmarks=None,
    num_workers: int = 2,
    seed: int = 42,
) -> InterleaveAblation:
    """Measure Algorithm 1's inaccuracy and its performance impact."""
    machine = get_machine("A")
    canonical = get_canonical(machine)
    workers = tuple(sorted(machine.worker_sets_of_size(num_workers)[0]))
    weights = canonical.weights(workers)

    accuracy: Dict[int, Tuple[float, float]] = {}
    for pages in segment_pages:
        space_u = AddressSpace(machine.num_nodes)
        seg_u = space_u.map_segment("s", pages * 4096)
        apply_weighted_user(space_u, seg_u, weights)
        space_k = AddressSpace(machine.num_nodes)
        seg_k = space_k.map_segment("s", pages * 4096)
        apply_weighted_kernel(space_k, seg_k, weights)
        accuracy[pages] = (
            placement_error(space_u, weights),
            placement_error(space_k, weights),
        )

    workloads = benchmarks if benchmarks is not None else paper_benchmarks()
    perf: Dict[str, float] = {}
    for wl in workloads:
        user = run_scenario(
            machine, wl, num_workers, "bwap",
            bwap_config=BWAPConfig(mode="user"), coscheduled=True, seed=seed,
        )
        kernel = run_scenario(
            machine, wl, num_workers, "bwap",
            bwap_config=BWAPConfig(mode="kernel"), coscheduled=True, seed=seed,
        )
        perf[wl.name] = user.exec_time_s / kernel.exec_time_s
    return InterleaveAblation(accuracy=accuracy, perf_gain=perf)


@dataclass
class OverheadResult:
    """DWP-tuner overhead per benchmark/scenario."""

    #: (machine, workers) -> benchmark -> overhead fraction (0.04 = 4%)
    overhead: Dict[Tuple[str, int], Dict[str, float]]

    def max_overhead(self) -> float:
        """Headline (paper: at most 4%)."""
        return max(o for by_bench in self.overhead.values() for o in by_bench.values())

    def render(self) -> str:
        rows = []
        for (m, n), by_bench in sorted(self.overhead.items()):
            for bench, o in by_bench.items():
                rows.append([f"{m}:{n}W", bench, f"{100 * o:.1f}%"])
        return format_table(
            ["scenario", "bench", "overhead"],
            rows,
            title="DWP tuner overhead (vs oracle start at the found DWP)",
        )


def run_overhead(
    *,
    scenarios: Sequence[Tuple[str, int]] = (("A", 1), ("A", 2)),
    benchmarks=None,
    seed: int = 42,
) -> OverheadResult:
    """Compare BWAP's on-line search against starting at its final DWP."""
    workloads = benchmarks if benchmarks is not None else paper_benchmarks()
    overhead: Dict[Tuple[str, int], Dict[str, float]] = {}
    for mname, n in scenarios:
        machine = get_machine(mname)
        overhead[(mname, n)] = {}
        for wl in workloads:
            online = run_scenario(machine, wl, n, "bwap", coscheduled=True, seed=seed)
            oracle = run_scenario(
                machine, wl, n, "bwap-static",
                static_dwp=online.final_dwp or 0.0, coscheduled=True, seed=seed,
            )
            overhead[(mname, n)][wl.name] = max(
                0.0, online.exec_time_s / oracle.exec_time_s - 1.0
            )
    return OverheadResult(overhead=overhead)


@dataclass
class DWPProbeAblation:
    """Offline DWP curves from the batched analytic evaluator."""

    #: probed DWP ladder (shared by all scenarios)
    dwp_values: Tuple[float, ...]
    #: (machine, workers) -> benchmark -> analytic time at each DWP
    curves: Dict[Tuple[str, int], Dict[str, np.ndarray]]

    def best_dwp(self) -> Dict[Tuple[str, int], Dict[str, float]]:
        """The analytically optimal DWP per scenario/benchmark."""
        return {
            key: {
                bench: self.dwp_values[int(np.argmin(times))]
                for bench, times in by_bench.items()
            }
            for key, by_bench in self.curves.items()
        }

    def max_gain(self) -> float:
        """Largest predicted speedup of the best DWP over DWP = 0."""
        return max(
            float(times[0] / times.min())
            for by_bench in self.curves.values()
            for times in by_bench.values()
        )

    def render(self) -> str:
        best = self.best_dwp()
        rows = []
        for (m, n), by_bench in sorted(self.curves.items()):
            for bench, times in by_bench.items():
                rows.append(
                    [
                        f"{m}:{n}W",
                        bench,
                        f"{best[(m, n)][bench]:.1f}",
                        float(times[0] / times.min()),
                    ]
                )
        return format_table(
            ["scenario", "bench", "best DWP", "gain vs DWP=0"],
            rows,
            title="Analytic DWP probe (batched evaluator, canonical weights)",
        )


def run_dwp_probe_ablation(
    *,
    scenarios: Sequence[Tuple[str, int]] = (("A", 1), ("A", 2), ("B", 1)),
    benchmarks=None,
    dwp_values: Sequence[float] = tuple(i / 10 for i in range(11)),
) -> DWPProbeAblation:
    """Score the full DWP ladder offline for each scenario/benchmark.

    Unlike :func:`run_overhead`, no simulation runs at all: every curve is
    one call to :func:`repro.core.dwp.dwp_probe_curve`, which batches the
    whole ladder through a single vectorised contention solve per filling
    round.
    """
    workloads = benchmarks if benchmarks is not None else paper_benchmarks()
    ladder = tuple(float(d) for d in dwp_values)
    curves: Dict[Tuple[str, int], Dict[str, np.ndarray]] = {}
    for mname, n in scenarios:
        machine = get_machine(mname)
        canonical = get_canonical(machine)
        workers = tuple(sorted(machine.worker_sets_of_size(n)[0]))
        weights = canonical.weights(workers)
        curves[(mname, n)] = {
            wl.name: dwp_probe_curve(machine, wl, workers, weights, ladder)
            for wl in workloads
        }
    return DWPProbeAblation(dwp_values=ladder, curves=curves)
