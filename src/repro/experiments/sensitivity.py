"""Sensitivity studies over the design space.

The paper's results tie BWAP's gains to machine asymmetry ("the largest
speedups ... are observed on machine A, which has the most asymmetric
topology") and to worker-set size. These studies make those relationships
explicit curves by sweeping synthetic machines and deployments — the kind
of analysis the paper's evaluation implies but cannot run on two fixed
boxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.core import BWAPConfig, CanonicalTuner, bwap_init
from repro.engine import Application, Simulator, pick_worker_nodes
from repro.experiments.report import format_table
from repro.memsim import UniformAll, UniformWorkers
from repro.perf.counters import MeasurementConfig
from repro.topology import from_bandwidth_matrix
from repro.topology.machine import Machine
from repro.units import MiB
from repro.workloads.base import WorkloadSpec

QUICK = MeasurementConfig(n=8, c=2, t=0.1)


def asymmetric_machine(amplitude: float, *, n: int = 4, local_bw: float = 20.0) -> Machine:
    """A synthetic machine whose remote bandwidths span ``amplitude``.

    Remote entries fall geometrically from ``local/2`` down to
    ``local/amplitude`` with node distance, giving a controlled asymmetry
    knob (amplitude 2 = machine-B-like, 6 = machine-A-like).
    """
    if amplitude < 2.0:
        raise ValueError(f"amplitude must be >= 2 (local/2 is the best remote), got {amplitude}")
    strongest = local_bw / 2.0
    weakest = local_bw / amplitude
    m = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                m[i, j] = local_bw
            else:
                dist = (abs(i - j) - 1) / max(n - 2, 1)
                m[i, j] = strongest * (weakest / strongest) ** dist
    return from_bandwidth_matrix(
        m, cores_per_node=4, name=f"synthetic-{amplitude:.1f}x"
    )


def probe_workload() -> WorkloadSpec:
    """A bandwidth-hungry probe application for the sweeps."""
    return WorkloadSpec(
        name="probe",
        read_bw_node=26.0,
        write_bw_node=3.0,
        private_fraction=0.1,
        latency_weight=0.15,
        shared_bytes=64 * MiB,
        private_bytes_per_thread=2 * MiB,
        work_bytes=500e9,
    )


@dataclass
class AsymmetrySweepResult:
    """BWAP gain as a function of machine asymmetry."""

    #: amplitude -> (bwap time, uniform-all time, uniform-workers time)
    times: Dict[float, Tuple[float, float, float]]

    def gains_vs_uniform_workers(self) -> Dict[float, float]:
        """BWAP speedup over local-only placement per amplitude."""
        return {a: uw / b for a, (b, _ua, uw) in self.times.items()}

    def gains_vs_uniform_all(self) -> Dict[float, float]:
        """BWAP speedup over uniform interleaving per amplitude — the
        curve that shows asymmetry-awareness paying off: uniform-all
        over-commits ever-weaker links as the amplitude grows, while
        BWAP's weighted placement adapts."""
        return {a: ua / b for a, (b, ua, _uw) in self.times.items()}

    def render(self) -> str:
        rows = [
            [f"{a:.1f}x", b, ua, uw, uw / b]
            for a, (b, ua, uw) in sorted(self.times.items())
        ]
        return format_table(
            ["asymmetry", "bwap (s)", "uniform-all (s)", "uniform-workers (s)",
             "bwap gain"],
            rows,
            title="BWAP gain vs machine asymmetry (synthetic 4-node machines, 1 worker)",
        )


def run_asymmetry_sweep(
    amplitudes: Sequence[float] = (2.0, 3.0, 4.0, 6.0, 8.0),
) -> AsymmetrySweepResult:
    """Sweep synthetic machines of growing asymmetry."""
    wl = probe_workload()
    times: Dict[float, Tuple[float, float, float]] = {}
    for a in amplitudes:
        machine = asymmetric_machine(a)
        workers = pick_worker_nodes(machine, 1)

        def run(policy, use_bwap=False):
            sim = Simulator(machine)
            app = sim.add_app(
                Application("p", wl, machine, workers,
                            policy=None if use_bwap else policy)
            )
            if use_bwap:
                bwap_init(
                    sim, app, canonical_tuner=CanonicalTuner(machine),
                    config=BWAPConfig(measurement=QUICK, warmup_s=0.2),
                )
            return sim.run().execution_time("p")

        times[a] = (
            run(None, use_bwap=True),
            run(UniformAll()),
            run(UniformWorkers()),
        )
    return AsymmetrySweepResult(times=times)


@dataclass
class OracleAsymmetrySweepResult:
    """Analytic oracle gain as a function of machine asymmetry.

    The all-analytic companion of :class:`AsymmetrySweepResult`: instead of
    simulating BWAP's online climb, the batched hill-climbing oracle finds
    the best weight vector outright and the uniform baselines are scored
    through the same batched evaluator — so the whole sweep runs in
    milliseconds and isolates what the *placement itself* is worth,
    independent of tuner dynamics.
    """

    #: amplitude -> (oracle time, uniform-all time, uniform-workers time)
    times: Dict[float, Tuple[float, float, float]]
    #: amplitude -> oracle weight vector
    weights: Dict[float, np.ndarray]

    def gains_vs_uniform_all(self) -> Dict[float, float]:
        """Oracle speedup over uniform interleaving per amplitude."""
        return {a: ua / o for a, (o, ua, _uw) in self.times.items()}

    def render(self) -> str:
        rows = [
            [f"{a:.1f}x", o, ua, uw, ua / o]
            for a, (o, ua, uw) in sorted(self.times.items())
        ]
        return format_table(
            ["asymmetry", "oracle (s)", "uniform-all (s)", "uniform-workers (s)",
             "oracle gain"],
            rows,
            title=(
                "Oracle placement gain vs machine asymmetry "
                "(batched analytic search, synthetic 4-node machines, 1 worker)"
            ),
        )


def run_oracle_asymmetry_sweep(
    amplitudes: Sequence[float] = (2.0, 3.0, 4.0, 6.0, 8.0),
    *,
    search_iterations: int = 60,
) -> OracleAsymmetrySweepResult:
    """Hill-climb the oracle weights on each synthetic machine."""
    from repro.core.search import (
        make_analytic_evaluator,
        search_optimal_placement,
        uniform_workers_start,
    )

    wl = probe_workload()
    times: Dict[float, Tuple[float, float, float]] = {}
    weights: Dict[float, np.ndarray] = {}
    for a in amplitudes:
        machine = asymmetric_machine(a)
        workers = pick_worker_nodes(machine, 1)
        search = search_optimal_placement(
            machine, wl, workers, max_iterations=search_iterations
        )
        evaluator = make_analytic_evaluator(machine, wl, workers)
        n = machine.num_nodes
        baselines = np.stack(
            [np.full(n, 1.0 / n), uniform_workers_start(n, workers)]
        )
        t_uniform_all, t_uniform_workers = evaluator.evaluate_many(baselines)
        times[a] = (search.objective, float(t_uniform_all), float(t_uniform_workers))
        weights[a] = search.weights
    return OracleAsymmetrySweepResult(times=times, weights=weights)


@dataclass
class WorkerSweepResult:
    """BWAP gain as a function of worker-set size (fixed machine)."""

    #: num_workers -> (bwap time, uniform-all time)
    times: Dict[int, Tuple[float, float]]

    def gains(self) -> Dict[int, float]:
        return {n: ua / b for n, (b, ua) in self.times.items()}

    def render(self) -> str:
        rows = [
            [n, b, ua, ua / b] for n, (b, ua) in sorted(self.times.items())
        ]
        return format_table(
            ["workers", "bwap (s)", "uniform-all (s)", "bwap gain"],
            rows,
            title="BWAP gain vs worker-set size (machine A, stand-alone probe)",
        )


def run_worker_sweep(
    worker_counts: Sequence[int] = (1, 2, 4, 8),
) -> WorkerSweepResult:
    """Sweep the worker-set size on machine A."""
    from repro.experiments.common import get_canonical, get_machine

    machine = get_machine("A")
    canonical = get_canonical(machine)
    wl = probe_workload()
    times: Dict[int, Tuple[float, float]] = {}
    for n in worker_counts:
        workers = pick_worker_nodes(machine, n)

        sim = Simulator(machine)
        app = sim.add_app(Application("p", wl, machine, workers, policy=None))
        bwap_init(sim, app, canonical_tuner=canonical,
                  config=BWAPConfig(measurement=QUICK, warmup_s=0.2))
        t_bwap = sim.run().execution_time("p")

        sim = Simulator(machine)
        sim.add_app(Application("p", wl, machine, workers, policy=UniformAll()))
        t_ua = sim.run().execution_time("p")
        times[n] = (t_bwap, t_ua)
    return WorkerSweepResult(times=times)
