"""Batched oracle search — speedup and exactness vs per-candidate scoring.

The hill climb scores each iteration's whole neighbour set as one weight
matrix through :class:`BatchedAnalyticEvaluator.evaluate_many`; the
pre-batching cost model is one evaluator construction plus one solve per
candidate. This benchmark pins down the two claims of the batched path:

1. **Speed** — the batched search runs >= 10x faster than the same climb
   with per-candidate ``analytic_execution_time`` calls (machine A,
   streamcluster, the Fig. 1b deployment).
2. **Exactness** — both paths walk bitwise-identical trajectories: same
   final weights, objectives within 1e-12 (they are in fact bitwise
   equal), same evaluation count; and ``evaluate_many`` over a stacked
   matrix equals the scalar evaluator row by row, bitwise.

Each side is timed ``_REPEATS`` times and the guarded speedup is the
median of the per-repeat ratios (as ``calibrated_rate`` takes medians), so
one noisy timing cannot move it. Set ``BWAP_BENCH_QUICK=1`` to skip the
timing assertion (CI smoke mode); the exactness assertions always run.
"""

import os
import statistics

import numpy as np

from repro.core.search import (
    analytic_execution_time,
    hill_climb,
    make_analytic_evaluator,
    search_optimal_placement,
    uniform_workers_start,
)
from repro.topology import machine_a
from repro.workloads import streamcluster

from conftest import timed

_QUICK = bool(os.environ.get("BWAP_BENCH_QUICK"))
_WORKER_SETS = ((0, 1), (0, 1, 2, 3))
_ITERATIONS = 60
_REPEATS = 5


def _scalar_search(machine, wl, workers):
    """The pre-batching cost model: fresh evaluator + solve per candidate."""

    def evaluate(w):
        return analytic_execution_time(machine, wl, workers, w)

    start = uniform_workers_start(machine.num_nodes, workers)
    return hill_climb(evaluate, start, max_iterations=_ITERATIONS)


def _run_pair(workers):
    machine = machine_a()
    wl = streamcluster()
    runs = []
    for _ in range(_REPEATS):
        batched, t_batched = timed(
            lambda: search_optimal_placement(machine, wl, workers, max_iterations=_ITERATIONS)
        )
        scalar, t_scalar = timed(lambda: _scalar_search(machine, wl, workers))
        runs.append((t_scalar / t_batched, t_batched, t_scalar))
    return {
        "workers": workers,
        "batched": batched,
        "scalar": scalar,
        "speedup": statistics.median(r[0] for r in runs),
        "t_batched": statistics.median(r[1] for r in runs),
        "t_scalar": statistics.median(r[2] for r in runs),
        "wall_s": sum(r[1] + r[2] for r in runs),
    }


class BenchSearch:
    def test_batched_search_speedup(self, benchmark, once, capsys, ledger):
        results = once(benchmark, lambda: [_run_pair(w) for w in _WORKER_SETS])
        metrics = {}
        for r in results:
            tag = f"w{len(r['workers'])}"
            metrics[f"speedup_{tag}"] = r["speedup"]
            metrics[f"batched_ms_{tag}"] = r["t_batched"] * 1e3
            metrics[f"evaluations_{tag}"] = r["batched"].evaluations
        ledger(
            "search",
            metrics,
            guarded=tuple(k for k in metrics if k.startswith("speedup_")),
            wall_s=sum(r["wall_s"] for r in results),
        )
        with capsys.disabled():
            print()
            print(
                "Oracle search: batched neighbour scoring vs per-candidate "
                f"solves (machine A, streamcluster, {_ITERATIONS} iterations, "
                f"medians of {_REPEATS}):"
            )
            for r in results:
                speedup = r["speedup"]
                print(
                    f"  workers {r['workers']}: batched {r['t_batched'] * 1e3:7.1f} ms, "
                    f"per-candidate {r['t_scalar'] * 1e3:7.1f} ms -> {speedup:5.1f}x "
                    f"({r['batched'].evaluations} evaluations)"
                )

        for r in results:
            batched, scalar = r["batched"], r["scalar"]
            # Identical trajectories: the batch of one is the scalar path.
            assert np.array_equal(batched.weights, scalar.weights)
            assert abs(batched.objective - scalar.objective) <= 1e-12
            assert batched.evaluations == scalar.evaluations
            assert batched.iterations == scalar.iterations
        if not _QUICK:
            for r in results:
                assert r["speedup"] >= 10.0

    def test_evaluate_many_matches_scalar(self):
        machine = machine_a()
        wl = streamcluster()
        for workers in _WORKER_SETS:
            ev = make_analytic_evaluator(machine, wl, workers)
            rng = np.random.RandomState(7)
            wm = rng.dirichlet(np.ones(machine.num_nodes), size=32)
            batched = ev.evaluate_many(wm)
            scalar = np.array([ev(w) for w in wm])
            assert np.array_equal(batched, scalar)
