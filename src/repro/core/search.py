"""Offline N-dimensional weight search (the paper's oracle baseline).

Section II's motivation experiment runs hill climbing over the full
N-dimensional space of weight distributions — ~180 iterations and 15+ hours
per application on the real machine. On the simulated substrate each
evaluation is a fast static run, so the same oracle regenerates Fig. 1b in
seconds. The search is also the ground truth the property tests compare
BWAP's two-stage approximation against.

The analytic objective is batched: :class:`BatchedAnalyticEvaluator` scores
a whole matrix of candidate weight vectors in one vectorised pass through
:func:`repro.memsim.contention.solve_batch_arrays`, and :func:`hill_climb`
submits each iteration's full neighbour set as one such matrix. The scalar
evaluator is the batch of one, so batched and one-at-a-time scoring give
bitwise-identical search trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.app import Application
from repro.engine.sim import Simulator
from repro.memsim.controller import DEFAULT_MC_MODEL, MCModel
from repro.memsim.policies import WeightedInterleave
from repro.topology.machine import Machine
from repro.workloads.base import WorkloadSpec

#: Weights below this are clamped to zero during the search.
_MIN_WEIGHT = 1e-4


@dataclass
class SearchResult:
    """Outcome of a hill-climbing run."""

    weights: np.ndarray
    objective: float
    evaluations: int
    iterations: int
    history: List[Tuple[np.ndarray, float]] = field(default_factory=list)
    #: The best few distinct distributions seen, most recent improvement
    #: first — the paper averages over the top-10 near-optima.
    top: List[Tuple[np.ndarray, float]] = field(default_factory=list)


def uniform_workers_start(num_nodes: int, worker_nodes: Sequence[int]) -> np.ndarray:
    """The paper's search starting point: uniform over the worker nodes."""
    w = np.zeros(num_nodes)
    workers = list(worker_nodes)
    w[workers] = 1.0 / len(workers)
    return w


def _dedupe_top(
    top: List[Tuple[np.ndarray, float]], keep_top: int
) -> List[Tuple[np.ndarray, float]]:
    """Best ``keep_top`` *distinct* distributions (already sorted by value).

    Post-clamp renormalisation can reproduce a vector already on the list;
    near-identical duplicates (equal to 6 decimals) would then occupy
    several of the paper's top-10 averaging slots.
    """
    seen = set()
    deduped = []
    for wt, val in top:
        key = tuple(np.round(wt, 6))
        if key in seen:
            continue
        seen.add(key)
        deduped.append((wt, val))
    return deduped[:keep_top]


def hill_climb(
    evaluate: Callable[[np.ndarray], float],
    start: np.ndarray,
    *,
    step: float = 0.25,
    max_iterations: int = 180,
    min_step: float = 0.02,
    keep_top: int = 10,
) -> SearchResult:
    """Minimise ``evaluate`` over the weight simplex by local moves.

    Each iteration tries transferring a ``step`` fraction of mass between
    every ordered node pair and keeps the best improving move; when no move
    improves, the step is halved until ``min_step``.

    If ``evaluate`` exposes an ``evaluate_many(weight_matrix)`` method (see
    :class:`BatchedAnalyticEvaluator`), each iteration's whole neighbour
    set is scored in one batched call. Candidate values are memoised per
    search either way, so a vector revisited across iterations is never
    re-evaluated; ``SearchResult.evaluations`` counts actual evaluator
    invocations.
    """
    w = np.asarray(start, dtype=float)
    if (w < 0).any() or w.sum() <= 0:
        raise ValueError("start must be a non-negative distribution")
    w = w / w.sum()
    n = len(w)

    evaluate_many = getattr(evaluate, "evaluate_many", None)
    memo: Dict[bytes, float] = {}
    evaluations = 0

    def score_all(cands: List[np.ndarray]) -> List[float]:
        nonlocal evaluations
        fresh: List[np.ndarray] = []
        queued = set()
        for cand in cands:
            key = cand.tobytes()
            if key not in memo and key not in queued:
                queued.add(key)
                fresh.append(cand)
        if fresh:
            if evaluate_many is not None:
                vals = evaluate_many(np.stack(fresh))
                for cand, val in zip(fresh, vals):
                    memo[cand.tobytes()] = float(val)
            else:
                for cand in fresh:
                    memo[cand.tobytes()] = float(evaluate(cand))
            evaluations += len(fresh)
        return [memo[cand.tobytes()] for cand in cands]

    best_val = score_all([w])[0]
    history: List[Tuple[np.ndarray, float]] = [(w.copy(), best_val)]
    top: List[Tuple[np.ndarray, float]] = [(w.copy(), best_val)]
    cur_step = step
    iterations = 0
    # dsts_of[s] = every destination node but s, ascending.
    dsts_of = np.array([[d for d in range(n) if d != s] for s in range(n)])

    for iterations in range(1, max_iterations + 1):
        # One move per ordered (src, dst) pair with mass left at src:
        # transfer `amount`, clamp dust to zero, renormalise. Built as one
        # matrix (row per move, same order as the nested-loop equivalent).
        srcs = np.nonzero(w > _MIN_WEIGHT)[0]
        amounts = np.minimum(cur_step * np.maximum(w[srcs], 1.0 / n), w[srcs])
        rows = np.arange(len(srcs) * (n - 1))
        cand_matrix = np.repeat(w[None, :], len(rows), axis=0)
        cand_matrix[rows, np.repeat(srcs, n - 1)] -= np.repeat(amounts, n - 1)
        cand_matrix[rows, dsts_of[srcs].ravel()] += np.repeat(amounts, n - 1)
        cand_matrix[cand_matrix < _MIN_WEIGHT] = 0.0
        cand_matrix /= cand_matrix.sum(axis=1, keepdims=True)
        candidates = list(cand_matrix)
        values = score_all(candidates)

        best_move: Optional[np.ndarray] = None
        best_move_val = best_val
        for cand, val in zip(candidates, values):
            if val < best_move_val - 1e-12:
                best_move, best_move_val = cand, val
        if best_move is None:
            if cur_step <= min_step:
                break
            cur_step /= 2.0
            continue
        w, best_val = best_move, best_move_val
        history.append((w.copy(), best_val))
        top.append((w.copy(), best_val))
        top.sort(key=lambda p: p[1])
        top = _dedupe_top(top, keep_top)

    return SearchResult(
        weights=w,
        objective=best_val,
        evaluations=evaluations,
        iterations=iterations,
        history=history,
        top=top,
    )


class BatchedAnalyticEvaluator:
    """Execution time under exact weighted placements, batched.

    Under the kernel-exact weighted interleave every segment — shared and
    private alike — follows the weight distribution, so each worker's
    traffic mix *is* the weight vector. That removes the address-space
    machinery from the inner loop; batching then scores a whole matrix of
    candidate weight vectors against one vectorised contention solve per
    round instead of one solve per candidate.

    Calling the evaluator with a single weight vector is exactly
    ``evaluate_many`` on a 1-row matrix, so scalar and batched scoring are
    bitwise-identical: every reduction that crosses the consumer axis
    accumulates sequentially (see ``contention._axis_n_dot``) and all
    remaining operations are elementwise over independent batch rows.
    """

    def __init__(
        self,
        machine: Machine,
        workload: WorkloadSpec,
        worker_nodes: Sequence[int],
        *,
        mc_model: MCModel = DEFAULT_MC_MODEL,
        num_threads: Optional[int] = None,
    ):
        from repro.engine.threads import pin_threads, threads_per_node
        from repro.memsim.contention import machine_tables
        from repro.perf.latency import DEFAULT_LATENCY_MODEL

        self.machine = machine
        self.workload = workload
        self.workers = tuple(worker_nodes)
        self.mc_model = mc_model

        thread_nodes = pin_threads(machine, self.workers, num_threads)
        counts = threads_per_node(thread_nodes)
        total_threads = len(thread_nodes)
        num_workers = len(self.workers)

        self._node_idx = np.array(self.workers, dtype=np.intp)
        self._demand = np.array(
            [
                workload.node_demand_gbps(
                    counts.get(nd, 0), total_threads, num_workers
                )
                for nd in self.workers
            ]
        )
        self._remaining0 = np.array(
            [
                workload.work_bytes * counts.get(nd, 0) / total_threads
                for nd in self.workers
            ]
        )
        self._write_fraction = np.full(num_workers, workload.write_fraction)
        self._useful = workload.node_efficiency(num_workers)
        self._latency_weight = workload.latency_weight

        tables = machine_tables(machine)
        self._tables = tables
        # Latency incidence restricted to the worker rows: Q_sel[i, s, r]
        # counts resource r's queueing delay in a (source s -> worker i)
        # access; lat0_sel[i, s] is that access's unloaded latency.
        self._Q_sel = tables.Q[self._node_idx]
        self._lat0_sel = tables.lat0[self._node_idx]
        self._base = np.array(
            [machine.access_latency_ns(nd, nd) for nd in self.workers]
        )
        self._queue_scale = DEFAULT_LATENCY_MODEL.queue_scale_ns
        self._max_util = 0.97  # latency._MAX_UTILIZATION

    def __call__(self, weights: np.ndarray) -> float:
        return float(self.evaluate_many(np.asarray(weights, dtype=float)[None, :])[0])

    def evaluate_many(self, weight_matrix: np.ndarray) -> np.ndarray:
        """Execution time for each row of a ``(batch, nodes)`` weight matrix."""
        from repro.memsim.contention import batch_coefficients, solve_batch_arrays

        wm = np.asarray(weight_matrix, dtype=float)
        if wm.ndim != 2 or wm.shape[1] != self.machine.num_nodes:
            raise ValueError(
                f"weight matrix must be (batch, {self.machine.num_nodes}), "
                f"got {wm.shape}"
            )
        wm = wm / wm.sum(axis=1, keepdims=True)
        num_batch, num_nodes = wm.shape
        num_workers = len(self.workers)

        node_idx = np.broadcast_to(self._node_idx, (num_batch, num_workers))
        mix = np.broadcast_to(
            wm[:, None, :], (num_batch, num_workers, num_nodes)
        ).copy()
        demand = np.broadcast_to(self._demand, (num_batch, num_workers))
        write_frac = np.broadcast_to(self._write_fraction, (num_batch, num_workers))

        # The incidence matrix only depends on the mixes, not on which
        # workers are still running — build it once for all rounds.
        coefficients = batch_coefficients(
            self.machine, node_idx, mix, write_frac, self.mc_model
        )

        remaining = np.broadcast_to(self._remaining0, (num_batch, num_workers)).copy()
        now = np.zeros(num_batch)
        for _ in range(num_workers + 1):
            act = remaining > 0
            part = act.any(axis=1)
            if not part.any():
                break
            arrays = solve_batch_arrays(
                self.machine,
                node_idx,
                mix,
                demand,
                write_frac,
                act,
                self.mc_model,
                coefficients=coefficients,
            )
            achieved = np.maximum(arrays.rates, 1e-12)

            # Loaded latency per (batch, worker): unloaded latency plus the
            # queueing delay of every resource on each source's path,
            # mix-averaged. Both contractions run over fixed machine axes
            # (resources, then sources) with the default non-BLAS einsum
            # kernel, whose per-output-element accumulation order never
            # depends on the batch size.
            util = np.minimum(arrays.util, self._max_util)
            queue_delay = self._queue_scale * util / (1.0 - util)
            per_src = self._lat0_sel + np.einsum(
                "wsr,br->bws", self._Q_sel, queue_delay
            )
            latency = np.einsum("bws,bs->bw", per_src, wm)

            bw_part = np.where(achieved >= demand, 1.0, demand / achieved)
            lat_part = latency / self._base
            slow = (
                (1.0 - self._latency_weight) * bw_part
                + self._latency_weight * lat_part
            )
            slow = np.where(demand > 0, slow, 1.0)
            rates = demand / slow * self._useful * 1e9

            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(act, remaining / rates, np.inf)
            dt = np.where(part, ratio.min(axis=1), 0.0)
            remaining = np.where(
                act, np.maximum(0.0, remaining - rates * dt[:, None]), remaining
            )
            now += dt
        return now


def analytic_execution_time(
    machine: Machine,
    workload: WorkloadSpec,
    worker_nodes: Sequence[int],
    weights: np.ndarray,
    *,
    mc_model: MCModel = DEFAULT_MC_MODEL,
    num_threads: Optional[int] = None,
) -> float:
    """Execution time under an exact weighted placement, without page tables.

    One-shot convenience wrapper over :class:`BatchedAnalyticEvaluator`
    (~50x faster than a full simulation; tests verify it agrees with the
    simulator). When scoring many weight vectors against one deployment,
    build the evaluator once and use ``evaluate_many``.
    """
    evaluator = BatchedAnalyticEvaluator(
        machine, workload, worker_nodes, mc_model=mc_model, num_threads=num_threads
    )
    return evaluator(weights)


def make_analytic_evaluator(
    machine: Machine,
    workload: WorkloadSpec,
    worker_nodes: Sequence[int],
    *,
    mc_model: MCModel = DEFAULT_MC_MODEL,
    num_threads: Optional[int] = None,
) -> BatchedAnalyticEvaluator:
    """Fast batched objective for one deployment (callable +
    ``evaluate_many``)."""
    return BatchedAnalyticEvaluator(
        machine, workload, worker_nodes, mc_model=mc_model, num_threads=num_threads
    )


def make_placement_evaluator(
    machine: Machine,
    workload: WorkloadSpec,
    worker_nodes: Sequence[int],
    *,
    mc_model: MCModel = DEFAULT_MC_MODEL,
    num_threads: Optional[int] = None,
) -> Callable[[np.ndarray], float]:
    """Build the objective: execution time of the workload under a static
    weighted placement (stand-alone deployment)."""
    workers = tuple(worker_nodes)

    def evaluate(weights: np.ndarray) -> float:
        sim = Simulator(machine, mc_model=mc_model)
        app = Application(
            "search-app",
            workload,
            machine,
            workers,
            num_threads=num_threads,
            policy=WeightedInterleave(weights),
        )
        sim.add_app(app)
        return sim.run().execution_time("search-app")

    return evaluate


def search_optimal_placement(
    machine: Machine,
    workload: WorkloadSpec,
    worker_nodes: Sequence[int],
    *,
    mc_model: MCModel = DEFAULT_MC_MODEL,
    num_threads: Optional[int] = None,
    step: float = 0.25,
    max_iterations: int = 180,
    evaluator: str = "analytic",
) -> SearchResult:
    """End-to-end oracle: hill-climb weights for one deployment.

    Starts from uniform-workers exactly as the paper's offline search does.
    ``evaluator`` selects the objective: ``"analytic"`` (fast, batched
    exact-weighted placement) or ``"simulated"`` (full page-table
    simulation).
    """
    if evaluator == "analytic":
        evaluate: Callable[[np.ndarray], float] = make_analytic_evaluator(
            machine, workload, worker_nodes, mc_model=mc_model, num_threads=num_threads
        )
    elif evaluator == "simulated":
        evaluate = make_placement_evaluator(
            machine, workload, worker_nodes, mc_model=mc_model, num_threads=num_threads
        )
    else:
        raise ValueError(f"evaluator must be 'analytic' or 'simulated', got {evaluator!r}")
    start = uniform_workers_start(machine.num_nodes, worker_nodes)
    return hill_climb(evaluate, start, step=step, max_iterations=max_iterations)
