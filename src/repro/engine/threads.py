"""Thread placement.

The paper adopts AsymSched's rule of thumb (Section IV): group the
application's threads on the subset of worker nodes with the highest
aggregate inter-worker bandwidth, and pin each thread to its own core.
"""

from __future__ import annotations

from itertools import combinations
from numbers import Integral
from typing import Dict, List, Optional, Sequence, Tuple

from repro.topology.machine import Machine


def worker_set_score(machine: Machine, worker_nodes: Sequence[int]) -> float:
    """Aggregate pairwise bandwidth among a candidate worker set."""
    nodes = list(worker_nodes)
    if len(nodes) == 1:
        return machine.nominal_bandwidth(nodes[0], nodes[0])
    return sum(
        machine.nominal_bandwidth(a, b) for a in nodes for b in nodes if a != b
    )


def pick_worker_nodes(
    machine: Machine,
    num_workers: int,
    *,
    exclude: Sequence[int] = (),
) -> Tuple[int, ...]:
    """Choose worker nodes by the AsymSched heuristic.

    Among all ``num_workers``-sized node subsets (excluding ``exclude``,
    e.g. nodes already running a co-scheduled application), pick the one
    with the highest aggregate inter-worker bandwidth. Ties break toward
    lower node ids for determinism. The result is memoised on the
    (immutable) machine per ``(num_workers, excluded ids)``.
    """
    if isinstance(num_workers, bool) or not isinstance(num_workers, Integral):
        raise ValueError(f"num_workers must be an integer, got {num_workers!r}")
    excluded = set(exclude)
    unknown = excluded.difference(machine.node_ids)
    if unknown:
        raise ValueError(f"cannot exclude nodes {sorted(unknown, key=repr)}: not on the machine")
    key = (int(num_workers), tuple(sorted(excluded)))
    memo = machine.__dict__.setdefault("_worker_picks", {})
    if key in memo:
        return memo[key]
    candidates = [n for n in machine.node_ids if n not in excluded]
    if num_workers < 1 or num_workers > len(candidates):
        raise ValueError(
            f"cannot pick {num_workers} workers from {len(candidates)} available nodes"
        )
    best: Optional[Tuple[int, ...]] = None
    best_score = float("-inf")
    for combo in combinations(candidates, num_workers):
        score = worker_set_score(machine, combo)
        if score > best_score + 1e-12:
            best, best_score = combo, score
    assert best is not None
    memo[key] = best
    return best


def pin_threads(
    machine: Machine,
    worker_nodes: Sequence[int],
    num_threads: Optional[int] = None,
) -> Tuple[int, ...]:
    """Pin threads to worker nodes, evenly, one per core.

    Defaults to fully populating the worker nodes (the paper's co-scheduled
    experiments use "8 threads each" on machine A, i.e. full nodes).
    Threads are assigned round-robin so every node gets
    ``num_threads / len(worker_nodes)`` of them (the paper's canonical
    model requires the thread count to be a multiple of the worker count).
    """
    workers = list(worker_nodes)
    if not workers:
        raise ValueError("worker_nodes must not be empty")
    # Memory-only nodes (CXL/NVM expanders) may appear in the worker set to
    # host pages; threads are spread over the nodes that do have cores.
    compute = [w for w in workers if machine.node(w).num_cores > 0]
    if not compute:
        raise ValueError(f"no worker node in {workers} has cores to pin threads on")
    capacity = sum(machine.node(w).num_cores for w in compute)
    if num_threads is None:
        num_threads = capacity
    if num_threads < 1:
        raise ValueError(f"need at least one thread, got {num_threads}")
    if num_threads > capacity:
        raise ValueError(
            f"{num_threads} threads exceed {capacity} cores on workers {workers}"
        )
    if num_threads % len(compute) != 0:
        raise ValueError(
            f"thread count {num_threads} must be a multiple of the "
            f"{len(compute)} compute worker nodes (paper Section III-A1)"
        )
    per_node = num_threads // len(compute)
    for w in compute:
        if per_node > machine.node(w).num_cores:
            raise ValueError(
                f"{per_node} threads per node exceed the {machine.node(w).num_cores} "
                f"cores of node {w}"
            )
    assignment: List[int] = []
    for w in compute:
        assignment.extend([w] * per_node)
    return tuple(assignment)


def threads_per_node(thread_nodes: Sequence[int]) -> Dict[int, int]:
    """Count threads pinned on each node."""
    counts: Dict[int, int] = {}
    for nd in thread_nodes:
        counts[nd] = counts.get(nd, 0) + 1
    return counts
