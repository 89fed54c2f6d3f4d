"""A running application instance.

Binds together a workload model, a deployment (worker nodes + pinned
threads), an address space laid out by a placement policy, and the
execution-progress state the simulator advances. The per-worker traffic
*mix* — the bridge between page placement and the contention solver — is
derived here: shared accesses follow the shared segments' placement
distribution, private accesses follow the placement of the node's own
threads' private segments (the paper's Section IV-A discusses exactly this
decomposition when analysing OC/ON/FT.C).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.memsim.contention import batch_coefficients
from repro.memsim.controller import MCModel
from repro.memsim.flows import Consumer
from repro.memsim.pages import PAGE_SIZE, AddressSpace, SegmentKind
from repro.memsim.policies import PlacementContext, PlacementPolicy
from repro.engine.threads import pin_threads, threads_per_node
from repro.topology.machine import Machine
from repro.workloads.base import WorkloadSpec


class AppBlock:
    """One application's consumer rows as read-only arrays.

    One row per worker node in ``worker_nodes`` order: pair key, node id,
    thread count, demand, write fraction and traffic mix (all zero for a
    row without demand), plus the solver's live mask. Validated once per
    placement as ``Consumer`` would per object (:meth:`with_demands` checks
    only demands); the epoch kernel concatenates the running apps' blocks.
    """

    __slots__ = ("keys", "node_idx", "threads", "demand", "write_frac", "mix", "live",
                 "rows", "_mixes", "_totals", "_coef")

    def __init__(self, app_id, nodes, threads, demands, write_fraction, mixes, num_nodes):
        self.keys = tuple((app_id, w) for w in nodes)
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"duplicate consumer keys: {sorted(self.keys)}")
        if min(nodes) < 0 or max(nodes) >= num_nodes:
            raise ValueError(f"consumer nodes {nodes} outside machine")
        if min(threads) < 0:
            raise ValueError(f"threads {threads} must be non-negative")
        if mixes.shape != (len(nodes), num_nodes) or mixes.min() < -1e-12:
            raise ValueError(f"mixes must be non-negative, one per node of {num_nodes}")
        self._totals = mixes.sum(axis=1).tolist()
        if any(t > 0 and abs(t - 1.0) > 1e-6 for t in self._totals):
            raise ValueError(f"mix must sum to 1 (or 0 for idle), got {self._totals}")
        self.node_idx = np.array(nodes, dtype=np.intp)
        self.threads = np.array(threads, dtype=float)
        for arr in (self.node_idx, self.threads, mixes):
            arr.setflags(write=False)
        #: The placement's mix rows, one read-only array per worker.
        self._mixes, self.rows = mixes, tuple(mixes)
        #: Coefficient columns by (write fraction, write cost factor),
        #: shared with every demand-only copy of this placement.
        self._coef: Dict[Tuple[float, float], np.ndarray] = {}
        self._set_demands(demands, write_fraction)

    def with_demands(self, demands, write_fraction) -> "AppBlock":
        """This block's validated rows under new demands and write fraction."""
        block = object.__new__(AppBlock)
        for name in ("keys", "node_idx", "threads", "rows", "_mixes", "_totals", "_coef"):
            setattr(block, name, getattr(self, name))
        block._set_demands(demands, write_fraction)
        return block

    def _set_demands(self, demands, write_fraction) -> None:
        if any(d < 0 for d in demands):
            raise ValueError(f"demands {demands} must be non-negative")
        if not 0 <= write_fraction <= 1:
            raise ValueError(f"write_fraction must be in [0, 1], got {write_fraction}")
        self.demand = np.array(demands, dtype=float)
        self.write_frac = np.array([write_fraction] * len(demands), dtype=float)
        self.mix = self._mixes if all(d > 0 for d in demands) else np.where(
            (self.demand > 0)[:, None], self._mixes, 0.0
        )
        self.live = np.array([d != 0 and t != 0.0 for d, t in zip(demands, self._totals)])
        for arr in (self.demand, self.write_frac, self.mix, self.live):
            arr.setflags(write=False)

    def coefficients(self, machine: Machine, mc_model: MCModel) -> np.ndarray:
        """``(resources, rows)`` :func:`batch_coefficients` columns of the
        placement's mix rows under this block's write fraction on
        ``machine``, the app's own machine: built once per placement and
        write fraction. A row without demand keeps its placement column,
        which is an exact no-op in a solve: the row is a dead slot, so its
        rate stays 0 and nothing it touches counts.
        """
        key = (float(self.write_frac[0]), mc_model.write_cost_factor)
        A = self._coef.get(key)
        if A is None:
            A = self._coef[key] = batch_coefficients(
                machine, self.node_idx[None], self._mixes[None], self.write_frac[None], mc_model,
            )[0]
        return A


class Application:
    """One deployed application in the simulator.

    Parameters
    ----------
    app_id:
        Unique identifier within a simulation.
    workload:
        Demand model.
    machine:
        Machine the app runs on.
    worker_nodes:
        Nodes hosting its threads.
    num_threads:
        Total threads; defaults to fully populating the worker nodes.
    policy:
        Initial (and possibly adaptive) placement policy; ``None`` leaves
        the address space unplaced so a tuner can own placement entirely.
    looping:
        When True the application restarts upon completion — used for the
        co-scheduled scenario's continuously-running high-priority app.
    page_size:
        Backing page size in bytes (4 KB default; 2 MiB models transparent
        huge pages, the integration the paper defers as future work).
    """

    def __init__(
        self,
        app_id: str,
        workload: WorkloadSpec,
        machine: Machine,
        worker_nodes: Sequence[int],
        *,
        num_threads: Optional[int] = None,
        policy: Optional[PlacementPolicy] = None,
        looping: bool = False,
        page_size: int = PAGE_SIZE,
    ):
        self.app_id = app_id
        self._workload = workload
        self.machine = machine
        self.worker_nodes: Tuple[int, ...] = tuple(worker_nodes)
        self.thread_nodes = pin_threads(machine, self.worker_nodes, num_threads)
        self.num_threads = len(self.thread_nodes)
        self.ctx = PlacementContext(
            num_nodes=machine.num_nodes,
            worker_nodes=self.worker_nodes,
            thread_nodes=self.thread_nodes,
            init_node=self.worker_nodes[0],
        )
        self.policy = policy
        self.looping = looping

        self.space = AddressSpace(machine.num_nodes, page_size=page_size)
        # The shared segment, then one private segment per thread: one fill.
        threads = list(range(self.num_threads)) if workload.private_bytes_per_thread > 0 else []
        self.space.map_segments(
            ["shared"] + [f"private-{t}" for t in threads],
            [workload.shared_bytes] + [workload.private_bytes_per_thread] * len(threads),
            [SegmentKind.SHARED] + [SegmentKind.PRIVATE] * len(threads),
            [None] + threads,
        )
        self._shared_segments = self.space.segments_of_kind(SegmentKind.SHARED)
        #: Row ``j`` marks the private segments of worker ``j``'s threads.
        owners = [
            self.thread_nodes[seg.owner_thread] if seg.kind is SegmentKind.PRIVATE else -1
            for seg in self.space.segments
        ]
        self._owners = (np.array(self.worker_nodes)[:, None] == owners).astype(np.int64)
        if policy is not None:
            if hasattr(policy, "validate_workload"):
                policy.validate_workload(workload.write_fraction)
            policy.place(self.space, self.ctx)

        counts = threads_per_node(self.thread_nodes)
        self._threads_on: Dict[int, int] = counts
        total = workload.work_bytes
        # Memory-only worker nodes host pages but run no threads, so their
        # share of the work is zero.
        self._share: Dict[int, float] = {
            w: total * counts.get(w, 0) / self.num_threads for w in self.worker_nodes
        }
        self._remaining: Dict[int, float] = dict(self._share)
        self.finished = False
        #: Demand stamp: bumped when a worker's remaining share reaches or
        #: leaves zero. With ``finished``, ``demand_scale`` and the workload
        #: object it covers every input of :meth:`node_demand`.
        self._stamp = 0
        self._block_memo: Optional[Tuple[tuple, tuple, AppBlock]] = None
        self._full_speed: Tuple[Optional[WorkloadSpec], Dict[int, float]] = (None, {})
        self._consumers_memo: Optional[Tuple[AppBlock, List[Consumer]]] = None
        self.finish_time: Optional[float] = None
        self.start_time: float = 0.0
        self.completions: int = 0
        #: Extra seconds of stall the app still owes (migration costs).
        self.pending_penalty_s: float = 0.0
        self.epoch_index: int = 0
        #: Multiplier on the workload's demand, set per-epoch by the
        #: simulator when a fault plan injects phase shocks. 1.0 (the
        #: default) leaves demand untouched.
        self.demand_scale: float = 1.0

    @property
    def workload(self) -> WorkloadSpec:
        """The demand model currently in effect.

        A property so that :class:`~repro.engine.phased.PhasedApplication`
        can swap specs as execution progresses.
        """
        return self._workload

    # ------------------------------------------------------------------ #
    # Placement-derived distributions
    # ------------------------------------------------------------------ #

    def shared_distribution(self) -> np.ndarray:
        """Placement distribution of the shared segments."""
        return self.space.placement_distribution(self._shared_segments)

    def private_distribution(self, node: int) -> np.ndarray:
        """Placement distribution of private pages owned by threads on ``node``."""
        if node not in self.worker_nodes:
            return np.zeros(self.machine.num_nodes)
        return self._private_distributions()[0][self.worker_nodes.index(node)]

    def _private_distributions(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every worker's private placement distribution and page total,
        one row each, from one product with the kept page counts."""
        hist = self._owners @ self.space.counts[: self._owners.shape[1]]
        total = hist.sum(axis=1, keepdims=True)
        return hist / np.maximum(total, 1), total

    def traffic_mix(self, node: int) -> np.ndarray:
        """Per-source-node traffic fractions for the threads on worker
        ``node`` (its row of :meth:`traffic_mixes`)."""
        return self.traffic_mixes()[self.worker_nodes.index(node)]

    def traffic_mixes(self) -> np.ndarray:
        """Every worker's traffic mix, one row each, from the kept page
        counts: ``private_fraction`` of it follows the worker's
        :meth:`private_distribution` (none while that is empty), the rest
        :meth:`shared_distribution`, or the local replica under a
        replicating policy (``replicates_shared``)."""
        private, total = self._private_distributions()
        if getattr(self.policy, "replicates_shared", False):
            shared = np.eye(self.machine.num_nodes)[list(self.worker_nodes)]
        else:
            shared = self.shared_distribution()
            if not shared.any():
                return private
        pf = np.where(total > 0, self.workload.private_fraction, 0.0)
        mix = (1.0 - pf) * shared + pf * private
        return mix / mix.sum(axis=1, keepdims=True)

    # ------------------------------------------------------------------ #
    # Demand and progress
    # ------------------------------------------------------------------ #

    def threads_on(self, node: int) -> int:
        """Threads pinned on one worker node."""
        return self._threads_on.get(node, 0)

    def node_demand(self, node: int) -> float:
        """Full-speed demand (GB/s) of the threads on ``node``; zero once
        that worker's share of the work is done."""
        if self.finished or self._remaining.get(node, 0.0) <= 0.0:
            return 0.0
        wl = self.workload
        if self._full_speed[0] is not wl:  # specs are frozen: kept per object
            self._full_speed = (wl, {
                w: wl.node_demand_gbps(self.threads_on(w), self.num_threads, len(self.worker_nodes))
                for w in self.worker_nodes
            })
        return self.demand_scale * self._full_speed[1][node]

    def block(self) -> AppBlock:
        """The app's consumer rows as one read-only :class:`AppBlock`.

        Memoised on the placement version, the demand stamp and the other
        row inputs: an unchanged epoch derives nothing and gets the same
        object, and a demand-only change keeps the validated mix rows (they
        depend only on placement, private fraction and replication).
        """
        wl = self.workload
        replicates = bool(getattr(self.policy, "replicates_shared", False))
        key = (self.space.version, self._stamp, self.finished, self.demand_scale, wl, replicates)
        memo = self._block_memo
        if memo is not None and memo[0] == key:
            return memo[2]
        demands = tuple(self.node_demand(w) for w in self.worker_nodes)
        mix_key = (self.space.version, wl.private_fraction, replicates)
        if memo is not None and memo[1] == mix_key:
            block = memo[2].with_demands(demands, wl.write_fraction)
        else:
            mixes = self.traffic_mixes()
            threads = [self.threads_on(w) for w in self.worker_nodes]
            block = AppBlock(
                self.app_id, self.worker_nodes, threads, demands, wl.write_fraction,
                mixes, self.machine.num_nodes,
            )
        self._block_memo = (key, mix_key, block)
        return block

    def consumers(self) -> List[Consumer]:
        """Current consumer set for the contention solver: a view of
        :meth:`block`, memoised per block (demand-bearing rows share the
        placement's read-only mix rows)."""
        b = self.block()
        if self._consumers_memo is not None and self._consumers_memo[0] is b:
            return self._consumers_memo[1]
        out = [
            Consumer(
                app_id=self.app_id,
                node=int(b.node_idx[j]),
                threads=int(b.threads[j]),
                mix=b.rows[j] if b.demand[j] > 0 else b.mix[j],
                demand=float(b.demand[j]),
                write_fraction=float(b.write_frac[j]),
            )
            for j in range(len(b.keys))
        ]
        self._consumers_memo = (b, out)
        return out

    def remaining(self, node: int) -> float:
        """Bytes of traffic the worker at ``node`` still must perform."""
        return self._remaining.get(node, 0.0)

    def progress_fraction(self) -> float:
        """Fraction of this run's work already performed, in ``[0, 1]``.

        The fleet layer checkpoints evicted apps on it. For looping apps
        (which reset ``_remaining`` each lap) this is the current lap's
        progress — the fleet never deploys looping apps.
        """
        if self.finished:
            return 1.0
        total = sum(self._share.values())
        if total <= 0.0:
            return 0.0
        done = 1.0 - sum(self._remaining.values()) / total
        return min(1.0, max(0.0, done))

    def advance(self, node: int, bytes_done: float) -> None:
        """Credit progress to one worker."""
        if bytes_done < 0:
            raise ValueError(f"bytes_done must be non-negative, got {bytes_done}")
        if node not in self._remaining:
            raise KeyError(f"{node} is not a worker node of {self.app_id}")
        left = max(0.0, self._remaining[node] - bytes_done)
        # Snap sub-byte residues to done. Exact-completion time steps leave
        # floating-point crumbs (~1e-7 bytes) whose dt = crumb/rate underflows
        # against the clock, so without the snap the simulator spins through
        # zero-length epochs and then charges a full spurious epoch.
        if left < 1.0 and self._remaining[node] > 0.0:
            self._stamp += 1
        self._remaining[node] = left if left >= 1.0 else 0.0

    def max_dormant_epochs(
        self, node_rates: Dict[int, float], dt: float, limit: int = 1 << 40
    ) -> int:
        """Epochs of length ``dt`` this app can advance at ``node_rates``
        (bytes/s per worker) with its demand set provably unchanged.

        The epoch kernel's stride clamp: node demands only change when a
        worker's remaining share hits zero (or, for phased apps, when a
        phase boundary is crossed — see the override). Conservative by one
        full epoch plus the sub-byte snap margin in :meth:`advance`, so
        after the stride every progressing worker still has > 1 byte left
        and the next regular epoch recomputes demand exactly as per-epoch
        stepping would have.
        """
        k = limit
        for node, rate in node_rates.items():
            if rate <= 0:
                continue
            step_bytes = rate * dt
            if step_bytes <= 0:
                continue
            rem = self._remaining.get(node, 0.0)
            k = min(k, int((rem - 1.0) / step_bytes) - 1)
            if k <= 0:
                return 0
        return max(0, k)

    def check_finished(self, now: float) -> bool:
        """Mark completion; looping apps restart immediately."""
        if self.finished:
            return True
        if all(r <= 0.0 for r in self._remaining.values()):
            self.completions += 1
            self._stamp += 1
            if self.looping:
                self._remaining = dict(self._share)
                return False
            self.finished = True
            self.finish_time = now
            return True
        return False

    @property
    def execution_time(self) -> Optional[float]:
        """Wall time from start to completion (None while running)."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.start_time

    def charge_penalty(self, seconds: float) -> None:
        """Charge stall time (e.g. page-migration cost) to the app."""
        if seconds < 0:
            raise ValueError(f"penalty must be non-negative, got {seconds}")
        self.pending_penalty_s += seconds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Application({self.app_id!r}, workload={self.workload.name}, "
            f"workers={self.worker_nodes}, threads={self.num_threads})"
        )
