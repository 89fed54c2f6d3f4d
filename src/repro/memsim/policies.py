"""Page-placement policies: the baselines the paper evaluates against.

Section IV compares BWAP to Linux's default *first-touch*, the
state-of-the-art *uniform-workers* (the core strategy of Carrefour [21] and
AsymSched [37]), *uniform-all*, and *autonuma*. Each policy here knows how
to lay out an application's address space given a :class:`PlacementContext`
and, for the adaptive ones, how to react as the run progresses.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.memsim.interleave import period_block, tile_into, uniform_counts
from repro.memsim.mbind import MbindFlag, MPol, mbind_segment
from repro.memsim.pages import AddressSpace, SegmentKind


@dataclass(frozen=True)
class PlacementContext:
    """Everything a policy needs to know about the deployment.

    Attributes
    ----------
    num_nodes:
        Node count of the machine.
    worker_nodes:
        Nodes on which the application's threads run.
    thread_nodes:
        Node of each thread, indexed by global thread id.
    init_node:
        Node of the thread that initialises shared data (relevant to
        first-touch, which the paper notes centralises shared pages there).
    """

    num_nodes: int
    worker_nodes: Tuple[int, ...]
    thread_nodes: Tuple[int, ...]
    init_node: int

    def __post_init__(self) -> None:
        if not self.worker_nodes:
            raise ValueError("worker_nodes must not be empty")
        if len(set(self.worker_nodes)) != len(self.worker_nodes):
            raise ValueError(f"duplicate worker nodes: {self.worker_nodes}")
        for w in self.worker_nodes:
            if not 0 <= w < self.num_nodes:
                raise ValueError(f"worker node {w} outside machine of {self.num_nodes} nodes")
        for t, nd in enumerate(self.thread_nodes):
            if nd not in self.worker_nodes:
                raise ValueError(f"thread {t} pinned to non-worker node {nd}")
        if self.init_node not in self.worker_nodes:
            raise ValueError(f"init node {self.init_node} is not a worker node")

    @property
    def num_threads(self) -> int:
        """Total threads in the deployment."""
        return len(self.thread_nodes)

    def node_of_thread(self, thread_id: int) -> int:
        """Worker node hosting a thread."""
        return self.thread_nodes[thread_id]

    def all_nodes(self) -> Tuple[int, ...]:
        """All node ids of the machine."""
        return tuple(range(self.num_nodes))

    def non_worker_nodes(self) -> Tuple[int, ...]:
        """Nodes hosting no application threads."""
        workers = set(self.worker_nodes)
        return tuple(n for n in range(self.num_nodes) if n not in workers)


@dataclass(frozen=True)
class PlacementStats:
    """Pages touched/moved while applying (or adapting) a placement."""

    pages_touched: int = 0
    pages_moved: int = 0

    def __add__(self, other: "PlacementStats") -> "PlacementStats":
        return PlacementStats(
            pages_touched=self.pages_touched + other.pages_touched,
            pages_moved=self.pages_moved + other.pages_moved,
        )


class PlacementPolicy(abc.ABC):
    """Interface all placement strategies implement."""

    #: Short name used in figures and reports (matches the paper's labels).
    name: str = "abstract"

    @abc.abstractmethod
    def place(self, space: AddressSpace, ctx: PlacementContext) -> PlacementStats:
        """Perform the initial placement of every segment."""

    def step(
        self, space: AddressSpace, ctx: PlacementContext, epoch: int
    ) -> PlacementStats:
        """Adapt the placement during execution (no-op for static policies)."""
        return PlacementStats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class FirstTouch(PlacementPolicy):
    """Linux default: a page lands on the node of the thread that touches it.

    Shared data is initialised by one thread, so shared pages centralise on
    the init node; each thread's private pages land on its own node. The
    paper (Section IV-A) finds this is usually the worst multi-worker
    strategy for memory-intensive applications.
    """

    name = "first-touch"

    def place(self, space: AddressSpace, ctx: PlacementContext) -> PlacementStats:
        nodes = [
            ctx.node_of_thread(seg.owner_thread) if seg.kind is SegmentKind.PRIVATE else ctx.init_node
            for seg in space.segments
        ]
        return PlacementStats(pages_touched=space.touch_all(nodes))


class _InterleavePolicy(PlacementPolicy):
    """Common machinery for uniform interleaving over a node set."""

    def _nodes(self, ctx: PlacementContext) -> Tuple[int, ...]:
        raise NotImplementedError

    def place(self, space: AddressSpace, ctx: PlacementContext) -> PlacementStats:
        """Every segment's ``mbind(MPOL_INTERLEAVE, MOVE | STRICT)`` as one
        write: each starts at the phase of its first page, so together they
        interleave the whole space (one run of its period block), and their
        counts are known."""
        nodes, segs = self._nodes(ctx), space.segments
        if not segs:
            return PlacementStats()
        # Segments of one size and phase mod k share their counts.
        keys = [(s.num_pages, s.start_page % len(nodes)) for s in segs]
        rows = {key: uniform_counts(key[0], nodes, space.num_nodes, phase=key[1]) for key in set(keys)}
        runs = [(space.total_pages, period_block(nodes))]
        return PlacementStats(*space.rebind(0, runs, counts=[rows[key] for key in keys]))


class UniformWorkers(_InterleavePolicy):
    """Round-robin across worker nodes only — the state-of-the-art baseline.

    This is the core placement of Carrefour and AsymSched and the
    recommended practice for NUMA databases; the paper's thesis is that it
    wastes non-worker bandwidth and ignores asymmetry.
    """

    name = "uniform-workers"

    def _nodes(self, ctx: PlacementContext) -> Tuple[int, ...]:
        return ctx.worker_nodes


class UniformAll(_InterleavePolicy):
    """Round-robin across *all* nodes, workers and non-workers alike."""

    name = "uniform-all"

    def _nodes(self, ctx: PlacementContext) -> Tuple[int, ...]:
        return ctx.all_nodes()


class WeightedInterleave(PlacementPolicy):
    """Static weighted interleave with a fixed weight distribution.

    This is the placement BWAP enforces once weights are decided; exposed
    separately so experiments can evaluate arbitrary weight vectors (e.g.
    the offline n-dimensional search of Fig. 1b).
    """

    name = "weighted-interleave"

    def __init__(self, weights: Sequence[float]):
        w = np.asarray(weights, dtype=float)
        if (w < 0).any() or w.sum() <= 0:
            raise ValueError(f"weights must be non-negative and not all zero, got {w}")
        self.weights = w / w.sum()

    def place(self, space: AddressSpace, ctx: PlacementContext) -> PlacementStats:
        if len(self.weights) != ctx.num_nodes:
            raise ValueError(
                f"{len(self.weights)} weights for machine of {ctx.num_nodes} nodes"
            )
        nodes = ctx.all_nodes()
        stats = PlacementStats()
        for seg in space.segments:
            res = mbind_segment(
                space,
                seg,
                MPol.WEIGHTED_INTERLEAVE,
                nodes,
                weights=self.weights,
                flags=MbindFlag.MOVE | MbindFlag.STRICT,
            )
            stats += PlacementStats(res.pages_touched, res.pages_moved)
        return stats


class AutoNUMA(PlacementPolicy):
    """Linux's locality-driven balancer, approximated.

    AutoNUMA starts from first-touch and then iteratively migrates pages
    toward the nodes whose threads access them: private pages converge to
    their owner's node, shared pages spread evenly across the worker nodes
    that access them. It never considers non-worker bandwidth or link
    asymmetry — the deficiency the paper highlights. The convergence is
    gradual, one `migration_fraction` of the outstanding pages per epoch.
    """

    name = "autonuma"

    def __init__(self, migration_fraction: float = 0.5, convergence_epochs: int = 4):
        if not 0 < migration_fraction <= 1:
            raise ValueError(f"migration_fraction must be in (0, 1], got {migration_fraction}")
        if convergence_epochs < 1:
            raise ValueError(f"convergence_epochs must be >= 1, got {convergence_epochs}")
        self.migration_fraction = migration_fraction
        self.convergence_epochs = convergence_epochs
        self._target_memo: Optional[Tuple[tuple, np.ndarray]] = None

    def place(self, space: AddressSpace, ctx: PlacementContext) -> PlacementStats:
        return FirstTouch().place(space, ctx)

    def step(
        self, space: AddressSpace, ctx: PlacementContext, epoch: int
    ) -> PlacementStats:
        if epoch >= self.convergence_epochs:
            return PlacementStats()
        target = self._target(space, ctx)
        mismatched = space.page_nodes() != target
        chosen = []
        for seg in space.segments:
            lo, hi = seg.start_page, seg.end_page
            k = int(np.count_nonzero(mismatched[lo:hi]))
            if k:
                # The first ``fraction`` (at least one) of the segment's
                # mismatched pages move: those before the cut.
                cut = lo + _cut(mismatched[lo:hi], max(1, int(k * self.migration_fraction)))
                chosen.append(np.flatnonzero(mismatched[lo:cut]))
                chosen[-1] += lo
        del mismatched  # free before the write's own temporaries
        if not chosen:
            return PlacementStats()
        chosen = np.concatenate(chosen)
        return PlacementStats(pages_moved=space.assign_pages(chosen, target[chosen]))

    def _target(self, space: AddressSpace, ctx: PlacementContext) -> np.ndarray:
        """Whole-space target: private pages on their owner's node, shared
        pages balanced across the accessing (worker) nodes."""
        key = (space, space.total_pages, ctx)  # spaces compare by identity
        if self._target_memo is not None and self._target_memo[0] == key:
            return self._target_memo[1]
        # Node ids below 128 fit in a byte, which halves the kept target
        # (the compare against the int16 page table casts in buffers).
        target = np.empty(space.total_pages, dtype=np.int8 if space.num_nodes < 128 else np.int16)
        for seg in space.segments:
            view = target[seg.start_page : seg.end_page]
            if seg.kind is SegmentKind.PRIVATE:
                view[...] = ctx.node_of_thread(seg.owner_thread)
            else:
                tile_into(view, period_block(ctx.worker_nodes, phase=seg.start_page))
        self._target_memo = (key, target)
        return target


def _cut(mask: np.ndarray, n: int, chunk: int = 1 << 16) -> int:
    """One past the ``n``-th set entry of ``mask`` (which has at least
    ``n``), found chunk by chunk instead of indexing every entry."""
    lo = 0
    while True:
        c = int(np.count_nonzero(mask[lo : lo + chunk]))
        if n <= c:
            return lo + int(np.flatnonzero(mask[lo : lo + chunk])[n - 1]) + 1
        n, lo = n - c, lo + chunk


def policy_by_name(name: str, **kwargs) -> PlacementPolicy:
    """Instantiate a baseline policy from its paper label."""
    registry = {
        FirstTouch.name: FirstTouch,
        UniformWorkers.name: UniformWorkers,
        UniformAll.name: UniformAll,
        AutoNUMA.name: AutoNUMA,
    }
    try:
        cls = registry[name]
    except KeyError:
        raise KeyError(
            f"unknown policy {name!r}; available: {sorted(registry)} "
            "(weighted-interleave and bwap are constructed explicitly)"
        ) from None
    return cls(**kwargs)
