"""Weighted-interleaving back ends (paper Section III-B2).

Mainstream kernels had no weighted-interleave policy, so BWAP ships two
implementations:

* **User level** — Algorithm 1: split each segment into contiguous
  sub-ranges and uniform-interleave each sub-range over a *nested* node
  set (all nodes, then all minus the lightest, ...). Setting each
  sub-range's size makes the overall per-node page ratios equal the target
  weights while issuing only ``N`` ``mbind`` calls. Portable, slightly
  inaccurate at sub-range boundaries.
* **Kernel level** — the authors' kernel patch: an exact weighted
  interleave, here the simulated ``MPOL_WEIGHTED_INTERLEAVE``.

Both support the DWP tuner's *narrowing* re-application (weights shifting
mass toward workers): ``mbind`` with ``MPOL_MF_MOVE`` migrates the pages
that no longer conform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.memsim.interleave import period_block, uniform_counts
from repro.memsim.mbind import MbindFlag, MPol, mbind_segment
from repro.memsim.pages import AddressSpace, Segment

#: Weights below this value are treated as zero (the node receives no pages).
_WEIGHT_EPS = 1e-9

#: An Algorithm 1 plan: ``(start_offset, length, node_set)`` sub-ranges.
_Plan = List[Tuple[int, int, Tuple[int, ...]]]


@dataclass(frozen=True)
class PlacementOutcome:
    """Aggregate result of re-placing an address space."""

    pages_touched: int
    pages_moved: int
    mbind_calls: int


def _checked_weights(weights: Sequence[float], num_nodes: int) -> np.ndarray:
    """``weights`` as a float vector: exactly one finite, non-negative entry
    per node of a ``num_nodes``-node machine, with a positive sum."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (num_nodes,):
        raise ValueError(
            f"weights must be a 1-D vector of {num_nodes} entries, one per node; "
            f"got shape {w.shape}"
        )
    if not np.isfinite(w).all() or (w < 0).any() or w.sum() <= 0:
        raise ValueError(f"weights must be finite, non-negative, with positive sum: {w.tolist()}")
    return w


def algorithm1_subranges(num_pages: int, weights: Sequence[float]) -> _Plan:
    """Paper Algorithm 1: sub-range plan for user-level weighted interleave.

    Returns ``(start_offset, length, node_set)`` triples covering
    ``[0, num_pages)``. Nodes are dropped lightest-first; sub-range ``k``
    (with ``m`` nodes remaining and weight increment ``dw`` over the
    previously-dropped node) spans ``m * dw * num_pages`` pages and is
    uniformly interleaved over the remaining nodes — which hands every
    remaining node ``dw * num_pages`` pages, so totals meet the weights.
    """
    w = _checked_weights(weights, np.size(weights))
    w = w / w.sum()
    if num_pages < 0:
        raise ValueError(f"num_pages must be non-negative, got {num_pages}")

    active = [i for i in range(len(w)) if w[i] > _WEIGHT_EPS]
    # Lightest node first (ties by id for determinism), as in the paper's
    # getNodeWithMinWeight loop.
    active.sort(key=lambda i: (w[i], i))

    plan: _Plan = []
    address = 0
    weight_prev = 0.0
    while active:
        node = active[0]
        dw = w[node] - weight_prev
        size = int(round(len(active) * dw * num_pages))
        size = min(size, num_pages - address)
        if not active[1:]:
            # Last sub-range: absorb every leftover page so the plan tiles
            # the range exactly despite rounding.
            size = num_pages - address
        if size > 0:
            plan.append((address, size, tuple(sorted(active))))
            address += size
        weight_prev = w[node]
        active = active[1:]
    if address < num_pages and plan:
        # Rounding left a tail (ties in weights can make trailing sub-ranges
        # zero-size): fold it into the last active sub-range rather than
        # issuing an extra mbind — the plan must stay within the paper's
        # N-call bound (`len(plan) <= number of active nodes`) and must not
        # hand the tail pages out a second time over the full node set.
        start, length, nodes = plan[-1]
        plan[-1] = (start, length + (num_pages - address), nodes)
    return plan


def apply_weighted_user(
    space: AddressSpace,
    segment: Segment,
    weights: Sequence[float],
    *,
    move: bool = True,
) -> PlacementOutcome:
    """Weighted-interleave one segment with Algorithm 1 (user level)."""
    return _write_user(space, [segment], _checked_weights(weights, space.num_nodes), move)


def _write_user(
    space: AddressSpace, segments: Sequence[Segment], weights: np.ndarray, move: bool
) -> PlacementOutcome:
    """Algorithm 1 over a run of contiguous segments as one rebind: each
    segment's N ``mbind(MPOL_INTERLEAVE)`` sub-ranges partition it, so the
    page table and touched/moved sums are the N calls'. Each sub-range is
    one run written from the period block of its ``(node set, phase mod
    k)``, built once per call; its per-node counts are computed once per
    distinct ``(length, node set, phase)``."""
    if not segments:
        return PlacementOutcome(pages_touched=0, pages_moved=0, mbind_calls=0)
    plans = {n: algorithm1_subranges(n, weights) for n in {seg.num_pages for seg in segments}}
    blocks, runs, index, tile_counts, used, firsts = {}, [], {}, [], [], []
    for seg in segments:
        firsts.append(len(used))
        for offset, length, nodes in plans[seg.num_pages]:
            phase = (seg.start_page + offset) % len(nodes)
            if (nodes, phase) not in blocks:
                blocks[nodes, phase] = period_block(nodes, phase=phase)
            runs.append((length, blocks[nodes, phase]))
            if (length, nodes, phase) not in index:
                index[length, nodes, phase] = len(tile_counts)
                tile_counts.append(uniform_counts(length, nodes, space.num_nodes, phase=phase))
            used.append(index[length, nodes, phase])
    counts = np.add.reduceat(np.array(tile_counts)[used], firsts) if move else None
    touched, moved = space.rebind(segments[0].start_page, runs, move=move, counts=counts)
    return PlacementOutcome(pages_touched=touched, pages_moved=moved, mbind_calls=len(runs))


def apply_weighted_kernel(
    space: AddressSpace,
    segment: Segment,
    weights: Sequence[float],
    *,
    move: bool = True,
) -> PlacementOutcome:
    """Weighted-interleave one segment with the kernel-level exact policy."""
    w = _checked_weights(weights, space.num_nodes)
    nodes = [i for i in range(len(w)) if w[i] > _WEIGHT_EPS]
    flags = MbindFlag.MOVE | MbindFlag.STRICT if move else MbindFlag.NONE
    res = mbind_segment(
        space, segment, MPol.WEIGHTED_INTERLEAVE, nodes, weights=[w[i] for i in nodes], flags=flags
    )
    return PlacementOutcome(
        pages_touched=res.pages_touched, pages_moved=res.pages_moved, mbind_calls=1
    )


def apply_weighted_placement(
    space: AddressSpace,
    weights: Sequence[float],
    *,
    mode: str = "user",
    move: bool = True,
) -> PlacementOutcome:
    """Weighted-interleave *every* segment of an address space.

    BWAP's user-level path walks all address ranges likely to hold shared
    data — the data/BSS segments and dynamic mappings — which in our model
    is every mapped segment. ``mode`` selects the back end: ``"user"``
    (Algorithm 1 planned per distinct segment size, one page-table write)
    or ``"kernel"`` (exact).
    """
    if mode not in ("user", "kernel"):
        raise ValueError(f"mode must be 'user' or 'kernel', got {mode!r}")
    w = _checked_weights(weights, space.num_nodes)
    if mode == "user":
        return _write_user(space, space.segments, w, move)
    touched = moved = calls = 0
    for seg in space.segments:
        out = apply_weighted_kernel(space, seg, w, move=move)
        touched += out.pages_touched
        moved += out.pages_moved
        calls += out.mbind_calls
    return PlacementOutcome(pages_touched=touched, pages_moved=moved, mbind_calls=calls)


def placement_error(space: AddressSpace, weights: Sequence[float]) -> float:
    """Total-variation distance between target weights and the achieved
    placement — the accuracy metric for the user-vs-kernel ablation."""
    w = _checked_weights(weights, space.num_nodes)
    w = w / w.sum()
    actual = space.placement_distribution()
    return float(0.5 * np.abs(actual - w).sum())
