"""Page-to-node assignment generators for interleaved placements.

Two assignment schemes are needed by the paper:

* **Uniform interleave** — Linux ``MPOL_INTERLEAVE``: round-robin by page
  index over a node set. This is what ``uniform-workers``/``uniform-all``
  and the inner calls of BWAP's Algorithm 1 use. It is periodic, so it is
  generated as one small period block that writers repeat in place.
* **Weighted interleave** — the kernel-level policy the authors added: each
  node receives a page share proportional to its weight, with pages of the
  different nodes finely interleaved (not in contiguous blocks).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


#: Pages in an interleave's period block, rounded down to whole periods.
PERIOD_BLOCK_PAGES = 4096


def period_block(nodes: Sequence[int], *, phase: int = 0) -> np.ndarray:
    """The round-robin over ``nodes`` from ``phase`` as whole periods of
    about :data:`PERIOD_BLOCK_PAGES` pages (at least one period).

    Page ``j`` of a range interleaved at ``phase`` lands on
    ``nodes[(j + phase) % k]``, which is ``block[j % len(block)]``: a
    writer repeats the block over the range in place (:func:`tile_into`)
    instead of building an assignment of the whole range. ``phase``
    mirrors how Linux interleaving continues from the current position
    rather than restarting per ``mbind`` call.
    """
    nodes = _validated_nodes(nodes)
    m = len(nodes)
    reps = max(1, PERIOD_BLOCK_PAGES // m)
    s = phase % m
    # One period more than the block, so the rotation is a slice.
    return np.tile(nodes, reps + 1)[s : s + reps * m]


def tile_into(out: np.ndarray, block: np.ndarray) -> None:
    """Write ``block`` repeated from its first entry over the contiguous
    array ``out``, in place: its whole periods with one broadcast into a
    ``(q, len(block))`` reshape, then the shorter tail from the block's
    head."""
    p = len(block)
    mid = len(out) - len(out) % p
    if mid:
        out[:mid].reshape(-1, p)[...] = block
    if mid < len(out):
        out[mid:] = block[: len(out) - mid]


def uniform_counts(
    num_pages: int, nodes: Sequence[int], num_nodes: int, *, phase: int = 0
) -> np.ndarray:
    """Per-node page counts, over ``num_nodes`` nodes, of ``num_pages``
    pages interleaved over ``nodes`` at ``phase`` (:func:`period_block`),
    without counting: ``num_pages // k`` each, plus one for the first
    ``num_pages % k`` of the phase-rotated set."""
    nodes = list(nodes)
    s = phase % len(nodes)
    row = np.zeros(num_nodes, dtype=np.int64)
    row[nodes] = num_pages // len(nodes)
    row[(nodes[s:] + nodes[:s])[: num_pages % len(nodes)]] += 1
    return row


def weighted_counts(num_pages: int, weights: Sequence[float]) -> np.ndarray:
    """Apportion ``num_pages`` across nodes by weight (largest remainder).

    Exact: counts sum to ``num_pages`` and differ from the ideal share by
    less than one page per node.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or len(w) == 0:
        raise ValueError("weights must be a non-empty 1-D sequence")
    if not np.isfinite(w).all() or (w < 0).any():
        raise ValueError(f"weights must be finite and non-negative: {w.tolist()}")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must not all be zero")
    if num_pages < 0:
        raise ValueError(f"num_pages must be non-negative, got {num_pages}")
    ideal = w / total * num_pages
    counts = np.floor(ideal).astype(np.int64)
    remainder = num_pages - counts.sum()
    if remainder > 0:
        frac = ideal - counts
        # Highest fractional parts get the leftover pages; ties broken by
        # node index for determinism.
        order = np.lexsort((np.arange(len(w)), -frac))
        counts[order[:remainder]] += 1
    return counts


def weighted_assignment(
    num_pages: int, weights: Sequence[float], nodes: Sequence[int] = None
) -> np.ndarray:
    """Exact weighted interleave: per-node counts follow ``weights`` and the
    pages of different nodes are evenly interspersed.

    This models the kernel-level weighted-interleave policy of
    Section III-B2. The interspersion uses the even-spacing trick: node
    ``k``'s ``c_k`` pages are placed at virtual positions
    ``(i + 0.5) / c_k`` and all positions are merged by sorting, which keeps
    every prefix of the assignment close to the target ratio.
    """
    if nodes is None:
        nodes = np.arange(len(np.atleast_1d(np.asarray(weights))))
    nodes = _validated_nodes(nodes)
    w = np.asarray(weights, dtype=float)
    if len(w) != len(nodes):
        raise ValueError(f"{len(w)} weights for {len(nodes)} nodes")
    counts = weighted_counts(num_pages, w)
    labels = np.repeat(nodes, counts)
    positions = np.concatenate(
        [
            (np.arange(c) + 0.5) / c if c > 0 else np.empty(0)
            for c in counts
        ]
    )
    order = np.argsort(positions, kind="stable")
    return labels[order]


def _validated_nodes(nodes: Sequence[int]) -> np.ndarray:
    arr = np.asarray(list(nodes), dtype=np.int16)
    if arr.ndim != 1 or len(arr) == 0:
        raise ValueError("node set must be a non-empty 1-D sequence")
    if len(set(arr.tolist())) != len(arr):
        raise ValueError(f"node set contains duplicates: {list(arr)}")
    if arr.min() < 0:
        raise ValueError("node ids must be non-negative")
    return arr
