"""Whole-range assignments: the reference for the period-block writer.

``AddressSpace.rebind`` takes its assignment as ``(length, block)`` runs
and repeats each block over its run in place, and every interleave passes
a small period block (``repro.memsim.interleave.period_block``). Here each
run is materialised into one flat ``int16`` assignment of the whole range,
as the writer used to build it, and bound with the flat write it used to
make: one compare of the whole range, one copy. The production writer
must leave the same page table, counts and version, and return the same
``(touched, moved)``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.memsim.pages import UNALLOCATED, AddressSpace


def uniform_assignment(num_pages: int, nodes: Sequence[int], *, phase: int = 0) -> np.ndarray:
    """Round-robin page assignment over ``nodes``: page ``i`` lands on
    ``nodes[(i + phase) % m]``, the node set rotated by the phase and tiled
    over the range."""
    nodes = np.asarray(list(nodes), dtype=np.int16)
    if nodes.ndim != 1 or len(nodes) == 0:
        raise ValueError("node set must be a non-empty 1-D sequence")
    if len(set(nodes.tolist())) != len(nodes):
        raise ValueError(f"node set contains duplicates: {list(nodes)}")
    if nodes.min() < 0:
        raise ValueError("node ids must be non-negative")
    if num_pages < 0:
        raise ValueError(f"num_pages must be non-negative, got {num_pages}")
    m = len(nodes)
    s = phase % m
    return np.tile(np.concatenate((nodes[s:], nodes[:s])), -(-num_pages // m))[:num_pages]


def materialise(runs: Sequence[Tuple[int, np.ndarray]]) -> np.ndarray:
    """The flat assignment of back-to-back ``(length, block)`` runs: page
    ``j`` of a run gets ``block[j % len(block)]``."""
    parts = [np.resize(np.asarray(block, dtype=np.int16), length) for length, block in runs]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int16)


def flat_rebind(
    space: AddressSpace,
    start_page: int,
    assignment: np.ndarray,
    *,
    move: bool = True,
    strict: bool = False,
    counts: Optional[Sequence[int]] = None,
) -> Tuple[int, int]:
    """``AddressSpace.rebind`` over one flat assignment, as one whole-range
    compare and copy (reads and writes the space's page table and kept
    counts directly)."""
    assignment = np.asarray(assignment, dtype=np.int16)
    n = len(assignment)
    space._check_range(start_page, n)
    if n and assignment.view(np.uint16).max() >= space.num_nodes:
        raise ValueError("assignment contains invalid node ids")
    view = space._buf[start_page : start_page + n]
    if counts is not None:
        i = bisect_right(space._starts, start_page) - 1
        counts = np.atleast_2d(np.array(counts, dtype=np.int64))
        segs = space._segments[i : i + len(counts)]
        if not (
            move
            and len(segs) == len(counts)
            and (segs[0].start_page, segs[-1].end_page) == (start_page, start_page + n)
            and counts.shape[1:] == (space.num_nodes,)
            and counts.sum(axis=1).tolist() == [seg.num_pages for seg in segs]
        ):
            raise ValueError("counts must come with a move write of whole segments, a row each")
        rows = space._counts[i : i + len(counts)]
        touched = n - int(rows.sum())
        moved = int(np.count_nonzero(view != assignment)) - touched
        if touched or moved:
            view[:] = assignment
            space._version += 1
        rows[:] = counts
        return touched, moved
    changed = view != assignment
    unbacked = view == UNALLOCATED
    touched = int(np.count_nonzero(unbacked))
    moved = int(np.count_nonzero(changed)) - touched
    if moved and not move:
        if strict:
            raise PermissionError(
                f"strict bind without move: {moved} pages already placed on non-conforming nodes"
            )
        moved, changed = 0, unbacked
    if touched or moved:
        pages = np.flatnonzero(changed)
        space._shift(start_page + pages, view[pages], assignment[pages])
        view[pages] = assignment[pages]
        space._version += 1
    return touched, moved
