"""Per-page recount: the reference for an address space's kept page counts.

``AddressSpace`` keeps one ``(segments x nodes)`` count matrix as its
histogram of record and updates it on every write from counts the write
already knows. This module counts the page table afresh, page by page,
and checks the kept matrix against it.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.memsim.pages import UNALLOCATED, AddressSpace, Segment, SegmentKind


def recount(space: AddressSpace) -> np.ndarray:
    """``(segments x nodes)`` per-node page counts, one segment at a time."""
    table = space.page_nodes()
    out = np.zeros((len(space.segments), space.num_nodes), dtype=np.int64)
    for i, seg in enumerate(space.segments):
        data = table[seg.start_page : seg.end_page]
        out[i] = [np.count_nonzero(data == k) for k in range(space.num_nodes)]
    return out


def fresh_histogram(
    space: AddressSpace, segments: Optional[Iterable[Segment]] = None
) -> np.ndarray:
    """Per-node backed-page counts over a selection (all segments for
    ``None``), by one ``bincount`` over its pages."""
    table = space.page_nodes()
    if segments is None:
        data = table
    else:
        parts = [table[s.start_page : s.end_page] for s in segments]
        data = np.concatenate(parts) if parts else np.empty(0, dtype=np.int16)
    return np.bincount(data[data != UNALLOCATED], minlength=space.num_nodes)


def check_counts(space: AddressSpace) -> None:
    """The kept matrix equals the recount, and each row sums to its
    segment's backed pages."""
    kept = space.counts
    assert kept.dtype == np.int64
    np.testing.assert_array_equal(kept, recount(space))
    table = space.page_nodes()
    backed = [
        int(np.count_nonzero(table[s.start_page : s.end_page] != UNALLOCATED))
        for s in space.segments
    ]
    assert kept.sum(axis=1).tolist() == backed
    assert space.node_histogram().tolist() == kept.sum(axis=0).tolist()
    assert space.allocated_pages() == sum(backed)


def traffic_mix_reference(app, node: int) -> np.ndarray:
    """One worker's traffic mix, alone and from recounted histograms: the
    scalar form of ``Application.traffic_mixes``' row for ``node``."""
    n = app.machine.num_nodes
    space = app.space

    def distribution(segments):
        hist = fresh_histogram(space, segments)
        total = hist.sum()
        return np.zeros(n) if total == 0 else hist / total

    if getattr(app.policy, "replicates_shared", False):
        shared = np.zeros(n)
        shared[node] = 1.0
    else:
        shared = distribution(space.segments_of_kind(SegmentKind.SHARED))
    private = distribution(
        [
            seg
            for seg in space.segments_of_kind(SegmentKind.PRIVATE)
            if app.ctx.node_of_thread(seg.owner_thread) == node
        ]
    )
    pf = app.workload.private_fraction
    if private.sum() == 0:
        # No private pages (or none placed yet): all traffic is shared.
        pf = 0.0
    if shared.sum() == 0:
        return private
    mix = (1.0 - pf) * shared + pf * private
    total = mix.sum()
    return mix / total if total > 0 else mix
