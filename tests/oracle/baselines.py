"""Per-segment baseline writes: the references for the whole-space writers.

``UniformWorkers``/``UniformAll`` place an address space with one write,
and ``AutoNUMA.step`` finds its moves with one whole-space compare and
writes them with one scatter. Here each segment is written on its own, as
one ``mbind(MPOL_INTERLEAVE, MOVE | STRICT)`` per segment and one
``set_pages`` per AutoNUMA segment move; the production writers must leave
the same page table and report the same counts.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.memsim.mbind import MbindFlag, MPol, mbind_segment
from repro.memsim.pages import AddressSpace, SegmentKind
from repro.memsim.policies import PlacementContext
from tests.oracle.flat_rebind import uniform_assignment


def interleave_place_reference(space: AddressSpace, nodes: Sequence[int]) -> Tuple[int, int]:
    """``(touched, moved)`` of one interleave ``mbind`` per segment."""
    touched = moved = 0
    for seg in space.segments:
        res = mbind_segment(space, seg, MPol.INTERLEAVE, nodes, flags=MbindFlag.MOVE | MbindFlag.STRICT)
        touched += res.pages_touched
        moved += res.pages_moved
    return touched, moved


def autonuma_step_reference(space: AddressSpace, ctx: PlacementContext, fraction: float) -> int:
    """Pages moved by one AutoNUMA step written segment by segment: the
    first ``fraction`` (at least one) of each segment's mismatched pages
    move to their target node."""
    moved = 0
    for seg in space.segments:
        if seg.kind is SegmentKind.PRIVATE:
            target = np.full(seg.num_pages, ctx.node_of_thread(seg.owner_thread), dtype=np.int16)
        else:
            target = uniform_assignment(seg.num_pages, ctx.worker_nodes, phase=seg.start_page)
        view = space.page_nodes(seg)
        mismatched = np.nonzero(view != target)[0]
        if len(mismatched) == 0:
            continue
        chosen = mismatched[: max(1, int(len(mismatched) * fraction))]
        new = view.copy()
        new[chosen] = target[chosen]
        moved += space.set_pages(seg.start_page, new)
    return moved
