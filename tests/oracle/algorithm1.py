"""Per-sub-range ``mbind`` sequence: the reference for Algorithm 1's writer.

The paper's user-level weighted interleave issues one
``mbind(MPOL_INTERLEAVE)`` per sub-range of the Algorithm 1 plan, each at
the round-robin phase of its first page. The production writer
(:func:`repro.core.interleave.apply_weighted_user`) binds the whole
segment with one page-table write instead, and must reproduce this
sequence bitwise: page table, ``pages_touched``, ``pages_moved`` and
``mbind_calls``.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.interleave import PlacementOutcome, algorithm1_subranges
from repro.memsim.mbind import MbindFlag, MPol, mbind
from repro.memsim.pages import AddressSpace, Segment


def apply_weighted_user_reference(
    space: AddressSpace,
    segment: Segment,
    weights: Sequence[float],
    *,
    move: bool = True,
) -> PlacementOutcome:
    """Weighted-interleave one segment with one ``mbind`` per sub-range."""
    plan = algorithm1_subranges(segment.num_pages, weights)
    flags = MbindFlag.MOVE | MbindFlag.STRICT if move else MbindFlag.NONE
    touched = moved = 0
    for offset, length, nodes in plan:
        res = mbind(
            space,
            segment.start_page + offset,
            length,
            MPol.INTERLEAVE,
            nodes,
            flags=flags,
            phase=segment.start_page + offset,
        )
        touched += res.pages_touched
        moved += res.pages_moved
    return PlacementOutcome(pages_touched=touched, pages_moved=moved, mbind_calls=len(plan))


def apply_weighted_placement_reference(
    space: AddressSpace, weights: Sequence[float], *, move: bool = True
) -> PlacementOutcome:
    """Every segment through :func:`apply_weighted_user_reference`."""
    touched = moved = calls = 0
    for seg in space.segments:
        out = apply_weighted_user_reference(space, seg, weights, move=move)
        touched += out.pages_touched
        moved += out.pages_moved
        calls += out.mbind_calls
    return PlacementOutcome(pages_touched=touched, pages_moved=moved, mbind_calls=calls)
