"""Simulated ``mbind(2)`` — the syscall BWAP's placement is built on.

BWAP's user-level weighted interleaving (paper Algorithm 1) issues a small
number of ``mbind`` calls with ``MPOL_INTERLEAVE`` over nested node sets,
relying on ``MPOL_MF_MOVE``/``MPOL_MF_STRICT`` to migrate already-allocated
pages when the DWP tuner changes weights mid-run. We reproduce those
semantics over the simulated :class:`~repro.memsim.pages.AddressSpace`,
including the limitation the paper calls out: ``mbind`` only *narrowing*
re-interleaves migrate cleanly; the reverse operation is unsupported.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.memsim.interleave import (
    period_block,
    uniform_counts,
    weighted_assignment,
    weighted_counts,
)
from repro.memsim.pages import AddressSpace


class MPol(enum.Enum):
    """Memory policies supported by the simulated ``mbind``."""

    DEFAULT = "default"
    BIND = "bind"
    PREFERRED = "preferred"
    INTERLEAVE = "interleave"
    #: The kernel-level weighted-interleave policy added by the paper's
    #: authors (Section III-B2, "at the kernel level ... a new policy").
    WEIGHTED_INTERLEAVE = "weighted-interleave"


class MbindFlag(enum.IntFlag):
    """``mbind`` mode flags (subset relevant to the paper)."""

    NONE = 0
    #: Migrate pages that do not conform to the new policy.
    MOVE = 1
    #: Fail loudly when pages cannot conform (we model this as validation).
    STRICT = 2


@dataclass(frozen=True)
class MbindResult:
    """Outcome of one ``mbind`` call.

    Attributes
    ----------
    pages_touched:
        Pages newly given physical backing by this call.
    pages_moved:
        Pages migrated from one node to another (these cost time; the
        migration engine charges them to the application).
    """

    pages_touched: int
    pages_moved: int


def mbind(
    space: AddressSpace,
    start_page: int,
    num_pages: int,
    policy: MPol,
    nodes: Sequence[int],
    *,
    weights: Sequence[float] = None,
    flags: MbindFlag = MbindFlag.NONE,
    phase: int = 0,
) -> MbindResult:
    """Apply a memory policy to ``num_pages`` pages starting at ``start_page``.

    Unallocated pages are always bound according to the policy (as if the
    policy were recorded and applied on first touch). Already-backed pages
    are only migrated when ``MbindFlag.MOVE`` is set, matching Linux.

    Parameters
    ----------
    weights:
        Required for ``MPol.WEIGHTED_INTERLEAVE``; one weight per entry of
        ``nodes``.
    phase:
        Round-robin phase for ``MPol.INTERLEAVE`` (continuation across
        calls).
    """
    return _bind(space, start_page, num_pages, policy, nodes, weights, flags, phase, False)


def mbind_segment(
    space: AddressSpace,
    segment,
    policy: MPol,
    nodes: Sequence[int],
    *,
    weights: Sequence[float] = None,
    flags: MbindFlag = MbindFlag.NONE,
) -> MbindResult:
    """Convenience wrapper applying :func:`mbind` to a whole segment; a
    ``MOVE`` bind hands the segment's per-node counts over with the write."""
    return _bind(
        space, segment.start_page, segment.num_pages, policy, nodes, weights, flags,
        segment.start_page, True,
    )


def _bind(space, start_page, num_pages, policy, nodes, weights, flags, phase, whole):
    if num_pages < 0:
        raise ValueError(f"num_pages must be non-negative, got {num_pages}")
    if num_pages == 0 or policy is MPol.DEFAULT:
        # DEFAULT restores first-touch behaviour; nothing to bind now.
        return MbindResult(pages_touched=0, pages_moved=0)

    node_list = list(nodes)
    if policy in (MPol.BIND, MPol.PREFERRED):
        if len(node_list) != 1:
            raise ValueError(f"{policy.value} policy takes exactly one node, got {node_list}")
        assignment = [(num_pages, period_block(node_list))]
    elif policy is MPol.INTERLEAVE:
        assignment = [(num_pages, period_block(node_list, phase=phase))]
    elif policy is MPol.WEIGHTED_INTERLEAVE:
        if weights is None:
            raise ValueError("weighted-interleave requires weights")
        assignment = weighted_assignment(num_pages, weights, node_list)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unsupported policy {policy}")

    move = MbindFlag.MOVE in flags
    counts = None
    if whole and move and all(0 <= n < space.num_nodes for n in node_list):
        # The write's per-node counts, known without counting its pages (a
        # bind is an interleave over one node).
        if policy is MPol.WEIGHTED_INTERLEAVE:
            counts = np.zeros(space.num_nodes, dtype=np.int64)
            counts[node_list] = weighted_counts(num_pages, weights)
        else:
            counts = uniform_counts(num_pages, node_list, space.num_nodes, phase=phase)
    touched, moved = space.rebind(
        start_page, assignment, move=move, strict=MbindFlag.STRICT in flags, counts=counts
    )
    return MbindResult(pages_touched=touched, pages_moved=moved)
