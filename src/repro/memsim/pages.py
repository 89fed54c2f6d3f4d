"""Simulated virtual address spaces and page tables.

The unit of placement in the paper (and in Linux) is the 4 KB page. We model
an application's address space as a set of :class:`Segment` objects — the
``.data``/BSS segments and dynamic mappings that BWAP's user-level placement
walks (Section III-B2) — backed by a single page table that records which
NUMA node physically holds each page (or -1 while untouched, since Linux
allocates lazily on first touch).
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.units import PAGE_SIZE, bytes_to_pages

#: Page-table value for a virtual page with no physical backing yet.
UNALLOCATED: int = -1


class SegmentKind(enum.Enum):
    """What the pages in a segment hold, from the placement model's view.

    The paper's system model distinguishes *shared* pages (accessed by every
    thread with uniform probability) from *thread-private* pages (accessed
    only by their owning thread); BWAP's design assumes the former dominate
    but its evaluation stresses workloads where they do not (Table I).
    """

    SHARED = "shared"
    PRIVATE = "private"


@dataclass
class Segment:
    """A contiguous virtual address range with homogeneous access semantics.

    Attributes
    ----------
    name:
        Human-readable identifier (e.g. ``"heap"``, ``"bss"``).
    start_page:
        Index of the first page within the owning address space.
    num_pages:
        Segment length in pages.
    kind:
        Shared or thread-private data.
    owner_thread:
        For private segments, the global id of the owning thread; None for
        shared segments.
    page_size:
        Bytes per page of the owning address space.
    """

    name: str
    start_page: int
    num_pages: int
    kind: SegmentKind
    owner_thread: Optional[int] = None
    page_size: int = PAGE_SIZE

    def __post_init__(self) -> None:
        if self.num_pages <= 0:
            raise ValueError(f"segment {self.name!r} must have at least one page")
        if self.start_page < 0:
            raise ValueError(f"segment {self.name!r} has negative start page")
        if self.kind is SegmentKind.PRIVATE and self.owner_thread is None:
            raise ValueError(f"private segment {self.name!r} needs an owner thread")
        if self.kind is SegmentKind.SHARED and self.owner_thread is not None:
            raise ValueError(f"shared segment {self.name!r} cannot have an owner thread")

    @property
    def end_page(self) -> int:
        """One past the last page index."""
        return self.start_page + self.num_pages

    @property
    def size_bytes(self) -> int:
        """Segment size in bytes."""
        return self.num_pages * self.page_size

    def page_range(self) -> Tuple[int, int]:
        """``(start_page, end_page)`` half-open interval."""
        return (self.start_page, self.end_page)


class AddressSpace:
    """One process's virtual memory, at page granularity.

    Pages are lazily backed: a page maps to ``UNALLOCATED`` until it is
    first touched (:meth:`touch`) or explicitly bound via the simulated
    ``mbind`` (:mod:`repro.memsim.mbind`).

    Parameters
    ----------
    num_nodes:
        Number of NUMA nodes in the machine this space lives on; used to
        validate placements and size histograms.
    page_size:
        Backing page size in bytes. Defaults to the 4 KB pages the paper
        evaluates with; pass ``2 * MiB`` to study transparent huge pages
        (the integration the paper defers as future work, citing "Large
        pages may be harmful on NUMA systems" [14]).
    """

    def __init__(self, num_nodes: int, page_size: int = PAGE_SIZE):
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        if page_size <= 0 or page_size % 4096 != 0:
            raise ValueError(
                f"page_size must be a positive multiple of 4096, got {page_size}"
            )
        self.num_nodes = num_nodes
        self.page_size = page_size
        self._segments: List[Segment] = []
        #: Segment start pages in mapping order (ascending), for bisecting
        #: a page index to its segment.
        self._starts: List[int] = []
        self._segments_by_name: Dict[str, Segment] = {}
        #: The page table lives in the first ``_next_page`` entries of a
        #: capacity-doubling buffer; the tail is left unwritten (so never
        #: faulted in) until a segment mapped over it is set ``UNALLOCATED``.
        self._buf = np.empty(0, dtype=np.int16)
        self._next_page = 0
        #: Per-segment node histograms (``None`` until computed; never handed
        #: out). A write drops only the entries of the segments it overlaps,
        #: and a selection's histogram is a fresh, exact integer sum of its
        #: segments'.
        self._hists: List[Optional[np.ndarray]] = []
        #: Monotonic placement version: bumped by every mutation that backs,
        #: moves, or maps pages. Lets per-epoch consumers of the placement
        #: statistics (the simulator asks every epoch) reuse derived values
        #: between placement changes.
        self._version = 0

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #

    def map_segment(
        self,
        name: str,
        size_bytes: int,
        kind: SegmentKind = SegmentKind.SHARED,
        owner_thread: Optional[int] = None,
    ) -> Segment:
        """Reserve a new virtual segment of at least ``size_bytes`` bytes.

        No physical pages are allocated; pages start ``UNALLOCATED``.
        Segment names are unique within an address space so that
        :meth:`segment` lookups are unambiguous.
        """
        if name in self._segments_by_name:
            raise ValueError(f"segment named {name!r} already mapped")
        num_pages = bytes_to_pages(size_bytes, self.page_size)
        seg = Segment(
            name=name,
            start_page=self._next_page,
            num_pages=num_pages,
            kind=kind,
            owner_thread=owner_thread,
            page_size=self.page_size,
        )
        end = seg.end_page
        if end > len(self._buf):
            buf = np.empty(max(end, 2 * len(self._buf)), dtype=np.int16)
            buf[: self._next_page] = self._buf[: self._next_page]
            self._buf = buf
        self._buf[seg.start_page : end] = UNALLOCATED
        self._segments.append(seg)
        self._starts.append(seg.start_page)
        self._hists.append(None)
        self._segments_by_name[name] = seg
        self._next_page = end
        self._version += 1
        return seg

    @property
    def segments(self) -> Tuple[Segment, ...]:
        """All mapped segments in mapping order."""
        return tuple(self._segments)

    @property
    def total_pages(self) -> int:
        """Total mapped pages (allocated or not)."""
        return self._next_page

    def segment(self, name: str) -> Segment:
        """Look up a segment by name (names are unique per space)."""
        try:
            return self._segments_by_name[name]
        except KeyError:
            raise KeyError(f"no segment named {name!r}") from None

    def segments_of_kind(self, kind: SegmentKind) -> Tuple[Segment, ...]:
        """All segments of the given kind."""
        return tuple(s for s in self._segments if s.kind is kind)

    def _index(self, segment: Segment) -> int:
        """Position of ``segment`` in this space; ValueError if not mapped here."""
        i = bisect_right(self._starts, segment.start_page) - 1
        mapped = self._segments[i] if i >= 0 else None
        if mapped is not segment and mapped != segment:
            raise ValueError(f"segment {segment.name!r} is not mapped in this address space")
        return i

    # ------------------------------------------------------------------ #
    # Page-table access
    # ------------------------------------------------------------------ #

    def page_nodes(self, segment: Optional[Segment] = None) -> np.ndarray:
        """Per-page node ids (a *view*; ``UNALLOCATED`` where untouched)."""
        if segment is None:
            return self._buf[: self._next_page]
        self._index(segment)
        return self._buf[segment.start_page : segment.end_page]

    def _check_range(self, start_page: int, num_pages: int) -> None:
        if start_page < 0 or num_pages < 0 or start_page + num_pages > self._next_page:
            raise ValueError(
                f"page range [{start_page}, {start_page + num_pages}) outside mapped "
                f"space of {self._next_page} pages"
            )

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} outside machine with {self.num_nodes} nodes")

    @property
    def version(self) -> int:
        """Placement version, bumped on every mutation of the page table."""
        return self._version

    def _written(self, lo: int, hi: int) -> None:
        """Record a write to pages ``[lo, hi)``: drop the histograms of the
        segments it overlaps and bump the version."""
        first = bisect_right(self._starts, lo) - 1
        last = bisect_left(self._starts, hi)
        self._hists[first:last] = [None] * (last - first)
        self._version += 1

    def touch(self, segment: Segment, node: int) -> int:
        """First-touch all still-unallocated pages of a segment onto ``node``.

        Returns the number of pages that were allocated. Already-backed
        pages are left where they are, exactly like Linux first-touch; the
        segment's histogram is updated rather than recounted.
        """
        self._check_node(node)
        i = self._index(segment)
        view = self._buf[segment.start_page : segment.end_page]
        mask = view == UNALLOCATED
        allocated = int(np.count_nonzero(mask))
        if allocated:
            view[mask] = node
            old = self._hists[i]
            self._written(segment.start_page, segment.end_page)
            if old is not None or allocated == segment.num_pages:
                hist = np.zeros(self.num_nodes, dtype=np.int64) if old is None else old.copy()
                hist[node] += allocated
                self._hists[i] = hist
        return allocated

    def rebind(
        self,
        start_page: int,
        assignment: np.ndarray,
        *,
        move: bool = True,
        strict: bool = False,
        counts: Optional[Sequence[int]] = None,
    ) -> Tuple[int, int]:
        """Bind a page range to ``assignment``; returns ``(touched, moved)``.

        Unbacked pages are always backed (``touched`` counts them). Pages
        already backed on another node are migrated only when ``move`` is
        set (``moved`` counts them); otherwise they stay put, and ``strict``
        refuses the call with ``PermissionError`` if there are any. The
        range and node ids are checked before anything is written.

        ``counts``, one row of per-node page counts per segment, replaces the
        histogram recount; only a ``move`` write of a run of whole segments
        (leaving each equal to its slice of ``assignment``) may pass it.
        """
        assignment = np.asarray(assignment, dtype=np.int16)
        n = len(assignment)
        self._check_range(start_page, n)
        if n and (assignment.min() < 0 or assignment.max() >= self.num_nodes):
            raise ValueError("assignment contains invalid node ids")
        if counts is not None:
            i = bisect_right(self._starts, start_page) - 1
            counts = np.atleast_2d(np.array(counts, dtype=np.int64))
            run = self._segments[i : i + len(counts)]
            if not (
                move
                and len(run) == len(counts)
                and (run[0].start_page, run[-1].end_page) == (start_page, start_page + n)
                and counts.shape[1:] == (self.num_nodes,)
                and counts.sum(axis=1).tolist() == [seg.num_pages for seg in run]
            ):
                raise ValueError("counts must come with a move write of whole segments, a row each")
        view = self._buf[start_page : start_page + n]
        changed = int(np.count_nonzero(view != assignment))
        if not changed:
            return 0, 0
        # ``assignment`` holds no UNALLOCATED, so every unbacked page is a
        # changed one and the rest of the changed pages are nonconforming.
        touched = int(np.count_nonzero(view == UNALLOCATED))
        moved = changed - touched
        if moved and not move:
            if strict:
                raise PermissionError(
                    f"strict bind without move: {moved} pages already "
                    "placed on non-conforming nodes"
                )
            moved = 0
            np.copyto(view, assignment, where=view == UNALLOCATED)
        else:
            view[:] = assignment
        if touched or moved:
            self._written(start_page, start_page + n)
        if counts is not None:
            self._hists[i : i + len(counts)] = list(counts)
        return touched, moved

    def set_pages(self, start_page: int, assignment: np.ndarray) -> int:
        """Directly assign nodes to a page range; returns pages *moved*.

        A page counts as moved when it was already backed on a different
        node. Newly backed pages are not migrations.
        """
        return self.rebind(start_page, assignment)[1]

    def assign_pages(self, indices: np.ndarray, nodes: np.ndarray) -> int:
        """Scatter-assign nodes to individual pages; returns pages *moved*.

        The scattered counterpart of :meth:`set_pages`, used by the fault
        path to revert the subset of a migration batch that failed.
        """
        indices = np.asarray(indices, dtype=np.intp)
        nodes = np.asarray(nodes, dtype=np.int16)
        if indices.shape != nodes.shape:
            raise ValueError(
                f"indices and nodes must match, got {indices.shape} vs {nodes.shape}"
            )
        if len(indices) == 0:
            return 0
        lo, hi = int(indices.min()), int(indices.max())
        if lo < 0 or hi >= self._next_page:
            raise IndexError("page index out of range")
        if nodes.min() < 0 or nodes.max() >= self.num_nodes:
            raise ValueError("assignment contains invalid node ids")
        current = self._buf[indices]
        changed = current != nodes
        moved = int(np.count_nonzero(current[changed] != UNALLOCATED))
        if changed.any():
            self._buf[indices] = nodes
            self._written(lo, hi + 1)
        return moved

    # ------------------------------------------------------------------ #
    # Placement statistics
    # ------------------------------------------------------------------ #

    def _segment_histogram(self, i: int) -> np.ndarray:
        hist = self._hists[i]
        if hist is None:
            seg = self._segments[i]
            data = self._buf[seg.start_page : seg.end_page]
            hist = np.array(
                [np.count_nonzero(data == k) for k in range(self.num_nodes)],
                dtype=np.int64,
            )
            self._hists[i] = hist
        return hist

    def node_histogram(self, segments: Optional[Iterable[Segment]] = None) -> np.ndarray:
        """Allocated-page counts per node over the given segments (or all).

        Built from per-segment histograms memoised until a write touches
        their segment; the returned array is read-only (copy before
        modifying).
        """
        if segments is None:
            indices: Iterable[int] = range(len(self._segments))
        else:
            indices = [self._index(s) for s in segments]
        hist = np.zeros(self.num_nodes, dtype=np.int64)
        for i in indices:
            hist += self._segment_histogram(i)
        hist.setflags(write=False)
        return hist

    def placement_distribution(
        self, segments: Optional[Iterable[Segment]] = None
    ) -> np.ndarray:
        """Fraction of allocated pages on each node (zeros if none allocated).

        The returned array is read-only (copy before modifying).
        """
        hist = self.node_histogram(segments)
        total = hist.sum()
        dist = np.zeros(self.num_nodes) if total == 0 else hist / total
        dist.setflags(write=False)
        return dist

    def allocated_pages(self) -> int:
        """Number of pages with physical backing."""
        return int(self.node_histogram().sum())

    def resident_bytes_per_node(self) -> np.ndarray:
        """Bytes resident on each node."""
        return self.node_histogram() * self.page_size
