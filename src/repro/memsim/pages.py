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
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.memsim.interleave import PERIOD_BLOCK_PAGES, tile_into
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
        #: The histogram of record: one row of per-node page counts per
        #: segment. Every write updates it from counts it already knows, so
        #: no page is ever recounted. Rows past the mapped segments are
        #: capacity (doubling, like ``_buf``) and stay zero.
        self._counts = np.zeros((0, num_nodes), dtype=np.int64)
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
        return self.map_segments([name], size_bytes, kind, [owner_thread])[0]

    def map_segments(
        self,
        names: Sequence[str],
        size_bytes: Union[int, Sequence[int]],
        kind: Union[SegmentKind, Sequence[SegmentKind]] = SegmentKind.SHARED,
        owner_threads: Optional[Sequence[Optional[int]]] = None,
    ) -> List[Segment]:
        """Map one segment per name, back to back, with one page-table fill
        (see :meth:`map_segment`). ``size_bytes`` and ``kind`` are one value
        for every segment or one per name; ``owner_threads`` gives each
        segment's owner. Every segment is checked before any is mapped.
        """
        count = len(names)
        owners = [None] * count if owner_threads is None else list(owner_threads)
        sizes = [size_bytes] * count if np.ndim(size_bytes) == 0 else list(size_bytes)
        kinds = [kind] * count if isinstance(kind, SegmentKind) else list(kind)
        for what, values in (("owner threads", owners), ("sizes", sizes), ("kinds", kinds)):
            if len(values) != count:
                raise ValueError(f"{len(values)} {what} for {count} segments")
        start = end = self._next_page
        batch: Dict[str, Segment] = {}
        for name, size, kind_, owner in zip(names, sizes, kinds, owners):
            if name in self._segments_by_name or name in batch:
                raise ValueError(f"segment named {name!r} already mapped")
            batch[name] = Segment(name, end, bytes_to_pages(size, self.page_size), kind_, owner, self.page_size)
            end = batch[name].end_page
        if not batch:
            return []
        segs = list(batch.values())
        if end > len(self._buf):
            buf = np.empty(max(end, 2 * len(self._buf)), dtype=np.int16)
            buf[:start] = self._buf[:start]
            self._buf = buf
        self._buf[start:end] = UNALLOCATED
        mapped = len(self._segments)
        if mapped + len(segs) > len(self._counts):
            counts = np.zeros((max(mapped + len(segs), 2 * mapped), self.num_nodes), np.int64)
            counts[:mapped] = self._counts[:mapped]
            self._counts = counts
        self._segments += segs
        self._starts += [seg.start_page for seg in segs]
        self._segments_by_name.update(batch)
        self._next_page = end
        self._version += 1
        return segs

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
        """Per-page node ids (a read-only *view*; ``UNALLOCATED`` where
        untouched). Writes go through the methods below, which keep the
        page counts."""
        if segment is None:
            view = self._buf[: self._next_page]
        else:
            self._index(segment)
            view = self._buf[segment.start_page : segment.end_page]
        view.flags.writeable = False
        return view

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

    def _count(self, values: np.ndarray) -> np.ndarray:
        """Per-node counts of page-table entries (``UNALLOCATED`` in none)."""
        return np.array([np.count_nonzero(values == k) for k in range(self.num_nodes)], np.int64)

    def _shift(self, pages: np.ndarray, old: np.ndarray, new: np.ndarray) -> None:
        """Move the kept counts of ``pages`` (ascending, distinct) from their
        ``old`` nodes (``UNALLOCATED`` for none) to their ``new`` ones."""
        bounds = np.searchsorted(pages, self._starts + [self._next_page]).tolist()
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if hi > lo:
                self._counts[i] += self._count(new[lo:hi]) - self._count(old[lo:hi])

    def touch(self, segment: Segment, node: int) -> int:
        """First-touch all still-unallocated pages of a segment onto ``node``.

        Returns the number of pages that were allocated. Already-backed
        pages are left where they are, exactly like Linux first-touch; the
        unbacked count is read off the segment's kept counts, and a wholly
        unbacked segment is backed with one fill.
        """
        self._check_node(node)
        return self._touch([self._index(segment)], [node])

    def touch_all(self, nodes: Sequence[int]) -> int:
        """:meth:`touch` every segment, in mapping order, onto its entry of
        ``nodes``; returns the pages allocated."""
        if len(nodes) != len(self._segments):
            raise ValueError(f"{len(nodes)} nodes for {len(self._segments)} segments")
        for node in set(nodes):
            self._check_node(node)
        return self._touch(list(range(len(nodes))), list(nodes))

    def _touch(self, rows: List[int], nodes: List[int]) -> int:
        """Back the unbacked pages of the distinct segments ``rows`` on
        their ``nodes``, one write; returns the pages allocated."""
        allocated = self._counts[rows].sum(axis=1).tolist()
        for j, (i, node) in enumerate(zip(rows, nodes)):
            seg = self._segments[i]
            allocated[j] = seg.num_pages - allocated[j]
            if allocated[j] == seg.num_pages:
                self._buf[seg.start_page : seg.end_page].fill(node)
            elif allocated[j]:
                view = self._buf[seg.start_page : seg.end_page]
                view[view == UNALLOCATED] = node
        if any(allocated):
            self._counts[rows, nodes] += allocated
            self._version += 1
        return sum(allocated)

    def rebind(
        self,
        start_page: int,
        assignment,
        *,
        move: bool = True,
        strict: bool = False,
        counts: Optional[Sequence[int]] = None,
    ) -> Tuple[int, int]:
        """Bind a page range to ``assignment``; returns ``(touched, moved)``.

        ``assignment`` is back-to-back ``(length, block)`` runs from
        ``start_page``: page ``j`` of a run goes to ``block[j % len(block)]``,
        so an interleave passes its period block
        (:func:`~repro.memsim.interleave.period_block`) and no assignment of
        the whole range is built. A flat array of node ids is one run whose
        block is the whole range.

        Unbacked pages are always backed (``touched`` counts them). Pages
        already backed on another node are migrated only when ``move`` is
        set (``moved`` counts them); otherwise they stay put, and ``strict``
        refuses the call with ``PermissionError`` if there are any. The
        range and node ids are checked (each distinct block once) before
        anything is written.

        ``counts``, one row of per-node page counts per segment, become
        those segments' kept counts (``touched`` is read off the old ones);
        only a ``move`` write of a run of whole segments (leaving each equal
        to its slice of ``assignment``) may pass it. Without it the counts
        of the changed pages are moved.
        """
        spans = _spans(assignment)
        n = spans[-1][1] if spans else 0
        self._check_range(start_page, n)
        # One pass per block: a negative id reads as a large unsigned one.
        for block in {id(block): block for _, _, block in spans}.values():
            if block.view(np.uint16).max() >= self.num_nodes:
                raise ValueError("assignment contains invalid node ids")
        view = self._buf[start_page : start_page + n]
        if counts is not None:
            i = bisect_right(self._starts, start_page) - 1
            counts = np.atleast_2d(np.array(counts, dtype=np.int64))
            segs = self._segments[i : i + len(counts)]
            if not (
                move
                and len(segs) == len(counts)
                and (segs[0].start_page, segs[-1].end_page) == (start_page, start_page + n)
                and counts.shape[1:] == (self.num_nodes,)
                and counts.sum(axis=1).tolist() == [seg.num_pages for seg in segs]
            ):
                raise ValueError("counts must come with a move write of whole segments, a row each")
            rows = self._counts[i : i + len(counts)]
            touched = n - int(rows.sum())
            # A wholly unbacked range changes every page: nothing to compare.
            moved = 0 if touched == n else int(np.count_nonzero(_unlike(view, spans))) - touched
            if touched or moved:
                for lo, hi, block in spans:
                    tile_into(view[lo:hi], block)
                self._version += 1
            rows[:] = counts
            return touched, moved
        # ``assignment`` holds no UNALLOCATED, so every unbacked page is a
        # changed one and the rest of the changed pages are nonconforming.
        changed = _unlike(view, spans)
        unbacked = view == UNALLOCATED
        touched = int(np.count_nonzero(unbacked))
        moved = int(np.count_nonzero(changed)) - touched
        if moved and not move:
            if strict:
                raise PermissionError(
                    f"strict bind without move: {moved} pages already "
                    "placed on non-conforming nodes"
                )
            moved, changed = 0, unbacked
        if touched or moved:
            pages = np.flatnonzero(changed)
            new = np.empty(len(pages), dtype=np.int16)
            bounds = np.searchsorted(pages, [lo for lo, _, _ in spans] + [n]).tolist()
            for (lo, _, block), a, b in zip(spans, bounds, bounds[1:]):
                new[a:b] = block[(pages[a:b] - lo) % len(block)]
            self._shift(start_page + pages, view[pages], new)
            view[pages] = new
            self._version += 1
        return touched, moved

    def set_pages(self, start_page: int, assignment: np.ndarray) -> int:
        """Directly assign nodes to a page range; returns pages *moved*.

        A page counts as moved when it was already backed on a different
        node. Newly backed pages are not migrations.
        """
        return self.rebind(start_page, assignment)[1]

    def assign_pages(self, indices: np.ndarray, nodes: np.ndarray) -> int:
        """Scatter-assign nodes to individual pages; returns pages *moved*.

        The scattered counterpart of :meth:`set_pages` (``indices`` must be
        distinct), used by the fault path to revert the subset of a
        migration batch that failed and by AutoNUMA's moves.
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
        if (indices[1:] <= indices[:-1]).any():
            order = np.argsort(indices, kind="stable")
            indices, nodes = indices[order], nodes[order]
            if (indices[1:] == indices[:-1]).any():
                raise ValueError("page indices must be distinct")
        current = self._buf[indices]
        changed = current != nodes
        if not changed.all():
            indices, current, nodes = indices[changed], current[changed], nodes[changed]
        if not len(indices):
            return 0
        moved = int(np.count_nonzero(current != UNALLOCATED))
        self._shift(indices, current, nodes)
        self._buf[indices] = nodes
        self._version += 1
        return moved

    # ------------------------------------------------------------------ #
    # Placement statistics
    # ------------------------------------------------------------------ #

    @property
    def counts(self) -> np.ndarray:
        """The ``(segments x nodes)`` int64 page-count matrix, one row per
        segment in mapping order (a read-only view)."""
        view = self._counts[: len(self._segments)]
        view.flags.writeable = False
        return view

    def node_histogram(self, segments: Optional[Iterable[Segment]] = None) -> np.ndarray:
        """Allocated-page counts per node over the given segments (or all).

        A sum of the segments' kept count rows; the returned array is
        read-only (copy before modifying).
        """
        counts = self._counts[: len(self._segments)]
        if segments is not None:
            counts = self._counts[[self._index(s) for s in segments]]
        hist = counts.sum(axis=0)
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
        return int(self._counts[: len(self._segments)].sum())

    def resident_bytes_per_node(self) -> np.ndarray:
        """Bytes resident on each node."""
        return self.node_histogram() * self.page_size


def _unlike(view: np.ndarray, spans: List[Tuple[int, int, np.ndarray]]) -> np.ndarray:
    """Mask of the entries of ``view`` that differ from ``spans``' blocks
    repeated over them, built span by span with no assignment of the
    range."""
    mask = np.empty(len(view), dtype=bool)
    for lo, hi, block in spans:
        # Split as :func:`~repro.memsim.interleave.tile_into` writes.
        p = len(block)
        mid = hi - (hi - lo) % p
        if mid > lo:
            np.not_equal(view[lo:mid].reshape(-1, p), block, out=mask[lo:mid].reshape(-1, p))
        if hi > mid:
            np.not_equal(view[mid:hi], block[: hi - mid], out=mask[mid:hi])
    return mask


def _spans(assignment) -> List[Tuple[int, int, np.ndarray]]:
    """:meth:`AddressSpace.rebind`'s runs as ``(lo, hi, block)`` offsets
    into the range, each block a 1-D ``int16`` array repeated over its
    span; a flat assignment (one node id per page) is one span. Empty runs
    are dropped, and back-to-back runs no longer than their blocks (each
    writes only its block's head) are joined, up to about a period block
    of pages per span, so many short sub-ranges cost a few compares and
    writes rather than one each."""
    if not (len(assignment) and isinstance(assignment[0], tuple)):
        flat = np.asarray(assignment, dtype=np.int16)
        return [(0, len(flat), flat)] if len(flat) else []
    spans, heads, lo, head_lo = [], [], 0, 0
    for length, block in assignment:
        block = np.asarray(block, dtype=np.int16)
        if length < 0 or block.ndim != 1 or not len(block):
            raise ValueError(f"a run needs a non-negative length and a non-empty 1-D block, got {length}")
        length = int(length)
        if heads and (length > len(block) or lo + length - head_lo > PERIOD_BLOCK_PAGES):
            spans.append((head_lo, lo, heads[0] if len(heads) == 1 else np.concatenate(heads)))
            heads = []
        if length > len(block):
            spans.append((lo, lo + length, block))
        elif length:
            if not heads:
                head_lo = lo
            heads.append(block[:length])
        lo += length
    if heads:
        spans.append((head_lo, lo, heads[0] if len(heads) == 1 else np.concatenate(heads)))
    return spans
