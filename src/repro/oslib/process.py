"""Process abstraction over the simulated VM.

BWAP's user-level placement (paper Section III-B2) starts by walking the
process's currently-mapped address ranges that are likely to hold shared
data — the ``.data`` and BSS segments plus dynamic mappings, as read from
``/proc/<pid>/maps``. This module provides that view over the simulated
address space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.memsim.pages import AddressSpace, Segment, SegmentKind
from repro.units import PAGE_SIZE


@dataclass(frozen=True)
class VMA:
    """One virtual memory area, as a ``/proc/maps``-style record."""

    start: int
    end: int
    name: str
    kind: SegmentKind

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"invalid VMA range [{self.start:#x}, {self.end:#x})")

    @property
    def length(self) -> int:
        """Size in bytes."""
        return self.end - self.start

    @property
    def num_pages(self) -> int:
        """Size in pages."""
        return self.length // PAGE_SIZE


class Process:
    """A process: a pid and its address space.

    Parameters
    ----------
    pid:
        Process identifier (only used in reports).
    space:
        Backing simulated address space.
    """

    def __init__(self, pid: int, space: AddressSpace):
        if pid <= 0:
            raise ValueError(f"pid must be positive, got {pid}")
        self.pid = pid
        self.space = space

    def vmas(self) -> List[VMA]:
        """All mapped areas, in address order (a ``/proc/maps`` read)."""
        out: List[VMA] = []
        for seg in self.space.segments:
            start = seg.start_page * PAGE_SIZE
            out.append(
                VMA(start=start, end=start + seg.size_bytes, name=seg.name, kind=seg.kind)
            )
        return out

    def data_vmas(self) -> List[VMA]:
        """The areas BWAP targets: everything likely to hold shared data.

        In our model every mapped segment is data (there is no code
        segment), so this equals :meth:`vmas`; kept separate because the
        real implementation filters the maps list.
        """
        return self.vmas()

    def segment_for_vma(self, vma: VMA) -> Segment:
        """The segment backing a VMA."""
        for seg in self.space.segments:
            if seg.start_page * PAGE_SIZE == vma.start:
                return seg
        raise KeyError(f"no segment backs VMA {vma.name!r} at {vma.start:#x}")

    def numa_maps(self) -> List[Tuple[str, dict]]:
        """Per-VMA page distribution, like ``/proc/<pid>/numa_maps``."""
        out = []
        for seg in self.space.segments:
            hist = self.space.node_histogram([seg])
            counts = {f"N{n}": int(c) for n, c in enumerate(hist) if c > 0}
            out.append((seg.name, counts))
        return out
