"""Page-migration accounting and cost model.

The DWP tuner adapts the weight distribution *on-line* by incrementally
migrating pages (paper Section III-B2). Migrations are not free — the paper
measures up to 4% total overhead — so the simulator charges each moved page
a cost (kernel bookkeeping + TLB shootdown + the copy itself) and exposes
cumulative statistics per application for the overhead experiments.

The cost model is page-size aware: a 4 KB page costs ~1.5 us (the fixed
overhead dominates), while a 2 MB huge page is copy-dominated — one of the
reasons the paper defers huge-page integration as future work [14].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.units import PAGE_SIZE

#: Fixed per-page kernel overhead (unmap, remap, TLB shootdown), seconds.
DEFAULT_FIXED_COST_S: float = 2.2e-7

#: Sustained single-page copy bandwidth, GB/s.
DEFAULT_COPY_BANDWIDTH_GBPS: float = 3.2

#: Cost of migrating one 4 KB page under the defaults (for reference).
DEFAULT_PAGE_MIGRATION_COST_S: float = (
    DEFAULT_FIXED_COST_S + PAGE_SIZE / (DEFAULT_COPY_BANDWIDTH_GBPS * 1e9)
)


@dataclass
class MigrationStats:
    """Cumulative migration activity of one application.

    ``pages_failed`` / ``rejected_calls`` / ``retries`` only move when a
    fault plan injects migration faults (see :mod:`repro.faults`); on a
    fault-free run they stay zero.
    """

    pages_moved: int = 0
    migration_calls: int = 0
    time_spent_s: float = 0.0
    bytes_moved: int = 0
    pages_failed: int = 0
    rejected_calls: int = 0
    retries: int = 0


class MigrationEngine:
    """Tracks migrations and converts them to time charged to applications.

    Parameters
    ----------
    fixed_cost_s:
        Per-page kernel overhead in seconds, independent of page size.
    copy_bandwidth_gbps:
        Rate at which page payloads are copied between nodes.
    """

    def __init__(
        self,
        fixed_cost_s: float = DEFAULT_FIXED_COST_S,
        copy_bandwidth_gbps: float = DEFAULT_COPY_BANDWIDTH_GBPS,
    ):
        if fixed_cost_s < 0:
            raise ValueError(f"fixed cost must be non-negative, got {fixed_cost_s}")
        if copy_bandwidth_gbps <= 0:
            raise ValueError(
                f"copy bandwidth must be positive, got {copy_bandwidth_gbps}"
            )
        self.fixed_cost_s = fixed_cost_s
        self.copy_bandwidth_gbps = copy_bandwidth_gbps
        self._stats: Dict[str, MigrationStats] = {}

    def page_cost_s(self, page_size: int = PAGE_SIZE) -> float:
        """Seconds charged per migrated page of the given size."""
        if page_size <= 0:
            raise ValueError(f"page size must be positive, got {page_size}")
        return self.fixed_cost_s + page_size / (self.copy_bandwidth_gbps * 1e9)

    def record(
        self, app_id: str, pages_moved: int, page_size: int = PAGE_SIZE
    ) -> float:
        """Record a migration batch; returns the time cost in seconds."""
        if isinstance(pages_moved, bool) or not isinstance(pages_moved, (int, np.integer)):
            raise TypeError(
                f"pages_moved must be an integer, got {type(pages_moved).__name__}"
            )
        if pages_moved < 0:
            raise ValueError(f"pages_moved must be non-negative, got {pages_moved}")
        stats = self._stats.setdefault(app_id, MigrationStats())
        cost = pages_moved * self.page_cost_s(page_size)
        stats.pages_moved += pages_moved
        stats.migration_calls += 1
        stats.time_spent_s += cost
        stats.bytes_moved += pages_moved * page_size
        return cost

    def record_failed(self, app_id: str, pages_failed: int) -> None:
        """Account pages that a faulty migration batch left on their old
        nodes (no time cost: the kernel gives up on them cheaply)."""
        if isinstance(pages_failed, bool) or not isinstance(pages_failed, (int, np.integer)):
            raise TypeError(
                f"pages_failed must be an integer, got {type(pages_failed).__name__}"
            )
        if pages_failed < 0:
            raise ValueError(f"pages_failed must be non-negative, got {pages_failed}")
        self._stats.setdefault(app_id, MigrationStats()).pages_failed += pages_failed

    def record_rejection(self, app_id: str) -> None:
        """Account a transiently rejected (EBUSY-style) migration call."""
        self._stats.setdefault(app_id, MigrationStats()).rejected_calls += 1

    def record_retry(self, app_id: str) -> None:
        """Account a replay of a previously rejected migration batch."""
        self._stats.setdefault(app_id, MigrationStats()).retries += 1

    def stats(self, app_id: str) -> MigrationStats:
        """Cumulative stats for an application (zeros when none recorded)."""
        return self._stats.get(app_id, MigrationStats())

    def total_pages_moved(self) -> int:
        """Pages moved across all applications."""
        return sum(s.pages_moved for s in self._stats.values())

    def reset(self) -> None:
        """Forget all recorded activity."""
        self._stats.clear()
