"""Memory traffic description consumed by the contention solver.

The solver works on :class:`Consumer` entities: one per (application,
worker node) pair. A consumer drains memory at some aggregate rate ``R``
split across source nodes according to its *mix* — the fraction of its
accesses that target pages on each node. The mix is exactly what page
placement controls, which is why BWAP's weight distribution maps directly
onto it (paper Section III-A1: accesses hit shared pages uniformly, so the
portion read from node *i* is proportional to the weight of *i*).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class Consumer:
    """One worker node's memory demand within one application.

    Attributes
    ----------
    app_id:
        Owning application identifier (used in reports and co-scheduling).
    node:
        Worker node whose threads generate this demand.
    threads:
        Number of threads pinned on the node (informational; demand already
        aggregates them).
    mix:
        Per-source-node fractions of this consumer's traffic; must sum to 1
        (or be all-zero for an idle consumer).
    demand:
        Aggregate demand in GB/s; ``inf`` models the paper's canonical
        bandwidth-intensive application whose demand always exceeds supply.
    write_fraction:
        Fraction of the traffic that is writes; the memory controller
        charges written bytes extra (see
        :class:`~repro.memsim.controller.MCModel`).
    """

    app_id: str
    node: int
    threads: int
    mix: np.ndarray
    demand: float
    write_fraction: float = 0.0

    def __post_init__(self) -> None:
        mix = np.asarray(self.mix, dtype=float)
        object.__setattr__(self, "mix", mix)
        if mix.ndim != 1:
            raise ValueError("mix must be 1-D")
        if (mix < -1e-12).any():
            raise ValueError("mix fractions must be non-negative")
        total = mix.sum()
        if total > 0 and abs(total - 1.0) > 1e-6:
            raise ValueError(f"mix must sum to 1 (or 0 for idle), got {total}")
        if self.demand < 0:
            raise ValueError(f"demand must be non-negative, got {self.demand}")
        if not 0 <= self.write_fraction <= 1:
            raise ValueError(f"write_fraction must be in [0, 1], got {self.write_fraction}")
        if self.threads < 0:
            raise ValueError(f"threads must be non-negative, got {self.threads}")
        # Cached so hot paths (idle filtering over thousands of fleet
        # candidate entries) don't re-reduce the mix array per call.
        object.__setattr__(self, "mix_total", float(total))

    @property
    def is_idle(self) -> bool:
        """True when this consumer generates no traffic."""
        return self.demand == 0 or self.mix_total == 0.0

    def key(self) -> Tuple[str, int]:
        """Stable identity used in allocation result maps."""
        return (self.app_id, self.node)


def consumer_from_placement(
    app_id: str,
    node: int,
    threads: int,
    placement_distribution: np.ndarray,
    demand: float,
    *,
    write_fraction: float = 0.0,
) -> Consumer:
    """Build a consumer whose mix follows a page-placement distribution."""
    dist = np.asarray(placement_distribution, dtype=float)
    total = dist.sum()
    mix = dist / total if total > 0 else dist
    return Consumer(
        app_id=app_id,
        node=node,
        threads=threads,
        mix=mix,
        demand=demand,
        write_fraction=write_fraction,
    )
