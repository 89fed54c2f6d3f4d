"""Carrefour-style read-only page replication (paper Section V).

Carrefour [21] complements its interleaving with two optimisations the
paper could not evaluate (they need kernel patches): co-location of private
pages and *replication of read-only shared pages* on every node that reads
them. The paper argues these are orthogonal to BWAP; this module implements
the replication policy so the combination can actually be measured.

Replication semantics in the model: each worker node holds a full replica
of the shared segments, so shared *reads* are served locally; private pages
are placed on their owner's node (Carrefour's co-location). Replication is
only sound for read-mostly data — a write would have to invalidate every
replica — so the policy refuses workloads whose write share exceeds a
threshold, mirroring Carrefour's read-only detection.
"""

from __future__ import annotations

from repro.memsim.pages import AddressSpace, SegmentKind
from repro.memsim.policies import PlacementContext, PlacementPolicy, PlacementStats

#: Write share above which replication is refused (Carrefour replicates
#: pages it observed as read-only; we allow a small slack for the model).
DEFAULT_MAX_WRITE_FRACTION: float = 0.05


class ReplicatedShared(PlacementPolicy):
    """Replicate shared pages on every worker; co-locate private pages.

    The page table stores the *primary* copy's location (the first worker
    node); the simulator recognises the ``replicates_shared`` attribute and
    serves each worker's shared reads from its local replica. Memory
    footprint grows by ``(num_workers - 1) x shared_bytes`` — call
    :meth:`memory_overhead_bytes` to check capacity.
    """

    name = "replicated-shared"

    #: Engine flag: shared reads are served from the reader's local node.
    replicates_shared = True

    def __init__(self, max_write_fraction: float = DEFAULT_MAX_WRITE_FRACTION):
        if not 0 <= max_write_fraction < 1:
            raise ValueError(
                f"max_write_fraction must be in [0, 1), got {max_write_fraction}"
            )
        self.max_write_fraction = max_write_fraction

    def validate_workload(self, write_fraction: float) -> None:
        """Refuse write-heavy workloads, like Carrefour's read-only filter."""
        if write_fraction > self.max_write_fraction:
            raise ValueError(
                f"replication requires read-mostly data: write fraction "
                f"{write_fraction:.2f} exceeds {self.max_write_fraction:.2f}"
            )

    def place(self, space: AddressSpace, ctx: PlacementContext) -> PlacementStats:
        # Primary copy on the first worker; replicas are implicit (the
        # engine serves reads locally via replicates_shared).
        nodes = [
            ctx.node_of_thread(seg.owner_thread) if seg.kind is SegmentKind.PRIVATE else ctx.worker_nodes[0]
            for seg in space.segments
        ]
        return PlacementStats(pages_touched=space.touch_all(nodes))

    @staticmethod
    def memory_overhead_bytes(space: AddressSpace, ctx: PlacementContext) -> int:
        """Extra DRAM consumed by the replicas."""
        shared = space.segments_of_kind(SegmentKind.SHARED)
        shared_bytes = sum(s.size_bytes for s in shared)
        return shared_bytes * (len(ctx.worker_nodes) - 1)
