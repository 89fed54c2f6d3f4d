"""Memory-system simulator: pages, placement, contention, migration.

This package is the substrate replacing the Linux VM + real memory system
in the paper's evaluation: a page-granular address-space model with
``mbind`` semantics, the baseline placement policies, a steady-state
bandwidth-contention solver, and migration cost accounting.
"""

from repro.memsim.pages import UNALLOCATED, AddressSpace, Segment, SegmentKind
from repro.memsim.interleave import (
    uniform_assignment,
    weighted_assignment,
    weighted_counts,
)
from repro.memsim.mbind import MbindFlag, MbindResult, MPol, mbind, mbind_segment
from repro.memsim.controller import DEFAULT_MC_MODEL, MCModel
from repro.memsim.flows import Consumer, consumer_from_placement
from repro.memsim.contention import (
    Allocation,
    ConsumerRows,
    SolverCache,
    consumer_rows,
    consumers_fingerprint,
    isolated_bandwidth_matrix,
    proportional_profile,
    solve,
    solve_batch,
    solve_batch_fleet_lazy,
    FleetBatch,
)
from repro.memsim.policies import (
    AutoNUMA,
    FirstTouch,
    PlacementContext,
    PlacementPolicy,
    PlacementStats,
    UniformAll,
    UniformWorkers,
    WeightedInterleave,
    policy_by_name,
)
from repro.memsim.carrefour import CarrefourLike
from repro.memsim.replication import ReplicatedShared
from repro.memsim.migration import (
    DEFAULT_PAGE_MIGRATION_COST_S,
    MigrationEngine,
    MigrationStats,
)

__all__ = [
    "UNALLOCATED",
    "AddressSpace",
    "Segment",
    "SegmentKind",
    "uniform_assignment",
    "weighted_assignment",
    "weighted_counts",
    "MbindFlag",
    "MbindResult",
    "MPol",
    "mbind",
    "mbind_segment",
    "DEFAULT_MC_MODEL",
    "MCModel",
    "Consumer",
    "consumer_from_placement",
    "Allocation",
    "ConsumerRows",
    "SolverCache",
    "consumer_rows",
    "consumers_fingerprint",
    "isolated_bandwidth_matrix",
    "proportional_profile",
    "solve",
    "solve_batch",
    "solve_batch_fleet_lazy",
    "FleetBatch",
    "AutoNUMA",
    "FirstTouch",
    "PlacementContext",
    "PlacementPolicy",
    "PlacementStats",
    "UniformAll",
    "UniformWorkers",
    "WeightedInterleave",
    "policy_by_name",
    "CarrefourLike",
    "ReplicatedShared",
    "DEFAULT_PAGE_MIGRATION_COST_S",
    "MigrationEngine",
    "MigrationStats",
]
