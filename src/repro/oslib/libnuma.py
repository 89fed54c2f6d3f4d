"""Simulated ``libnuma`` with BWAP's ``bw-interleaved`` extension.

The paper implements BWAP "as an extension to Linux libnuma ... enriching
the original interface with a bw-interleaved policy option that
automatically determines memory nodes to place the application pages on,
and the per-node weights" (Section I). This module reproduces the familiar
libnuma entry points over the simulated machine plus that extension, so
example code reads like real libnuma client code.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.canonical import CanonicalTuner, canonical_tuner
from repro.core.dwp import combine_weights
from repro.core.interleave import PlacementOutcome, apply_weighted_placement
from repro.memsim.mbind import MbindFlag, MPol, mbind_segment
from repro.memsim.pages import Segment, SegmentKind
from repro.oslib.process import Process
from repro.topology.machine import Machine


class LibNuma:
    """libnuma bound to one machine (the real library binds the host).

    Parameters
    ----------
    machine:
        The NUMA machine this "host" exposes.
    canonical_tuner:
        Pre-profiled canonical tuner; the machine's shared one
        (:func:`~repro.core.canonical.canonical_tuner`) when omitted (the
        real BWAP ships the canonical profiles with the installation).
    """

    def __init__(self, machine: Machine, canonical_tuner: Optional[CanonicalTuner] = None):
        self.machine = machine
        self._canonical = canonical_tuner

    # ------------------------------------------------------------------ #
    # Classic libnuma surface
    # ------------------------------------------------------------------ #

    def numa_available(self) -> bool:
        """True when the machine has more than one node."""
        return self.machine.num_nodes > 1

    def numa_num_configured_nodes(self) -> int:
        """Number of NUMA nodes."""
        return self.machine.num_nodes

    def numa_num_configured_cpus(self) -> int:
        """Number of hardware threads."""
        return self.machine.num_cores

    def numa_node_size(self, node: int) -> int:
        """DRAM bytes attached to a node."""
        return self.machine.node(node).memory_bytes

    def numa_alloc_onnode(
        self, process: Process, name: str, size_bytes: int, node: int
    ) -> Segment:
        """Allocate memory bound to one node."""
        seg = process.space.map_segment(name, size_bytes, SegmentKind.SHARED)
        mbind_segment(process.space, seg, MPol.BIND, [node], flags=MbindFlag.MOVE)
        return seg

    def numa_alloc_interleaved(
        self, process: Process, name: str, size_bytes: int
    ) -> Segment:
        """Allocate memory uniformly interleaved across all nodes."""
        seg = process.space.map_segment(name, size_bytes, SegmentKind.SHARED)
        mbind_segment(
            process.space,
            seg,
            MPol.INTERLEAVE,
            list(self.machine.node_ids),
            flags=MbindFlag.MOVE,
        )
        return seg

    def numa_interleave_memory(
        self, process: Process, segment: Segment, nodes: Sequence[int]
    ) -> None:
        """Interleave an existing range over a node set."""
        mbind_segment(process.space, segment, MPol.INTERLEAVE, nodes, flags=MbindFlag.MOVE)

    # ------------------------------------------------------------------ #
    # The BWAP extension
    # ------------------------------------------------------------------ #

    def canonical_tuner(self) -> CanonicalTuner:
        """The tuner given at construction, else the machine's shared
        canonical tuner (profiled lazily)."""
        if self._canonical is not None:
            return self._canonical
        return canonical_tuner(self.machine)

    def numa_bw_interleave(
        self,
        process: Process,
        worker_nodes: Sequence[int],
        *,
        dwp: float = 0.0,
        mode: str = "user",
    ) -> PlacementOutcome:
        """The ``bw-interleaved`` policy: weighted placement from canonical
        weights, optionally shifted by a data-to-worker-proximity factor.

        This is the static entry point; the full BWAP pipeline (with the
        on-line DWP search) is driven by
        :func:`repro.core.bwap.bwap_init` inside a simulation.
        """
        canonical = self.canonical_tuner().weights(worker_nodes)
        weights = combine_weights(canonical, worker_nodes, dwp)
        return apply_weighted_placement(process.space, weights, mode=mode)

    def numa_bw_interleave_weights(
        self, worker_nodes: Sequence[int], dwp: float = 0.0
    ) -> np.ndarray:
        """The per-node weights the policy would enforce (for inspection,
        mirroring the numactl integration the authors added)."""
        canonical = self.canonical_tuner().weights(worker_nodes)
        return combine_weights(canonical, worker_nodes, dwp)
