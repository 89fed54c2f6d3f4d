"""The :class:`Machine`: a complete cache-coherent NUMA system.

Matches the paper's system model (Section III-A1): a set of nodes managed by
one OS instance, each with cores and a logical memory controller, connected
by an asymmetric interconnect with full (possibly multi-hop) connectivity.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.topology.link import Link
from repro.topology.node import Core, NUMANode
from repro.topology.routing import Route, RoutingTable


class Machine:
    """A NUMA machine: nodes, directed links, and static routing.

    Parameters
    ----------
    nodes:
        The NUMA nodes. Node ids must be ``0 .. len(nodes)-1``.
    links:
        Directed interconnect links. Every ordered node pair must be
        reachable (checked at construction).
    hop_efficiency:
        Fraction of the bottleneck link bandwidth that a single consumer can
        sustain per extra hop. Real multi-hop NUMA transfers lose protocol
        efficiency at each forwarding node, which is why Fig. 1a shows
        ~1.8 GB/s on two-hop paths whose individual links carry ~3-4 GB/s.
        ``nominal_bandwidth`` applies ``hop_efficiency ** (hops - 1)``.
    remote_ingress_factor:
        A consumer node cannot absorb remote data faster than its on-chip
        fabric allows; all remote flows *into* a node share an ingress port
        of capacity ``remote_ingress_factor * local_bandwidth``. This is the
        resource through which interconnect congestion manifests on
        machines built from a profiled bandwidth matrix (where every node
        pair has a dedicated virtual link). Pass ``None`` to disable.
    name:
        Human-readable machine name used in reports.
    """

    def __init__(
        self,
        nodes: Sequence[NUMANode],
        links: Sequence[Link],
        *,
        hop_efficiency: float = 1.0,
        remote_ingress_factor: float = 1.0,
        name: str = "machine",
    ):
        if not nodes:
            raise ValueError("machine needs at least one node")
        ids = sorted(n.node_id for n in nodes)
        if ids != list(range(len(nodes))):
            raise ValueError(f"node ids must be 0..{len(nodes) - 1}, got {ids}")
        if not 0.0 < hop_efficiency <= 1.0:
            raise ValueError(f"hop_efficiency must be in (0, 1], got {hop_efficiency}")
        if remote_ingress_factor is not None and remote_ingress_factor <= 0:
            raise ValueError(
                f"remote_ingress_factor must be positive or None, got {remote_ingress_factor}"
            )

        self.name = name
        self.hop_efficiency = hop_efficiency
        self.remote_ingress_factor = remote_ingress_factor
        self._nodes: Dict[int, NUMANode] = {n.node_id: n for n in nodes}
        self._links: Dict[Tuple[int, int], Link] = {}
        for link in links:
            if link.endpoints in self._links:
                raise ValueError(f"duplicate link {link.endpoints}")
            self._links[link.endpoints] = link
        self._routing = RoutingTable(ids, links)
        if len(nodes) > 1 and not self._routing.is_fully_connected():
            missing = [
                (s, d)
                for s in ids
                for d in ids
                if (s, d) not in self._routing.all_routes()
            ]
            raise ValueError(f"interconnect is not fully connected; missing routes: {missing[:8]}")

        self._core_to_node: Dict[int, int] = {}
        for node in nodes:
            for core in node.cores:
                if core.core_id in self._core_to_node:
                    raise ValueError(f"duplicate core id {core.core_id}")
                self._core_to_node[core.core_id] = node.node_id

    # ------------------------------------------------------------------ #
    # Structure accessors
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        """Number of NUMA nodes."""
        return len(self._nodes)

    @property
    def node_ids(self) -> Tuple[int, ...]:
        """All node ids in ascending order."""
        return tuple(sorted(self._nodes))

    @property
    def num_cores(self) -> int:
        """Total hardware threads in the machine."""
        return len(self._core_to_node)

    @property
    def links(self) -> Tuple[Link, ...]:
        """All directed links."""
        return tuple(self._links.values())

    def node(self, node_id: int) -> NUMANode:
        """Look up a node by id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise KeyError(f"machine {self.name!r} has no node {node_id}") from None

    def cores_of(self, node_id: int) -> Tuple[Core, ...]:
        """Cores belonging to ``node_id``."""
        return tuple(self.node(node_id).cores)

    def node_of_core(self, core_id: int) -> int:
        """Node that owns a given core."""
        try:
            return self._core_to_node[core_id]
        except KeyError:
            raise KeyError(f"machine {self.name!r} has no core {core_id}") from None

    def cores_per_node(self) -> int:
        """Core count of node 0 (paper assumes homogeneous nodes)."""
        return self.node(0).num_cores

    def link(self, src: int, dst: int) -> Link:
        """The directed link ``src -> dst`` (KeyError when indirect)."""
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise KeyError(f"no direct link {src}->{dst} in machine {self.name!r}") from None

    def route(self, src: int, dst: int) -> Route:
        """The fixed route carrying data from memory node ``src`` to ``dst``."""
        return self._routing.route(src, dst)

    # ------------------------------------------------------------------ #
    # Bandwidth / latency characterisation
    # ------------------------------------------------------------------ #

    def nominal_bandwidth(self, src: int, dst: int) -> float:
        """Peak bandwidth (GB/s) a consumer at ``dst`` sees reading from ``src``.

        Local accesses are limited by the memory controller; remote accesses
        by the weakest link on the route, de-rated per extra hop (see
        ``hop_efficiency``), and never exceeding the source controller.
        """
        mc_bw = self.node(src).local_bandwidth
        if src == dst:
            return mc_bw
        r = self.route(src, dst)
        derate = self.hop_efficiency ** max(0, r.hops - 1)
        return min(mc_bw, r.bottleneck * derate)

    def nominal_bandwidth_matrix(self) -> np.ndarray:
        """The N x N matrix ``M[src, dst] = nominal_bandwidth(src, dst)``.

        This is the idealised analogue of the profiled matrix in Fig. 1a
        (rows = source/memory node, columns = destination/consumer node).
        """
        n = self.num_nodes
        out = np.zeros((n, n))
        for s in range(n):
            for d in range(n):
                out[s, d] = self.nominal_bandwidth(s, d)
        return out

    def access_latency_ns(self, src: int, dst: int) -> float:
        """Unloaded latency (ns) for a consumer at ``dst`` reading from ``src``."""
        return self.node(src).controller.base_latency_ns + self.route(src, dst).latency_ns

    def ingress_capacity(self, node_id: int) -> float:
        """Aggregate remote-ingress bandwidth (GB/s) of a consumer node.

        ``inf`` when ``remote_ingress_factor`` is None (disabled).
        """
        if self.remote_ingress_factor is None:
            return float("inf")
        return self.remote_ingress_factor * self.node(node_id).local_bandwidth

    def asymmetry_amplitude(self) -> float:
        """Ratio between the highest and lowest entries of the BW matrix.

        The paper reports 5.8x for machine A and 2.3x for machine B; this is
        the quantity that predicts how much BWAP's canonical tuner helps.
        """
        m = self.nominal_bandwidth_matrix()
        return float(m.max() / m.min())

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #

    def worker_sets_of_size(self, size: int) -> List[Tuple[int, ...]]:
        """All worker-node sets of a given size (ascending id order)."""
        from itertools import combinations

        if not 1 <= size <= self.num_nodes:
            raise ValueError(f"worker set size must be in 1..{self.num_nodes}, got {size}")
        return [tuple(c) for c in combinations(self.node_ids, size)]

    def total_memory_bytes(self) -> int:
        """Aggregate DRAM across all nodes."""
        return sum(self.node(n).memory_bytes for n in self.node_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine({self.name!r}, nodes={self.num_nodes}, cores={self.num_cores}, "
            f"links={len(self._links)})"
        )
