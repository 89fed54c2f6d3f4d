"""NUMA machine topology model.

This package models the hardware substrate that the paper's evaluation runs
on: NUMA nodes (cores + memory controller), an asymmetric interconnect of
directed links, and multi-hop routing between nodes.

The two machines from the paper's evaluation (Section IV) are available as
:func:`machine_a` (8-node AMD Opteron 6272, strongly asymmetric, Fig. 1a)
and :func:`machine_b` (4-node Intel Xeon E5-2660 v4 in Cluster-on-Die mode,
mildly asymmetric). Generic builders (:func:`dual_socket`, :func:`mesh`,
:func:`ring`, :func:`fully_connected`, :func:`from_bandwidth_matrix`) let
users model their own machines. Named machine classes share one built
instance each (:func:`class_machine`; :func:`get_machine` for "A"/"B").
"""

from repro.topology.node import Core, MemoryController, NUMANode
from repro.topology.link import Link
from repro.topology.routing import Route, RoutingTable
from repro.topology.machine import Machine
from repro.topology.inspect import MachineSummary, describe, rank_worker_sets, summarize
from repro.topology.builders import (
    MACHINE_A_BANDWIDTH_MATRIX,
    dual_socket,
    from_bandwidth_matrix,
    fully_connected,
    hybrid_dram_nvm,
    machine_a,
    machine_a_matrix,
    machine_a_topological,
    machine_b,
    mesh,
    random_machine,
    ring,
)
from repro.topology.registry import (
    class_machine,
    get_machine,
    machine_classes,
    register_machine_class,
)

__all__ = [
    "Core",
    "MemoryController",
    "NUMANode",
    "Link",
    "Route",
    "RoutingTable",
    "Machine",
    "MACHINE_A_BANDWIDTH_MATRIX",
    "dual_socket",
    "from_bandwidth_matrix",
    "fully_connected",
    "hybrid_dram_nvm",
    "machine_a",
    "machine_a_matrix",
    "machine_a_topological",
    "machine_b",
    "mesh",
    "random_machine",
    "ring",
    "class_machine",
    "get_machine",
    "machine_classes",
    "register_machine_class",
    "MachineSummary",
    "describe",
    "rank_worker_sets",
    "summarize",
]
