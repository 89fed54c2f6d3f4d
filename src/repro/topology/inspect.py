"""Machine characterisation reports.

The paper points at MCTOP [7] and machine-aware tooling [28] as ways to
"characterise (either through an analytical model or through an empirical
procedure) the NUMA topology" that "can be integrated into BWAP". This
module provides that characterisation over our machine model: a structural
summary, the asymmetry statistics the paper quotes (5.8x on machine A,
2.3x on machine B), and worker-set rankings for deployment decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.topology.machine import Machine
from repro.units import GiB


@dataclass(frozen=True)
class MachineSummary:
    """Headline characteristics of a NUMA machine."""

    name: str
    num_nodes: int
    num_cores: int
    total_memory_gib: float
    local_bw_range: Tuple[float, float]
    remote_bw_range: Tuple[float, float]
    asymmetry_amplitude: float
    direction_asymmetric: bool
    max_hops: int
    memory_only_nodes: Tuple[int, ...]


def summarize(machine: Machine) -> MachineSummary:
    """Compute the headline characteristics of a machine."""
    m = machine.nominal_bandwidth_matrix()
    n = machine.num_nodes
    local = np.diag(m)
    if n > 1:
        off = m[~np.eye(n, dtype=bool)]
        remote_range = (float(off.min()), float(off.max()))
        direction_asym = not np.allclose(m, m.T)
        max_hops = max(
            machine.route(s, d).hops for s in range(n) for d in range(n) if s != d
        )
    else:
        remote_range = (float(local[0]), float(local[0]))
        direction_asym = False
        max_hops = 0
    return MachineSummary(
        name=machine.name,
        num_nodes=n,
        num_cores=machine.num_cores,
        total_memory_gib=machine.total_memory_bytes() / GiB,
        local_bw_range=(float(local.min()), float(local.max())),
        remote_bw_range=remote_range,
        asymmetry_amplitude=machine.asymmetry_amplitude(),
        direction_asymmetric=direction_asym,
        max_hops=max_hops,
        memory_only_nodes=tuple(
            i for i in machine.node_ids if machine.node(i).num_cores == 0
        ),
    )


def rank_worker_sets(
    machine: Machine, size: int, *, top: int = 5
) -> List[Tuple[Tuple[int, ...], float]]:
    """Worker sets of a given size ranked by the AsymSched score
    (aggregate inter-worker bandwidth), best first."""
    from repro.engine.threads import worker_set_score

    candidates = [
        ws
        for ws in machine.worker_sets_of_size(size)
        if all(machine.node(w).num_cores > 0 for w in ws)
    ]
    scored = [(ws, worker_set_score(machine, ws)) for ws in candidates]
    scored.sort(key=lambda p: (-p[1], p[0]))
    return scored[:top]


def describe(machine: Machine) -> str:
    """Human-readable characterisation, in the spirit of `numactl -H`."""
    s = summarize(machine)
    lines = [
        f"machine {s.name!r}: {s.num_nodes} NUMA nodes, {s.num_cores} cores, "
        f"{s.total_memory_gib:.0f} GiB",
        f"  local bandwidth : {s.local_bw_range[0]:.1f} - "
        f"{s.local_bw_range[1]:.1f} GB/s",
        f"  remote bandwidth: {s.remote_bw_range[0]:.1f} - "
        f"{s.remote_bw_range[1]:.1f} GB/s",
        f"  asymmetry amplitude: {s.asymmetry_amplitude:.1f}x"
        + (" (direction-dependent links)" if s.direction_asymmetric else ""),
        f"  longest route: {s.max_hops} hop(s)",
    ]
    if s.memory_only_nodes:
        lines.append(
            f"  memory-only nodes (NVM/CXL): {list(s.memory_only_nodes)}"
        )
    for size in (1, 2):
        compute_nodes = sum(
            1 for i in machine.node_ids if machine.node(i).num_cores > 0
        )
        if size > compute_nodes:
            break
        best = rank_worker_sets(machine, size, top=3)
        ranked = ", ".join(f"{list(ws)} ({score:.1f})" for ws, score in best)
        lines.append(f"  best {size}-node worker sets: {ranked}")
    return "\n".join(lines)
