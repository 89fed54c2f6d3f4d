"""Synthetic workload generation.

Random-but-plausible workloads for stress-testing BWAP beyond the paper's
five benchmarks: property-based tests and the sensitivity studies sweep
this space to check that the tuners never *lose* to their starting points
regardless of workload shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.units import MiB
from repro.workloads.base import WorkloadSpec


@dataclass(frozen=True)
class WorkloadRanges:
    """Sampling ranges for :func:`random_workload`."""

    read_bw_node: tuple = (2.0, 22.0)
    write_ratio: tuple = (0.0, 0.6)
    private_fraction: tuple = (0.0, 0.97)
    latency_weight: tuple = (0.0, 0.5)
    serial_fraction: tuple = (0.0, 0.1)
    multi_node_penalty: tuple = (0.0, 0.5)

    def __post_init__(self) -> None:
        for field_name in (
            "read_bw_node",
            "write_ratio",
            "private_fraction",
            "latency_weight",
            "serial_fraction",
            "multi_node_penalty",
        ):
            lo, hi = getattr(self, field_name)
            if lo > hi:
                raise ValueError(f"{field_name} range is inverted: ({lo}, {hi})")


def random_workload(
    rng: np.random.Generator,
    name: Optional[str] = None,
    ranges: WorkloadRanges = WorkloadRanges(),
) -> WorkloadSpec:
    """Sample one plausible memory-intensive workload."""

    def u(pair) -> float:
        lo, hi = pair
        return float(rng.uniform(lo, hi))

    read = u(ranges.read_bw_node)
    write = read * u(ranges.write_ratio)
    return WorkloadSpec(
        name=name or f"synthetic-{rng.integers(1, 10**6)}",
        read_bw_node=read,
        write_bw_node=write,
        private_fraction=u(ranges.private_fraction),
        latency_weight=u(ranges.latency_weight),
        serial_fraction=u(ranges.serial_fraction),
        multi_node_penalty=u(ranges.multi_node_penalty),
        shared_bytes=int(rng.integers(256, 2048)) * MiB,
        private_bytes_per_thread=int(rng.integers(0, 128)) * MiB,
        work_bytes=float(rng.uniform(100e9, 800e9)),
    )


def workload_sweep(
    n: int, seed: int = 7, ranges: WorkloadRanges = WorkloadRanges()
) -> List[WorkloadSpec]:
    """A reproducible list of ``n`` random workloads."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    rng = np.random.default_rng(seed)
    return [random_workload(rng, name=f"synthetic-{i}", ranges=ranges) for i in range(n)]
