"""Loaded memory-access latency model.

Execution time in the paper's model is bandwidth-dominated, but the DWP
tuner exists precisely because *some* workloads are latency-sensitive
(Section II, Observation 2), and the stall-rate signal it climbs reflects
both. We model the average loaded access latency of a consumer as:

    sum_i mix_i * (unloaded_latency(i -> w) + queueing_delay(path resources))

where the queueing delay of each resource grows convexly with its
utilization (M/M/1-style ``u / (1 - u)``, capped), using the utilizations
produced by the contention solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.memsim.contention import Allocation
from repro.memsim.flows import Consumer
from repro.topology.machine import Machine

#: Utilization above this value is clamped when computing queueing delay,
#: keeping latencies finite at saturation.
_MAX_UTILIZATION = 0.97


@dataclass(frozen=True)
class LatencyModel:
    """Parameters of the loaded-latency estimate.

    Attributes
    ----------
    queue_scale_ns:
        Queueing delay at a resource equals
        ``queue_scale_ns * u / (1 - u)`` with ``u`` its utilization.
    """

    queue_scale_ns: float = 25.0

    def __post_init__(self) -> None:
        if self.queue_scale_ns < 0:
            raise ValueError(f"queue_scale_ns must be non-negative, got {self.queue_scale_ns}")

    def queueing_delay_ns(self, utilization: float) -> float:
        """Convex queueing delay (ns) of a resource at given utilization."""
        if utilization < 0:
            raise ValueError(f"utilization must be non-negative, got {utilization}")
        u = min(utilization, _MAX_UTILIZATION)
        return self.queue_scale_ns * u / (1.0 - u)

    def consumer_latency_ns(
        self,
        machine: Machine,
        consumer: Consumer,
        allocation: Allocation,
    ) -> float:
        """Average loaded access latency (ns) seen by a consumer.

        Idle consumers see their local unloaded latency.
        """
        w = consumer.node
        if consumer.is_idle or float(np.sum(consumer.mix)) == 0.0:
            return machine.access_latency_ns(w, w)

        total = 0.0
        for src, frac in enumerate(consumer.mix):
            if frac <= 0:
                continue
            lat = machine.access_latency_ns(src, w)
            lat += self.queueing_delay_ns(allocation.resource_utilization(("mc", src)))
            if src != w:
                for link in machine.route(src, w).links:
                    lat += self.queueing_delay_ns(
                        allocation.resource_utilization(("link", link.src, link.dst))
                    )
                lat += self.queueing_delay_ns(
                    allocation.resource_utilization(("ingress", w))
                )
            total += frac * lat
        return total

    def local_baseline_ns(self, machine: Machine, node: int) -> float:
        """Unloaded local latency used to normalise latency slowdowns."""
        return machine.access_latency_ns(node, node)


#: Default latency model shared across the library.
DEFAULT_LATENCY_MODEL = LatencyModel()
