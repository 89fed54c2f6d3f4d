"""Scalar epoch loop: the reference for the array-native epoch kernel.

Each epoch builds every application's ``Consumer`` list afresh (demands
from ``node_demand``, mixes from the placement, never through the memoised
``Application.block``), solves it with :func:`repro.memsim.solve` directly
(no solver cache), and walks per-worker dicts for rates, loaded latencies,
slowdowns, stall fractions, progress and counters — one epoch per step,
never a stride. The production
:class:`~repro.engine.kernel.EpochKernel` must reproduce this loop
bitwise: trajectories, counter banks, RNG states, telemetry and the final
``Allocation``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.app import Application
from repro.engine.sim import Simulator
from repro.memsim import Allocation, solve
from repro.memsim.flows import Consumer
from repro.perf.stalls import WorkerLoad, slowdown, stall_fraction
from tests.oracle.page_counts import traffic_mix_reference


def placement_consumers(app: Application) -> List[Consumer]:
    """One ``Consumer`` per worker, derived straight from the app's state:
    a traffic mix per demand-bearing worker, an all-zero mix otherwise."""
    out = []
    for w in app.worker_nodes:
        demand = app.node_demand(w)
        mix = traffic_mix_reference(app, w) if demand > 0 else np.zeros(app.machine.num_nodes)
        out.append(
            Consumer(
                app_id=app.app_id,
                node=w,
                threads=app.threads_on(w),
                mix=mix,
                demand=demand,
                write_fraction=app.workload.write_fraction,
            )
        )
    return out


class ReferenceSimulator(Simulator):
    """A :class:`Simulator` whose epochs run the scalar reference loop."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._kernel = _ScalarEpoch(self)
        self.solver_cache = None


class _ScalarEpoch:
    """Stands in for the simulator's epoch kernel."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.last_allocation: Optional[Allocation] = None

    def final_allocation(self) -> Optional[Allocation]:
        """The latest epoch's ``Allocation`` (None before one)."""
        return self.last_allocation

    def step(self, deadline: float) -> None:
        """Advance one epoch."""
        sim = self.sim
        apps = [a for a in sim._apps.values() if not a.finished]

        # Fault-plan state for this epoch: phase shocks scale demands,
        # link-degradation windows scale solver capacities.
        faults = sim.faults
        cap_scale = None
        if faults is not None:
            if faults.plan.phase_shocks:
                for app in apps:
                    app.demand_scale = faults.demand_scale(app.app_id, sim.now)
            if faults.plan.link_faults:
                cap_scale = faults.capacity_scale(sim.machine, sim.now)

        # Adaptive policies (e.g. autonuma) act at epoch granularity.
        policy_moved = 0
        for app in apps:
            if app.policy is not None:
                stats = app.policy.step(app.space, app.ctx, app.epoch_index)
                if stats.pages_moved:
                    sim.charge_migration(app, stats.pages_moved)
                    policy_moved += stats.pages_moved
            app.epoch_index += 1

        consumers = []
        consumer_by_key = {}
        for app in apps:
            for c in placement_consumers(app):
                consumers.append(c)
                consumer_by_key[c.key()] = c
        alloc = solve(sim.machine, consumers, sim.mc_model, capacity_scale=cap_scale)
        self.last_allocation = alloc

        # Per-worker slowdowns and progress rates.
        rates: Dict[Tuple[str, int], float] = {}
        stalls: Dict[Tuple[str, int], float] = {}
        for app in apps:
            for w in app.worker_nodes:
                demand = app.node_demand(w)
                if demand <= 0:
                    continue
                achieved = alloc.rate(app.app_id, w)
                lat = sim.latency_model.consumer_latency_ns(
                    sim.machine, consumer_by_key[(app.app_id, w)], alloc
                )
                base = sim.latency_model.local_baseline_ns(sim.machine, w)
                load = WorkerLoad(
                    demand_gbps=demand,
                    achieved_gbps=max(achieved, 1e-12),
                    avg_latency_ns=lat,
                    base_latency_ns=base,
                    latency_weight=app.workload.latency_weight,
                )
                s = slowdown(load)
                # Useful progress: achieved traffic, discounted by the
                # share wasted on cross-node coherence (node_efficiency).
                useful = app.workload.node_efficiency(len(app.worker_nodes))
                rates[(app.app_id, w)] = demand / s * useful * 1e9  # bytes/s
                stalls[(app.app_id, w)] = stall_fraction(load)

        # Choose the time step: hit the next completion exactly; when the
        # scenario is fully static (no tuners, no policy migrations), jump
        # straight to it.
        static = policy_moved == 0 and all(t.is_settled() for t in sim._tuners)
        dt = float("inf") if static else sim.epoch_s
        for app in apps:
            horizon_shift = app.pending_penalty_s
            for w in app.worker_nodes:
                rate = rates.get((app.app_id, w), 0.0)
                rem = app.remaining(w)
                if rate > 0 and rem > 0:
                    dt = min(dt, rem / rate + horizon_shift)
        if faults is not None:
            # Never jump past a fault-window edge: the scales computed at
            # the top of the epoch are only valid up to the next edge.
            edge = faults.next_event_after(sim.now)
            if edge is not None:
                dt = min(dt, edge - sim.now)
        dt = min(dt, max(deadline - sim.now, 0.0))
        if not np.isfinite(dt) or dt <= 0:
            dt = min(sim.epoch_s, max(deadline - sim.now, 1e-6))

        # Progress, minus any pending stall penalty (migration costs).
        for app in apps:
            pay = min(app.pending_penalty_s, dt)
            app.pending_penalty_s -= pay
            effective = dt - pay
            for w in app.worker_nodes:
                rate = rates.get((app.app_id, w), 0.0)
                if rate > 0 and effective > 0:
                    app.advance(w, rate * effective)

        sim.now += dt

        # Counters + telemetry.
        for app in apps:
            active = [
                (w, stalls[(app.app_id, w)])
                for w in app.worker_nodes
                if (app.app_id, w) in stalls
            ]
            if active:
                weights = np.array([app.threads_on(w) for w, _ in active], dtype=float)
                vals = np.array([s for _, s in active])
                frac = float(np.average(vals, weights=weights))
            else:
                frac = 0.0
            freq = sim._worker_frequency_ghz(app)
            throughput = alloc.app_total_rate(app.app_id)
            sim.counters.update(
                app.app_id,
                stall_rate=frac * freq * 1e9,
                throughput_gbps=throughput,
                per_node_stall={w: s for w, s in active},
            )
            tele = sim._telemetry[app.app_id]
            tele.stall_time_product += frac * dt
            tele.throughput_time_product += throughput * dt
            tele.active_time += dt
            reads, writes = app.workload.read_write_split(throughput)
            tele.record_traffic(dt, reads, writes, app.workload.private_fraction)
            app.check_finished(sim.now)

        for tuner in sim._tuners:
            tuner.on_epoch(sim)
        sim.epoch += 1
