"""Array-native epoch kernel: the simulator's vectorised hot loop.

:class:`EpochKernel` re-implements :meth:`Simulator._step_reference` over
dense ``(pair, field)`` NumPy arrays. An :class:`EpochWorkspace` is
assembled once per placement version — consumer worker nodes, demands,
write fractions and mix rows laid out over a flat *pair* axis (one slot per
``(app, worker)`` pair, in the reference loop's iteration order) — so each
epoch's achieved rates, loaded latencies, slowdowns, stall fractions,
per-app thread-weighted stall averages and counter updates are a handful of
vectorised operations instead of Python dict walks.

Exactness is the whole contract: every trajectory, counter sample and
``SimResult`` the kernel produces is bit-for-bit what the scalar reference
path produces. The rules that make this work:

* elementwise float64 ufuncs are IEEE-identical to the scalar expressions
  they replace, so per-pair arithmetic vectorises freely;
* *reductions* are not (NumPy sums pairwise) — every reduction here either
  runs sequentially in the reference order (source-axis latency totals,
  per-app throughput sums) or reproduces the exact scalar call
  (``np.average`` on identically-gathered arrays);
* adding an exact ``0.0`` is a bitwise no-op for the non-negative
  quantities involved, which lets dead/padded slots ride along;
* comparisons are replicated with the reference operand order —
  ``edge - t >= dt`` is *not* float-equivalent to ``t + dt <= edge``.

On top of the vectorised epoch, the kernel adds a **multi-epoch stride**:
when every tuner's :meth:`Tuner.next_wake_epoch` hint shows it dormant for
the next k epochs and the consumer set is provably stable over them (no
policy steps, no pending penalties, no completion, no phase boundary, no
fault-window edge, no deadline clamp), the simulator advances all k epochs
in one jump that replays the identical per-epoch accumulation (``now +=
dt`` and telemetry ``+=`` per epoch, in a loop — k·dt *accumulated*, not
multiplied), skipping only work that is bit-for-bit a no-op: re-solves that
would cache-hit, counter writes that would store the same values, tuner
calls that are guaranteed pure no-ops.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.app import Application
from repro.memsim.contention import (
    Allocation,
    latency_path_rows,
    machine_tables,
    solve_batch_arrays,
)
from repro.memsim.flows import Consumer
from repro.memsim.policies import PlacementPolicy
from repro.perf.latency import _MAX_UTILIZATION

#: Stands in for "unbounded" in stride-budget arithmetic.
_NO_LIMIT = 1 << 40


class EpochWorkspace:
    """Dense array view of the current consumer set.

    One slot per ``(app, worker)`` pair, flattened in the reference loop's
    order (apps in registration order, workers in each app's
    ``worker_nodes`` order). Rebuilt only when an app's memoised
    ``consumers()`` list changes identity — i.e. exactly when a placement,
    demand or workload parameter changed.
    """

    __slots__ = (
        "apps",
        "lists",
        "num_pairs",
        "keys",
        "node_idx",
        "threads",
        "demand",
        "write_frac",
        "mix",
        "live",
        "active",
        "mix_nonzero",
        "slices",
        "_digest",
    )

    def __init__(
        self,
        apps: List[Application],
        lists: List[List[Consumer]],
        num_nodes: int,
    ):
        self.apps = apps
        self.lists = lists
        consumers = [c for lst in lists for c in lst]
        num_pairs = len(consumers)
        self.num_pairs = num_pairs
        self.keys: List[Tuple[str, int]] = []
        self.node_idx = np.empty(num_pairs, dtype=np.intp)
        self.threads = np.empty(num_pairs, dtype=float)
        self.demand = np.empty(num_pairs, dtype=float)
        self.write_frac = np.empty(num_pairs, dtype=float)
        self.mix = np.zeros((num_pairs, num_nodes))
        self.live = np.empty(num_pairs, dtype=bool)
        for j, c in enumerate(consumers):
            if not 0 <= c.node < num_nodes:
                raise ValueError(f"consumer node {c.node} outside machine")
            m = np.asarray(c.mix, dtype=float)
            if len(m) > num_nodes:
                raise ValueError(
                    f"mix has {len(m)} entries for a {num_nodes}-node machine"
                )
            self.keys.append(c.key())
            self.node_idx[j] = c.node
            self.threads[j] = c.threads
            self.demand[j] = c.demand
            self.write_frac[j] = c.write_fraction
            self.mix[j, : len(m)] = m
            self.live[j] = not c.is_idle
        if len(set(self.keys)) != num_pairs:
            raise ValueError(f"duplicate consumer keys: {sorted(self.keys)}")
        #: Pairs the reference loop computes slowdowns for (demand > 0);
        #: a superset of ``live`` (a demand-bearing pair whose mix is all
        #: zero is solver-dead but still gets the degenerate slowdown).
        self.active = self.demand > 0.0
        # Mix entries are non-negative placement fractions, so "any
        # nonzero" is exactly the scalar model's ``np.sum(mix) == 0`` test.
        self.mix_nonzero = self.mix.any(axis=1)
        self.slices: List[slice] = []
        start = 0
        for lst in lists:
            self.slices.append(slice(start, start + len(lst)))
            start += len(lst)
        self._digest: Optional[Tuple] = None

    def matches(self, apps: List[Application], lists: List[List[Consumer]]) -> bool:
        """True when this workspace still describes ``apps``' consumers.

        Identity-based: ``Application.consumers`` memoises its list and
        returns the same object until a placement/demand/workload change,
        so ``is`` is exactly "nothing that feeds the solver changed".
        """
        return (
            len(apps) == len(self.apps)
            and all(a is b for a, b in zip(apps, self.apps))
            and all(l is p for l, p in zip(lists, self.lists))
        )

    def digest(self, mc_model) -> Tuple:
        """Bytes-based exact solve-input identity.

        Same contract as :func:`repro.memsim.contention.consumers_fingerprint`
        — equal digests imply bitwise-identical solver *and* derived-epoch
        results — but hashed as one flat buffer of the workspace arrays
        plus a pair-key tuple instead of a nested per-consumer tuple.
        (Mix rows are zero-padded to the machine width here; padding is
        dead weight to the solver, so it cannot split otherwise-equal
        inputs into different results.)
        """
        d = self._digest
        if d is None:
            payload = np.concatenate((self.demand, self.write_frac, self.mix.ravel()))
            d = (
                mc_model.efficiency_floor,
                mc_model.contention_decay,
                mc_model.write_cost_factor,
                tuple(self.keys),
                payload.tobytes(),
            )
            self._digest = d
        return d


class _AppEpoch:
    """One app's derived per-epoch quantities (constant between digests)."""

    __slots__ = (
        "app",
        "frac",
        "throughput",
        "stall_rate",
        "per_node_stall",
        "active_pairs",
    )

    def __init__(
        self,
        app: Application,
        frac: float,
        throughput: float,
        stall_rate: float,
        per_node_stall: Dict[int, float],
        active_pairs: List[Tuple[int, float]],
    ):
        self.app = app
        self.frac = frac
        self.throughput = throughput
        self.stall_rate = stall_rate
        self.per_node_stall = per_node_stall
        #: ``(worker, progress bytes/s)`` for every demand-bearing pair.
        self.active_pairs = active_pairs


class EpochKernel:
    """Array-native implementation of one simulator epoch (plus strides)."""

    def __init__(self, sim):
        self.sim = sim
        self._ws: Optional[EpochWorkspace] = None
        #: Single-slot solve memo for the cache-disabled configuration
        #: (mirrors the reference path's behaviour of re-solving each
        #: epoch: no memo at all when ``solver_cache`` is None).
        self._derived: Optional[Tuple[Tuple, List[_AppEpoch]]] = None

    # ------------------------------------------------------------------ #
    # Workspace / solve
    # ------------------------------------------------------------------ #

    def _refresh(self, apps: List[Application]) -> EpochWorkspace:
        lists = [a.consumers() for a in apps]
        ws = self._ws
        if ws is None or not ws.matches(apps, lists):
            ws = EpochWorkspace(apps, lists, self.sim.machine.num_nodes)
            self._ws = ws
        return ws

    def _solve(
        self,
        ws: EpochWorkspace,
        key: Optional[Tuple],
        cap_scale: Optional[np.ndarray],
    ) -> Tuple[Allocation, np.ndarray, np.ndarray]:
        cache = self.sim.solver_cache
        if cache is not None:
            entry = cache.lookup(key)
            if entry is not None:
                return entry
        entry = self._solve_fresh(ws, cap_scale)
        if cache is not None:
            cache.store(key, entry)
        return entry

    def _solve_fresh(
        self, ws: EpochWorkspace, cap_scale: Optional[np.ndarray]
    ) -> Tuple[Allocation, np.ndarray, np.ndarray]:
        sim = self.sim
        tables = machine_tables(sim.machine)
        if not ws.live.any():
            # Mirrors contention._empty_allocation for an all-idle set.
            alloc = Allocation(
                rates={k: 0.0 for k in ws.keys},
                utilization={},
                bottleneck={k: None for k in ws.keys},
                capacities={},
            )
            return (alloc, np.zeros(ws.num_pairs), np.zeros(tables.num_res))
        arrays = solve_batch_arrays(
            sim.machine,
            ws.node_idx[None, :],
            ws.mix[None, :, :],
            ws.demand[None, :],
            ws.write_frac[None, :],
            ws.live[None, :],
            sim.mc_model,
            capacity_scale=cap_scale,
        )
        rates_row = arrays.rates[0]
        util_row = arrays.util[0]
        # Rebuild the Allocation exactly as _allocation_from_rows does —
        # dead slots keep their 0.0 rate / None bottleneck, dict insertion
        # order is the full pair order.
        res_keys = tables.res_keys
        rates: Dict[Tuple[str, int], float] = {}
        bottleneck: Dict[Tuple[str, int], Optional[Tuple]] = {}
        for j, k in enumerate(ws.keys):
            if ws.live[j]:
                rates[k] = float(rates_row[j])
                row = int(arrays.bottleneck_row[0, j])
                bottleneck[k] = res_keys[row] if row >= 0 else None
            else:
                rates[k] = 0.0
                bottleneck[k] = None
        touched_rows = np.nonzero(arrays.touched[0])[0]
        alloc = Allocation(
            rates=rates,
            utilization={res_keys[i]: float(util_row[i]) for i in touched_rows},
            bottleneck=bottleneck,
            capacities={res_keys[i]: float(arrays.caps[0, i]) for i in touched_rows},
        )
        return (alloc, rates_row, util_row)

    # ------------------------------------------------------------------ #
    # Derived per-epoch quantities
    # ------------------------------------------------------------------ #

    def _derive(
        self,
        ws: EpochWorkspace,
        key: Optional[Tuple],
        apps: List[Application],
        rates_row: np.ndarray,
        util_row: np.ndarray,
    ) -> List[_AppEpoch]:
        dkey = None
        if key is not None:
            # Everything in an _AppEpoch is a pure function of the solve
            # digest plus these per-app workload scalars (the reference
            # path's derived_key). The traffic split is deliberately NOT
            # in the records: the reference reads it from the workload
            # *after* progress, so phase boundaries can change it within
            # an epoch — step() evaluates it at telemetry time.
            dkey = (
                key,
                tuple(
                    (
                        app.app_id,
                        app.workload.latency_weight,
                        app.workload.node_efficiency(len(app.worker_nodes)),
                    )
                    for app in apps
                ),
            )
            cached = self._derived
            if cached is not None and cached[0] == dkey:
                return cached[1]
        records = self._compute_derived(ws, apps, rates_row, util_row)
        if dkey is not None:
            self._derived = (dkey, records)
        return records

    def _compute_derived(
        self,
        ws: EpochWorkspace,
        apps: List[Application],
        rates_row: np.ndarray,
        util_row: np.ndarray,
    ) -> List[_AppEpoch]:
        sim = self.sim
        tables = machine_tables(sim.machine)
        num_nodes = tables.num_nodes

        # Loaded latency, replicating LatencyModel.consumer_latency_ns
        # term for term: unloaded latency + the path resources' queueing
        # delays (source MC, route links in route order, destination
        # ingress), then the mix-weighted total accumulated over sources
        # in ascending order. Padded gathers add an exact 0.0.
        u = np.minimum(util_row, _MAX_UTILIZATION)
        qd = sim.latency_model.queue_scale_ns * u / (1.0 - u)
        qd_pad = np.concatenate((qd, (0.0,)))
        rows = latency_path_rows(sim.machine)[ws.node_idx]  # (P, N, K)
        lat = tables.lat0[ws.node_idx]  # fancy index -> fresh (P, N) array
        for k in range(rows.shape[2]):
            lat = lat + qd_pad[rows[:, :, k]]
        total = np.zeros(ws.num_pairs)
        for s in range(num_nodes):
            frac = ws.mix[:, s]
            total = total + np.where(frac > 0.0, frac * lat[:, s], 0.0)
        local0 = tables.lat0[ws.node_idx, ws.node_idx]
        lat_final = np.where(ws.mix_nonzero, total, local0)

        # Slowdowns, stall fractions and progress rates (perf.stalls,
        # vectorised over the pair axis). Inactive pairs compute the
        # harmless degenerate values (bw = 1, lat_part = 1, s = 1) and are
        # masked out of the records below, exactly as the reference loop
        # skips them.
        lw = np.empty(ws.num_pairs)
        useful = np.empty(ws.num_pairs)
        for app, sl in zip(apps, ws.slices):
            wl = app.workload
            lw[sl] = wl.latency_weight
            useful[sl] = wl.node_efficiency(len(app.worker_nodes))
        ach = np.maximum(rates_row, 1e-12)
        bw = np.where(ach >= ws.demand, 1.0, ws.demand / ach)
        lat_part = lat_final / local0
        s_arr = (1.0 - lw) * bw + lw * lat_part
        stall = np.where(s_arr <= 1.0, 0.0, (s_arr - 1.0) / s_arr)
        prog = ws.demand / s_arr * useful * 1e9  # bytes/s

        records: List[_AppEpoch] = []
        for app, sl in zip(apps, ws.slices):
            act = ws.active[sl]
            if act.any():
                # Identical gathered arrays -> identical np.average call.
                vals = stall[sl][act]
                weights = ws.threads[sl][act]
                frac = float(np.average(vals, weights=weights))
            else:
                frac = 0.0
            # app_total_rate: plain sum over the app's pairs in order.
            throughput = sum(float(r) for r in rates_row[sl])
            freq = sim._worker_frequency_ghz(app)
            per_node_stall: Dict[int, float] = {}
            active_pairs: List[Tuple[int, float]] = []
            for j in range(sl.start, sl.stop):
                if ws.active[j]:
                    w = int(ws.node_idx[j])
                    per_node_stall[w] = float(stall[j])
                    active_pairs.append((w, float(prog[j])))
            records.append(
                _AppEpoch(
                    app=app,
                    frac=frac,
                    throughput=throughput,
                    stall_rate=frac * freq * 1e9,
                    per_node_stall=per_node_stall,
                    active_pairs=active_pairs,
                )
            )
        return records

    # ------------------------------------------------------------------ #
    # The epoch
    # ------------------------------------------------------------------ #

    def step(self, deadline: float) -> None:
        """Advance one epoch; then, if provably safe, stride over the
        following dormant epochs in one exact jump."""
        sim = self.sim
        apps = [a for a in sim._apps.values() if not a.finished]

        faults = sim.faults
        cap_scale = None
        scale_key = None
        if faults is not None:
            if faults.plan.phase_shocks:
                for app in apps:
                    app.demand_scale = faults.demand_scale(app.app_id, sim.now)
            if faults.plan.link_faults:
                cap_scale = faults.capacity_scale(sim.machine, sim.now)
                scale_key = faults.capacity_scale_key(sim.now)

        policy_moved = 0
        for app in apps:
            if app.policy is not None:
                stats = app.policy.step(app.space, app.ctx, app.epoch_index)
                if stats.pages_moved:
                    sim.charge_migration(app, stats.pages_moved)
                    policy_moved += stats.pages_moved
            app.epoch_index += 1

        ws = self._refresh(apps)
        key = None
        if sim.solver_cache is not None:
            key = ws.digest(sim.mc_model)
            if scale_key is not None:
                key = (key, scale_key)
        alloc, rates_row, util_row = self._solve(ws, key, cap_scale)
        sim._last_allocation = alloc

        records = self._derive(ws, key, apps, rates_row, util_row)

        # Time step: identical candidate set and comparison order as the
        # reference (active pairs are exactly the rate-dict entries).
        static = policy_moved == 0 and all(t.is_settled() for t in sim._tuners)
        dt = float("inf") if static else sim.epoch_s
        for rec in records:
            horizon_shift = rec.app.pending_penalty_s
            for w, rate in rec.active_pairs:
                rem = rec.app.remaining(w)
                if rate > 0 and rem > 0:
                    dt = min(dt, rem / rate + horizon_shift)
        if faults is not None:
            edge = faults.next_event_after(sim.now)
            if edge is not None:
                dt = min(dt, edge - sim.now)
        dt = min(dt, max(deadline - sim.now, 0.0))
        if not np.isfinite(dt) or dt <= 0:
            dt = min(sim.epoch_s, max(deadline - sim.now, 1e-6))

        for rec in records:
            app = rec.app
            pay = min(app.pending_penalty_s, dt)
            app.pending_penalty_s -= pay
            effective = dt - pay
            if effective > 0:
                for w, rate in rec.active_pairs:
                    if rate > 0:
                        app.advance(w, rate * effective)

        sim.now += dt

        sim.counters.update_many(
            (rec.app.app_id, rec.stall_rate, rec.throughput, rec.per_node_stall)
            for rec in records
        )
        coalesce = sim.coalesce_traffic
        for rec in records:
            tele = sim._telemetry[rec.app.app_id]
            tele.stall_time_product += rec.frac * dt
            tele.throughput_time_product += rec.throughput * dt
            tele.active_time += dt
            # The traffic split must be read from the workload *after*
            # progress (as the reference does): a phased application that
            # crossed a boundary this epoch reports the new phase's split.
            wl = rec.app.workload
            reads, writes = wl.read_write_split(rec.throughput)
            tele.record_traffic(
                dt, reads, writes, wl.private_fraction, coalesce=coalesce
            )
            rec.app.check_finished(sim.now)

        for tuner in sim._tuners:
            tuner.on_epoch(sim)
        sim.epoch += 1

        if not static and dt == sim.epoch_s:
            k = self._stride_budget(deadline, ws, records)
            if k > 0:
                self._execute_stride(k, records)

    # ------------------------------------------------------------------ #
    # Multi-epoch stride
    # ------------------------------------------------------------------ #

    def _stride_budget(
        self, deadline: float, ws: EpochWorkspace, records: List[_AppEpoch]
    ) -> int:
        """How many upcoming epochs are provably identical no-ops.

        Every bound is computed with the exact float arithmetic the
        per-epoch path would use (sequential ``t += dt`` accumulation, the
        reference's own comparison operand order), so a strided epoch is
        bit-for-bit the epoch the reference would have run. Returns 0
        whenever any condition cannot be proven.
        """
        sim = self.sim
        dt = sim.epoch_s

        # 0. The next epoch must not be the reference's static
        # fast-forward: with every tuner settled (and stride-eligible
        # policies never moving pages) the reference jumps dt=inf straight
        # to the next completion or the deadline — a single float step,
        # not k paced ones. Yield so the next anchor epoch takes that
        # exact path.
        if all(t.is_settled() for t in sim._tuners):
            return 0

        # 1. Every tuner dormant through the stride.
        k = _NO_LIMIT
        for tuner in sim._tuners:
            wake = tuner.next_wake_epoch(sim)
            if wake is None:
                continue
            k = min(k, wake - sim.epoch)
            if k <= 0:
                return 0

        # 2. No pending stall penalties, no policies that could act.
        for app in ws.apps:
            if app.pending_penalty_s != 0.0:
                return 0
            policy = app.policy
            if policy is not None and type(policy).step is not PlacementPolicy.step:
                return 0

        # 3. This epoch left the consumer set untouched: same unfinished
        # apps, and each one's memoised consumers list is the same object
        # the workspace was built from.
        current = [a for a in sim._apps.values() if not a.finished]
        if len(current) != len(ws.apps) or any(
            a is not b for a, b in zip(current, ws.apps)
        ):
            return 0
        for app, lst in zip(ws.apps, ws.lists):
            if app.consumers() is not lst:
                return 0

        # 4. No worker completes its share, no phase boundary is crossed.
        for rec in records:
            node_rates = dict(rec.active_pairs)
            k = min(k, rec.app.max_dormant_epochs(node_rates, dt, k))
            if k <= 0:
                return 0

        # 5. No fault-window edge and no deadline clamp engages.
        if sim.faults is not None:
            k = min(k, sim.faults.stationary_epochs(sim.now, dt, k))
            if k <= 0:
                return 0
        t = sim.now
        count = 0
        while count < k:
            if not (deadline - t >= dt):
                break
            t = t + dt
            count += 1
        return count

    def _execute_stride(self, k: int, records: List[_AppEpoch]) -> None:
        """Run k guaranteed-identical epochs as one jump.

        Accumulates per epoch — ``now += dt`` and the telemetry ``+=`` run
        k times, never as one ``k * dt`` product — so every float is the
        one per-epoch stepping would have produced. Skipped work (solver
        lookups, counter writes, tuner calls, policy no-op steps,
        ``check_finished``) is skipped precisely because the budget proved
        each would leave no observable trace.
        """
        sim = self.sim
        dt = sim.epoch_s
        plan = []
        for rec in records:
            plan.append(
                (
                    rec.app,
                    sim._telemetry[rec.app.app_id],
                    rec.frac * dt,
                    rec.throughput * dt,
                    # rate > 0 mirrors the reference's advance guard: a
                    # zero-rate pair must not even see an advance(w, 0.0),
                    # which would snap a sub-byte residue the scalar path
                    # leaves untouched.
                    [(w, rate * dt) for w, rate in rec.active_pairs if rate > 0],
                )
            )
        for _ in range(k):
            sim.now += dt
            for app, tele, d_stall, d_thr, pair_bytes in plan:
                for w, bytes_done in pair_bytes:
                    app.advance(w, bytes_done)
                tele.stall_time_product += d_stall
                tele.throughput_time_product += d_thr
                tele.active_time += dt
        coalesce = sim.coalesce_traffic
        for rec in records:
            tele = sim._telemetry[rec.app.app_id]
            if coalesce:
                # The anchor epoch just recorded these exact rates, so the
                # k strided epochs all extend the current run. Duration
                # accumulates one epoch at a time, matching k coalesced
                # record_traffic calls bit for bit.
                last = tele.traffic[-1]
                duration = last.duration_s
                for _ in range(k):
                    duration = duration + dt
                tele.traffic[-1] = replace(last, duration_s=duration)
            else:
                for _ in range(k):
                    tele.record_traffic(
                        dt, rec.reads, rec.writes, rec.private_fraction, coalesce=False
                    )
            rec.app.epoch_index += k
        sim.epoch += k
