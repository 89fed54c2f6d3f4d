"""Array-native epoch kernel: the simulator's vectorised hot loop.

:class:`EpochKernel` runs the simulator's epoch loop over dense ``(pair,
field)`` NumPy arrays. An :class:`EpochWorkspace` is
assembled once per placement version — consumer worker nodes, demands,
write fractions and mix rows laid out over a flat *pair* axis (one slot per
``(app, worker)`` pair, in the scalar loop's iteration order) — so each
epoch's achieved rates, loaded latencies, slowdowns, stall fractions,
per-app thread-weighted stall averages and counter updates are a handful of
vectorised operations instead of Python dict walks.

Exactness is the whole contract: every trajectory, counter sample and
``SimResult`` the kernel produces is bit-for-bit what the scalar
per-consumer loop (kept as the reference in
``tests/oracle/epoch_reference.py``) produces. The rules that make this
work:

* elementwise float64 ufuncs are IEEE-identical to the scalar expressions
  they replace, so per-pair arithmetic vectorises freely;
* *reductions* are not (NumPy sums pairwise) — every reduction here either
  runs sequentially in the reference order (route-hop and source-axis
  latency totals, each one ``np.add.accumulate``; per-app throughput sums
  in Python) or reproduces the arithmetic of the scalar call on
  identically gathered arrays (the weighted stall average is the
  ``(values * weights).sum() / weights.sum()`` that ``np.average``
  computes);
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
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.engine.app import Application, AppBlock
from repro.memsim.contention import (
    Allocation,
    allocation_from_rows,
    latency_path_rows,
    machine_tables,
    solve_batch_arrays,
)
from repro.memsim.policies import PlacementPolicy
from repro.perf.latency import _MAX_UTILIZATION

#: Stands in for "unbounded" in stride-budget arithmetic.
_NO_LIMIT = 1 << 40


class EpochWorkspace:
    """Dense array view of the current consumer set.

    One slot per ``(app, worker)`` pair, flattened in the reference loop's
    order (apps in registration order, workers in each app's
    ``worker_nodes`` order): the concatenation of the apps'
    :class:`~repro.engine.app.AppBlock` arrays. Rebuilt only when an app's
    memoised block changes identity — i.e. exactly when a placement,
    demand or workload parameter changed.
    """

    __slots__ = (
        "apps",
        "blocks",
        "num_pairs",
        "keys",
        "node_idx",
        "threads",
        "threads_key",
        "demand",
        "write_frac",
        "mix",
        "live",
        "active",
        "mix_nonzero",
        "slices",
        "_digest",
    )

    def __init__(self, apps: List[Application], blocks: List[AppBlock]):
        self.apps = apps
        self.blocks = blocks
        self.keys = tuple(k for b in blocks for k in b.keys)
        self.num_pairs = len(self.keys)
        for name in ("node_idx", "threads", "demand", "write_frac", "mix", "live"):
            setattr(self, name, np.concatenate([getattr(b, name) for b in blocks]))
        self.threads_key = self.threads.tobytes()
        #: Pairs the reference loop computes slowdowns for (demand > 0);
        #: a superset of ``live`` (a demand-bearing pair whose mix is all
        #: zero is solver-dead but still gets the degenerate slowdown).
        self.active = self.demand > 0.0
        # Mix entries are non-negative placement fractions, so "any
        # nonzero" is exactly the scalar model's ``np.sum(mix) == 0`` test.
        self.mix_nonzero = self.mix.any(axis=1)
        self.slices: List[slice] = []
        start = 0
        for b in blocks:
            self.slices.append(slice(start, start + len(b.keys)))
            start += len(b.keys)
        self._digest: Optional[Tuple] = None

    def matches(self, apps: List[Application], blocks: List[AppBlock]) -> bool:
        """True when this workspace still describes ``apps``' consumers.

        Identity-based: ``Application.block`` memoises its block and
        returns the same object until a placement/demand/workload change,
        so ``is`` is exactly "nothing that feeds the solver changed".
        """
        return (
            len(apps) == len(self.apps)
            and all(a is b for a, b in zip(apps, self.apps))
            and all(l is p for l, p in zip(blocks, self.blocks))
        )

    def digest(self, mc_model) -> Tuple:
        """Bytes-based exact solve-input identity.

        Equal digests imply bitwise-identical solver results: every
        quantity a solve reads — each consumer's demand, write fraction
        and mix, the pair keys and the MC model parameters — is folded in,
        hashed as one flat buffer of the workspace arrays plus the
        pair-key tuple.
        """
        d = self._digest
        if d is None:
            payload = np.concatenate((self.demand, self.write_frac, self.mix.ravel()))
            d = (
                mc_model.efficiency_floor,
                mc_model.contention_decay,
                mc_model.write_cost_factor,
                self.keys,
                payload.tobytes(),
            )
            self._digest = d
        return d


class _AppEpoch(NamedTuple):
    """One app's derived per-epoch quantities (constant between digests).

    Holds no reference to the app: :meth:`EpochKernel.step` pairs the
    records with the current apps, which a cache hit matches by app id.
    """

    frac: float
    throughput: float
    stall_rate: float
    per_node_stall: Dict[int, float]
    #: ``(worker, progress bytes/s)`` for every demand-bearing pair.
    active_pairs: List[Tuple[int, float]]


class _Solve:
    """One workspace solve, as the solver cache keeps it: the dense result
    rows over the pair and resource axes, plus ``derived`` — the per-app
    records last derived from them, keyed by the per-app workload scalars
    and thread counts that :meth:`EpochKernel._compute_derived` reads
    beyond the solve key."""

    __slots__ = ("keys", "live", "rates", "util", "bottleneck", "touched", "caps", "derived")

    def __init__(self, ws: EpochWorkspace, rates, util, bottleneck, touched, caps):
        self.keys = ws.keys
        self.live = ws.live
        self.rates = rates
        self.util = util
        self.bottleneck = bottleneck
        self.touched = touched
        self.caps = caps
        self.derived: Optional[Tuple[Tuple, List[_AppEpoch]]] = None

    def allocation(self, res_keys) -> Allocation:
        """The :class:`Allocation` of this solve (what ``solve`` returns)."""
        live = self.live
        return allocation_from_rows(
            self.keys,
            [k for k, on in zip(self.keys, live) if on],
            res_keys,
            self.rates[live],
            self.bottleneck[live],
            self.touched,
            self.util,
            self.caps,
        )


class EpochKernel:
    """Array-native implementation of one simulator epoch (plus strides)."""

    def __init__(self, sim):
        self.sim = sim
        self._ws: Optional[EpochWorkspace] = None
        #: The latest epoch's solve, for :meth:`final_allocation`.
        self._last: Optional[_Solve] = None

    def final_allocation(self) -> Optional[Allocation]:
        """The :class:`Allocation` of the latest epoch (None before one)."""
        last = self._last
        if last is None:
            return None
        return last.allocation(machine_tables(self.sim.machine).res_keys)

    # ------------------------------------------------------------------ #
    # Workspace / solve
    # ------------------------------------------------------------------ #

    def _refresh(self, apps: List[Application]) -> EpochWorkspace:
        blocks = [a.block() for a in apps]
        ws = self._ws
        if ws is None or not ws.matches(apps, blocks):
            ws = EpochWorkspace(apps, blocks)
            self._ws = ws
        return ws

    def _solve(
        self, ws: EpochWorkspace, key: Tuple, cap_scale: Optional[np.ndarray]
    ) -> _Solve:
        cache = self.sim.solver_cache
        entry = cache.lookup(key)
        if entry is None:
            entry = self._solve_fresh(ws, cap_scale)
            cache.store(key, entry)
        return entry

    def _solve_fresh(self, ws: EpochWorkspace, cap_scale: Optional[np.ndarray]) -> _Solve:
        sim = self.sim
        if not ws.live.any():
            # An all-idle set: zero rates, nothing live (so no bottleneck
            # is read) and no resource touched.
            pairs, res = np.zeros(ws.num_pairs), np.zeros(machine_tables(sim.machine).num_res)
            return _Solve(ws, pairs, res, pairs, res, res)
        # Each block's coefficient columns are built once per placement.
        coef = np.concatenate(
            [b.coefficients(sim.machine, sim.mc_model) for b in ws.blocks], axis=1
        )
        arrays = solve_batch_arrays(
            sim.machine,
            ws.node_idx[None, :],
            ws.mix[None, :, :],
            ws.demand[None, :],
            ws.write_frac[None, :],
            ws.live[None, :],
            sim.mc_model,
            coefficients=coef[None],
            capacity_scale=cap_scale,
        )
        return _Solve(
            ws, arrays.rates[0], arrays.util[0], arrays.bottleneck_row[0],
            arrays.touched[0], arrays.caps[0],
        )

    # ------------------------------------------------------------------ #
    # Derived per-epoch quantities
    # ------------------------------------------------------------------ #

    def _derive(
        self, ws: EpochWorkspace, entry: _Solve, apps: List[Application]
    ) -> List[_AppEpoch]:
        # Everything in an _AppEpoch is a pure function of the solve key
        # plus these per-app workload scalars and the pair thread counts.
        # The traffic split is deliberately NOT in the records: the
        # reference reads it from the workload *after* progress, so phase
        # boundaries can change it within an epoch — step() evaluates it at
        # telemetry time.
        dkey = (
            tuple(
                (app.workload.latency_weight, app.workload.node_efficiency(len(app.worker_nodes)))
                for app in apps
            ),
            ws.threads_key,
        )
        derived = entry.derived
        if derived is None or derived[0] != dkey:
            records = self._compute_derived(ws, apps, entry.rates, entry.util)
            derived = entry.derived = (dkey, records)
        return derived[1]

    def _compute_derived(
        self,
        ws: EpochWorkspace,
        apps: List[Application],
        rates_row: np.ndarray,
        util_row: np.ndarray,
    ) -> List[_AppEpoch]:
        sim = self.sim
        tables = machine_tables(sim.machine)

        # Loaded latency, replicating LatencyModel.consumer_latency_ns
        # term for term: unloaded latency + the path resources' queueing
        # delays (source MC, route links in route order, destination
        # ingress), then the mix-weighted total over sources in ascending
        # order. Both sums are one sequential np.add.accumulate; padded
        # gathers add an exact 0.0.
        u = np.minimum(util_row, _MAX_UTILIZATION)
        qd = sim.latency_model.queue_scale_ns * u / (1.0 - u)
        qd_pad = np.concatenate((qd, (0.0,)))
        rows = latency_path_rows(sim.machine)[ws.node_idx]  # (P, N, K)
        hops = np.concatenate((tables.lat0[ws.node_idx][:, :, None], qd_pad[rows]), axis=2)
        lat = np.add.accumulate(hops, axis=2)[:, :, -1]
        weighted = np.where(ws.mix > 0.0, ws.mix * lat, 0.0)
        total = np.add.accumulate(weighted, axis=1)[:, -1]
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

        nodes = ws.node_idx.tolist()
        active = ws.active.tolist()
        rates = rates_row.tolist()
        stalls = stall.tolist()
        progress = prog.tolist()
        records: List[_AppEpoch] = []
        for app, sl in zip(apps, ws.slices):
            if any(active[sl]):
                # np.average's own arithmetic on identically gathered
                # arrays: the weighted sum over the weight sum.
                act = ws.active[sl]
                weights = ws.threads[sl][act]
                frac = float(np.multiply(stall[sl][act], weights).sum() / weights.sum())
            else:
                frac = 0.0
            # app_total_rate: plain sum over the app's pairs in order.
            throughput = sum(rates[sl])
            freq = sim._worker_frequency_ghz(app)
            per_node_stall: Dict[int, float] = {}
            active_pairs: List[Tuple[int, float]] = []
            for j in range(sl.start, sl.stop):
                if active[j]:
                    per_node_stall[nodes[j]] = stalls[j]
                    active_pairs.append((nodes[j], progress[j]))
            records.append(
                _AppEpoch(
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
        key = ws.digest(sim.mc_model)
        if scale_key is not None:
            key = (key, scale_key)
        entry = self._last = self._solve(ws, key, cap_scale)
        records = self._derive(ws, entry, apps)

        # Time step: identical candidate set and comparison order as the
        # reference (active pairs are exactly the rate-dict entries).
        static = policy_moved == 0 and all(t.is_settled() for t in sim._tuners)
        dt = float("inf") if static else sim.epoch_s
        for app, rec in zip(apps, records):
            horizon_shift = app.pending_penalty_s
            for w, rate in rec.active_pairs:
                rem = app.remaining(w)
                if rate > 0 and rem > 0:
                    dt = min(dt, rem / rate + horizon_shift)
        if faults is not None:
            edge = faults.next_event_after(sim.now)
            if edge is not None:
                dt = min(dt, edge - sim.now)
        dt = min(dt, max(deadline - sim.now, 0.0))
        if not np.isfinite(dt) or dt <= 0:
            dt = min(sim.epoch_s, max(deadline - sim.now, 1e-6))

        for app, rec in zip(apps, records):
            pay = min(app.pending_penalty_s, dt)
            app.pending_penalty_s -= pay
            effective = dt - pay
            if effective > 0:
                for w, rate in rec.active_pairs:
                    if rate > 0:
                        app.advance(w, rate * effective)

        sim.now += dt

        sim.counters.update_many(
            (app.app_id, rec.stall_rate, rec.throughput, rec.per_node_stall)
            for app, rec in zip(apps, records)
        )
        for app, rec in zip(apps, records):
            tele = sim._telemetry[app.app_id]
            tele.stall_time_product += rec.frac * dt
            tele.throughput_time_product += rec.throughput * dt
            tele.active_time += dt
            # The traffic split must be read from the workload *after*
            # progress (as the reference does): a phased application that
            # crossed a boundary this epoch reports the new phase's split.
            wl = app.workload
            reads, writes = wl.read_write_split(rec.throughput)
            tele.record_traffic(dt, reads, writes, wl.private_fraction)
            app.check_finished(sim.now)

        for tuner in sim._tuners:
            tuner.on_epoch(sim)
        sim.epoch += 1

        if not static and dt == sim.epoch_s:
            k = self._stride_budget(deadline, ws, records)
            if k > 0:
                self._execute_stride(k, apps, records)

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
        # apps, and each one's memoised block is the same object the
        # workspace was built from.
        current = [a for a in sim._apps.values() if not a.finished]
        if not ws.matches(current, [a.block() for a in current]):
            return 0

        # 4. No worker completes its share, no phase boundary is crossed.
        for app, rec in zip(ws.apps, records):
            node_rates = dict(rec.active_pairs)
            k = min(k, app.max_dormant_epochs(node_rates, dt, k))
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

    def _execute_stride(
        self, k: int, apps: List[Application], records: List[_AppEpoch]
    ) -> None:
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
        for app, rec in zip(apps, records):
            plan.append(
                (
                    app,
                    sim._telemetry[app.app_id],
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
        for app in apps:
            tele = sim._telemetry[app.app_id]
            # The anchor epoch just recorded these exact rates, so the k
            # strided epochs all extend the current run. Duration
            # accumulates one epoch at a time, matching k record_traffic
            # calls bit for bit.
            last = tele.traffic[-1]
            duration = last.duration_s
            for _ in range(k):
                duration = duration + dt
            tele.traffic[-1] = replace(last, duration_s=duration)
            app.epoch_index += k
        sim.epoch += k
