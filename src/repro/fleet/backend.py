"""Machine backends: how one fleet machine executes its placed apps.

The scheduler talks to every machine through the small
:class:`MachineBackend` interface — admit an app onto a worker set,
report the resident consumer set for scoring, advance to a deadline —
so execution fidelity is pluggable per run:

:class:`FlowBackend`
    Fluid-rate model. Apps progress at the rates the contention solver
    allocates; rates change only when the resident set changes, so the
    backend advances in closed form between completion events and
    re-solves (through a :class:`~repro.memsim.SolverCache`) only at
    those events. Cheap enough for million-arrival traces.

:class:`SimBackend`
    A full :class:`~repro.engine.Simulator` per machine — epoch kernel,
    counters, migration charges, and (under ``policy="bwap"``) the
    on-line DWP tuner — stepped incrementally under the fleet clock.

Both backends score candidate placements with the *same* analytic
consumer construction (:meth:`MachineBackend.candidate_consumers`), so a
scheduling decision depends only on the solver — which is what makes the
batched and scalar scoring paths bitwise-comparable.
"""

from __future__ import annotations

import abc
import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.canonical import CanonicalTuner
from repro.core.dwp import combine_weights
from repro.engine.sim import Simulator
from repro.engine.threads import pin_threads, threads_per_node
from repro.experiments.common import (
    RunOutcome,
    deploy_app,
    derive_seed,
    get_canonical,
    outcome_for_app,
)
from repro.memsim.contention import (
    DEFAULT_MC_MODEL,
    Consumer,
    ConsumerRows,
    SolverCache,
    consumer_rows,
    solve,
)
from repro.topology import Machine
from repro.workloads import WorkloadSpec

#: Per-instance canonical tuner cache. The experiments-level
#: ``get_canonical`` memoises by *machine name*, which is unsafe here:
#: custom fleet classes built from the topology builders can share a
#: default name (e.g. every ``fully_connected`` is "fully-connected")
#: while differing in structure. Fleet machines are per-class singletons,
#: so identity keying is exact — and the paper machines still reuse the
#: experiments' shared profile.
_CANONICAL_BY_ID: Dict[int, "CanonicalTuner"] = {}


def canonical_for(machine: Machine) -> "CanonicalTuner":
    """The canonical tuner of one fleet machine (cached per instance)."""
    if machine.name in ("machine-A", "machine-B"):
        return get_canonical(machine)
    key = id(machine)
    if key not in _CANONICAL_BY_ID:
        _CANONICAL_BY_ID[key] = CanonicalTuner(machine)
    return _CANONICAL_BY_ID[key]


def machine_seed(base_seed: int, mid: int) -> int:
    """Per-machine seed, stable across processes and fleet layouts."""
    return derive_seed(base_seed, "fleet-machine", mid)


def _canon_solve(
    machine: Machine,
    rows: ConsumerRows,
    tpl: List[int],
    owners: List[str],
    capacity_scale: Optional[np.ndarray],
) -> Tuple[float, ...]:
    """Rates of a fluid resident set — template rows ``tpl`` owned by apps
    ``owners``, in resident order — through a rename-canonical cache
    shared by every backend on ``machine`` (same-class machines share it).

    The solver's rates are positional — app ids are labels, never numbers
    — so keying each row's value key behind its app's first-occurrence
    index hits across apps, machines and time: almost every re-solve
    replays a configuration some machine was already in. A miss solves the
    rows as ``Consumer`` objects of their real apps.
    """
    cache = getattr(machine, "_fleet_canon_solver", None)
    if cache is None:
        cache = SolverCache(maxsize=4096)
        machine._fleet_canon_solver = cache  # type: ignore[attr-defined]
    order: Dict[str, int] = {}
    for app_id in owners:
        if app_id not in order:
            order[app_id] = len(order)
    keys = rows.key
    key = (
        None if capacity_scale is None else capacity_scale.tobytes(),
        tuple([(order[a],) + keys[t] for t, a in zip(tpl, owners)]),
    )
    hit = cache.lookup(key)
    if hit is not None:
        return hit
    consumers = [rows.consumer(t, a) for t, a in zip(tpl, owners)]
    alloc = solve(machine, consumers, DEFAULT_MC_MODEL, capacity_scale=capacity_scale)
    rates = tuple(alloc.rates[c.key()] for c in consumers)
    cache.store(key, rates)
    return rates


@dataclass(frozen=True)
class FleetCompletion:
    """One finished app: where it ran and how it fared."""

    app_id: str
    mid: int
    machine_class: str
    workers: Tuple[int, ...]
    threads: int
    arrival_s: float
    placed_s: float
    finish_s: float
    ideal_s: float
    slowdown: float
    wait_s: float
    #: Placement attempts this app took (1 on a fault-free fleet; crashes
    #: and lost completions requeue the app and bump it).
    attempts: int = 1
    #: SLO deadline: ``arrival_s + slo_slowdown * ideal_s`` — the
    #: slowdown-threshold multiple of the fault-free duration.
    deadline_s: float = math.inf
    #: Whether the app finished within its deadline.
    slo_ok: bool = True
    #: Full (original) work of the app in bytes — requeued attempts may
    #: execute less after a checkpoint resume, but goodput accounting is
    #: against the work the user submitted.
    work_bytes: float = 0.0
    #: Full per-app telemetry (``SimBackend`` only; the fluid model has
    #: no counters to fold).
    outcome: Optional[RunOutcome] = None


@dataclass
class _Placed:
    """Occupancy record of one running app."""

    app_id: str
    workload: WorkloadSpec
    workers: Tuple[int, ...]
    threads: int
    arrival_s: float
    placed_s: float
    ideal_s: float
    attempts: int = 1


class MachineBackend(abc.ABC):
    """One fleet machine: occupancy bookkeeping plus an execution model."""

    def __init__(
        self,
        mid: int,
        class_name: str,
        machine: Machine,
        *,
        policy: str = "bwap",
        dwp: float = 0.8,
        seed: int = 0,
        slo_slowdown: float = 4.0,
        sim_faults=None,
    ):
        self.mid = mid
        self.class_name = class_name
        self.machine = machine
        self.policy = policy
        self.dwp = dwp
        self.seed = seed
        if slo_slowdown < 1:
            raise ValueError(f"slo_slowdown must be >= 1, got {slo_slowdown}")
        self.slo_slowdown = slo_slowdown
        #: Single-machine fault plan for the execution model (``SimBackend``
        #: threads it into its simulator; the fluid backend degrades
        #: through :attr:`capacity_scale` instead).
        self.sim_faults = sim_faults
        #: Per-resource capacity multipliers the scheduler sets while this
        #: machine is inside a degradation window (``None`` when healthy —
        #: the fault-free solve paths are untouched).
        self.capacity_scale: Optional[np.ndarray] = None
        self.now = 0.0
        #: Monotonic state version: bumped whenever the resident consumer
        #: set (as seen by :meth:`resident_consumers`) may have changed —
        #: admissions, completions, evictions, per-node flow depletion,
        #: simulator epochs. The incremental scheduler re-reads a
        #: machine's state only when it moves, so correctness of score
        #: reuse rests on every mutation path bumping it.
        self.state_version = 0
        #: Version-keyed caches of the free/occupied node tuples (every
        #: occupancy change bumps the version, so staleness is impossible;
        #: the scheduler reads both once per candidate).
        self._free_cache: Optional[Tuple[int, Tuple[int, ...]]] = None
        self._occ_cache: Optional[Tuple[int, Tuple[int, ...]]] = None
        self._occupied: Dict[int, str] = {}
        self._placed: Dict[str, _Placed] = {}
        self.completions: List[FleetCompletion] = []
        #: Node-seconds spent running *completed* apps (live apps are
        #: folded in by :meth:`utilization`). Evicted apps' busy time is
        #: folded in too — the machine really ran them until the crash.
        self.busy_node_seconds = 0.0

    # ------------------------------------------------------------------ #
    # Occupancy
    # ------------------------------------------------------------------ #

    @property
    def num_live(self) -> int:
        return len(self._placed)

    def free_nodes(self) -> Tuple[int, ...]:
        cached = self._free_cache
        if cached is not None and cached[0] == self.state_version:
            return cached[1]
        free = tuple(
            n for n in range(self.machine.num_nodes) if n not in self._occupied
        )
        self._free_cache = (self.state_version, free)
        return free

    def occupied_nodes(self) -> Tuple[int, ...]:
        cached = self._occ_cache
        if cached is not None and cached[0] == self.state_version:
            return cached[1]
        occ = tuple(sorted(self._occupied))
        self._occ_cache = (self.state_version, occ)
        return occ

    def utilization(self, end_s: float) -> float:
        """Busy node-seconds over total node-seconds up to ``end_s``."""
        if end_s <= 0:
            return 0.0
        busy = self.busy_node_seconds
        for rec in self._placed.values():
            busy += len(rec.workers) * (end_s - rec.placed_s)
        return busy / (self.machine.num_nodes * end_s)

    def _register(
        self,
        app_id: str,
        workload: WorkloadSpec,
        workers: Sequence[int],
        arrival_s: float,
        threads: int,
        attempts: int = 1,
    ) -> _Placed:
        workers = tuple(workers)
        for w in workers:
            if w in self._occupied:
                raise RuntimeError(
                    f"machine {self.mid}: node {w} already occupied by "
                    f"{self._occupied[w]!r}"
                )
        rec = _Placed(
            app_id,
            workload,
            workers,
            threads,
            arrival_s,
            self.now,
            workload.ideal_time_s(threads, len(workers)),
            attempts,
        )
        for w in workers:
            self._occupied[w] = app_id
        self._placed[app_id] = rec
        self.state_version += 1
        return rec

    def _finish(
        self, rec: _Placed, finish_s: float, outcome: Optional[RunOutcome] = None
    ) -> None:
        for w in rec.workers:
            del self._occupied[w]
        del self._placed[rec.app_id]
        self.state_version += 1
        self.busy_node_seconds += len(rec.workers) * (finish_s - rec.placed_s)
        deadline_s = rec.arrival_s + self.slo_slowdown * rec.ideal_s
        self.completions.append(
            FleetCompletion(
                app_id=rec.app_id,
                mid=self.mid,
                machine_class=self.class_name,
                workers=rec.workers,
                threads=rec.threads,
                arrival_s=rec.arrival_s,
                placed_s=rec.placed_s,
                finish_s=finish_s,
                ideal_s=rec.ideal_s,
                slowdown=(finish_s - rec.arrival_s) / rec.ideal_s,
                wait_s=rec.placed_s - rec.arrival_s,
                attempts=rec.attempts,
                deadline_s=deadline_s,
                slo_ok=finish_s <= deadline_s,
                work_bytes=rec.workload.work_bytes,
                outcome=outcome,
            )
        )

    # ------------------------------------------------------------------ #
    # Fault hooks (no-ops on a fault-free run)
    # ------------------------------------------------------------------ #

    def set_capacity_scale(self, scale: Optional[np.ndarray]) -> None:
        """Install the degradation multipliers for the upcoming interval
        (the scheduler clamps its advances at fault-window edges, so one
        scale is valid for a whole advance)."""
        self.capacity_scale = scale

    def evict_all(self) -> List[Tuple[str, float]]:
        """Evict every resident app (the machine crashed) at the current
        backend clock.

        Frees occupancy, keeps the busy node-seconds the apps consumed
        (the machine really ran them until the crash), and returns
        ``(app_id, fraction_done)`` in admission order — the progress
        fraction of *this attempt*, which the scheduler composes with the
        attempt's resume point for checkpoint accounting.
        """
        evicted: List[Tuple[str, float]] = []
        for app_id in list(self._placed):
            frac = self._evict_one(app_id)
            rec = self._placed.pop(app_id)
            for w in rec.workers:
                del self._occupied[w]
            self.busy_node_seconds += len(rec.workers) * (self.now - rec.placed_s)
            evicted.append((app_id, frac))
        if evicted:
            self.state_version += 1
        return evicted

    @abc.abstractmethod
    def _evict_one(self, app_id: str) -> float:
        """Drop one app from the execution model; return its attempt's
        progress fraction in ``[0, 1]``."""

    def forget_app(self, app_id: str) -> None:
        """Erase a *completed* app's execution-model residue so the same
        id can be re-admitted (its completion report was lost)."""

    # ------------------------------------------------------------------ #
    # Candidate scoring (shared by every backend)
    # ------------------------------------------------------------------ #

    def placement_weights(self, workers: Sequence[int]) -> np.ndarray:
        """Predicted shared-page distribution under this backend's policy."""
        if self.policy in ("bwap", "bwap-static"):
            return combine_weights(
                canonical_for(self.machine).weights(workers), workers, self.dwp
            )
        if self.policy == "uniform-workers":
            w = np.zeros(self.machine.num_nodes)
            w[list(workers)] = 1.0 / len(workers)
            return w
        if self.policy == "uniform-all":
            n = self.machine.num_nodes
            return np.full(n, 1.0 / n)
        raise ValueError(f"unknown fleet policy {self.policy!r}")

    def candidate_consumers(
        self, app_id: str, workload: WorkloadSpec, workers: Sequence[int]
    ) -> Tuple[List[Consumer], int, Dict[int, int]]:
        """Analytic consumer set of a prospective placement.

        Mirrors :meth:`repro.engine.Application.traffic_mix`: each
        worker's mix is ``(1 - pf) * shared + pf * local`` with the
        shared distribution given by :meth:`placement_weights`, and
        demand from the workload's per-node model at full thread
        population. Returns ``(consumers, total_threads, threads_per_node)``.
        """
        thread_nodes = pin_threads(self.machine, workers)
        tpn = threads_per_node(thread_nodes)
        total = len(thread_nodes)
        shared = self.placement_weights(workers)
        pf = (
            workload.private_fraction
            if workload.private_bytes_per_thread > 0
            else 0.0
        )
        consumers: List[Consumer] = []
        for w in workers:
            mix = (1.0 - pf) * shared
            mix = mix.copy()
            mix[w] += pf
            mix = mix / mix.sum()
            demand = workload.node_demand_gbps(tpn[w], total, len(workers))
            consumers.append(
                Consumer(app_id, w, tpn[w], mix, demand, workload.write_fraction)
            )
        return consumers, total, tpn

    def candidate_rows(
        self, workload: WorkloadSpec, workers: Sequence[int]
    ) -> Tuple[List[int], List[int], int]:
        """:meth:`candidate_consumers` as rows of the machine's shared
        :func:`~repro.memsim.consumer_rows`: ``(rows, live rows, threads)``
        with one row per worker in worker order, the non-idle ones a solve
        reads, and the total thread count. This is the template the
        scheduler scores with and the fluid backend admits from."""
        consumers, threads, _tpn = self.candidate_consumers("", workload, workers)
        store = consumer_rows(self.machine)
        rows = [store.add(c) for c in consumers]
        return rows, [r for r, c in zip(rows, consumers) if not c.is_idle], threads

    def resident_rows(self) -> List[int]:
        """Rows of :meth:`resident_consumers` that a solve reads (non-idle
        ones, validated), in resident order."""
        return consumer_rows(self.machine).add_live(self.resident_consumers())

    # ------------------------------------------------------------------ #
    # Execution model
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def admit(
        self,
        app_id: str,
        workload: WorkloadSpec,
        workers: Sequence[int],
        arrival_s: float,
        *,
        resume_frac: float = 0.0,
        attempts: int = 1,
        template: Optional[Tuple[List[int], List[int], int]] = None,
    ) -> None:
        """Start one app on ``workers`` at the current backend clock.

        ``resume_frac`` is the checkpointed fraction of the *original*
        work already done by earlier attempts, in ``[0, 1)``: the
        execution model runs only the remaining ``1 - resume_frac``, while
        SLO/goodput accounting stays against the full workload. ``0.0``
        (the fault-free value) must leave the admit path bitwise-untouched.
        ``template`` is this placement's :meth:`candidate_rows`, which are
        exact across arrivals of a workload kind (work scaling touches only
        ``work_bytes``, which the construction never reads); the fluid
        backend admits from it, the simulator deploys its own consumers.
        """

    @abc.abstractmethod
    def resident_consumers(self) -> List[Consumer]:
        """Consumer set of the currently running apps (for scoring)."""

    @abc.abstractmethod
    def advance(self, to: float) -> None:
        """Advance the backend clock to ``to``, recording completions."""


def _check_resume(resume_frac: float) -> None:
    if not 0.0 <= resume_frac < 1.0:
        raise ValueError(f"resume_frac must be in [0, 1), got {resume_frac}")


class FlowBackend(MachineBackend):
    """Event-driven fluid execution at solver-allocated rates.

    Each worker owns a share of ``work_bytes`` proportional to its
    demand and burns it at ``rate x node_efficiency``; between resident-set
    changes rates are constant, so the next completion time is closed
    form. Per-machine BWAP placement enters through the candidate mixes
    (canonical weights blended at the configured DWP).

    State is one *resident row* per running worker, struct-of-lists:
    template row (into :func:`~repro.memsim.consumer_rows`), owning app,
    remaining bytes, useful factor (work bytes per GB of traffic) and
    rate. Depleted and evicted workers retire their rows into a free list
    that admissions reuse, so capacity tracks peak residency, not arrivals.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._store = consumer_rows(self.machine)
        self._tpl: List[int] = []
        self._owner: List[str] = []
        self._rem: List[float] = []
        self._factor: List[float] = []
        self._rate: List[float] = []
        self._free: List[int] = []
        #: Live rows of each running app in worker order; apps in
        #: admission order, so the values concatenate to resident order.
        self._app_rows: Dict[str, List[int]] = {}
        #: Bytes each running app executes in this attempt.
        self._exec_bytes: Dict[str, float] = {}
        #: ``(state_version, capacity-scale bytes)`` at which ``_rate``
        #: was last solved: repeated ticks over an unchanged resident set
        #: replay it instead of re-keying the canonical cache.
        self._solve_slot: Optional[Tuple[int, Optional[bytes]]] = None

    def admit(
        self,
        app_id,
        workload,
        workers,
        arrival_s,
        *,
        resume_frac=0.0,
        attempts=1,
        template=None,
    ):
        _check_resume(resume_frac)
        t_rows, _live, threads = (
            self.candidate_rows(workload, workers) if template is None else template
        )
        store = self._store
        nodes = [store.node[r] for r in t_rows]
        if nodes != list(workers):
            raise ValueError(f"template nodes {nodes} do not match workers {list(workers)}")
        self._register(app_id, workload, workers, arrival_s, threads, attempts)
        demands = [store.demand[r] for r in t_rows]
        total_demand = sum(demands)
        # The fault-free path keeps the original arithmetic untouched
        # (bitwise identity with pre-fault fleets).
        exec_bytes = (
            workload.work_bytes
            if resume_frac == 0.0
            else workload.work_bytes * (1.0 - resume_frac)
        )
        factor = workload.node_efficiency(len(workers)) * 1e9
        rows = []
        for t, demand in zip(t_rows, demands):
            rem = exec_bytes * (demand / total_demand)
            if rem > 0.0:
                if self._free:
                    r = self._free.pop()
                    self._tpl[r], self._owner[r] = t, app_id
                    self._rem[r], self._factor[r] = rem, factor
                else:
                    r = len(self._tpl)
                    self._tpl.append(t)
                    self._owner.append(app_id)
                    self._rem.append(rem)
                    self._factor.append(factor)
                    self._rate.append(0.0)
                rows.append(r)
        self._app_rows[app_id] = rows
        self._exec_bytes[app_id] = exec_bytes

    def resident_rows(self) -> List[int]:
        tpl = self._tpl
        return [tpl[r] for rows in self._app_rows.values() for r in rows]

    def resident_consumers(self) -> List[Consumer]:
        return [
            self._store.consumer(self._tpl[r], app_id)
            for app_id, rows in self._app_rows.items()
            for r in rows
        ]

    def _evict_one(self, app_id: str) -> float:
        rows = self._app_rows.pop(app_id)
        exec_bytes = self._exec_bytes.pop(app_id)
        left = sum(self._rem[r] for r in rows)
        self._free.extend(rows)
        if exec_bytes <= 0.0:
            return 1.0
        return min(1.0, max(0.0, 1.0 - left / exec_bytes))

    def _solve(self, live: List[int]) -> None:
        key = (
            self.state_version,
            None if self.capacity_scale is None else self.capacity_scale.tobytes(),
        )
        if self._solve_slot == key:
            return
        rates = _canon_solve(
            self.machine,
            self._store,
            [self._tpl[r] for r in live],
            [self._owner[r] for r in live],
            self.capacity_scale,
        )
        for r, rate in zip(live, rates):
            self._rate[r] = rate
        self._solve_slot = key

    def advance(self, to):
        rem, rate, factor = self._rem, self._rate, self._factor
        # Rates are re-solved on entry and after a completion; a worker
        # depleting mid-advance leaves its co-runners' rates as they were.
        resolve = True
        while self._app_rows:
            now = self.now
            if now >= to:
                return
            live = [r for rows in self._app_rows.values() for r in rows]
            if resolve:
                self._solve(live)
                resolve = False
            # Earliest per-worker depletion under the current rates.
            dt = to - now
            speeds = [rate[r] * factor[r] for r in live]
            for r, speed in zip(live, speeds):
                if speed > 0.0:
                    need = rem[r] / speed
                    if need < dt:
                        dt = need
            self.now = now + dt
            depleted = False
            for r, speed in zip(live, speeds):
                left = rem[r]
                if speed > 0.0 and left / speed <= dt:
                    left = 0.0
                    # A depleted worker drops out of the resident set
                    # even while its app keeps running elsewhere.
                    self.state_version += 1
                else:
                    left -= speed * dt
                    if left < 0.0:  # max(left, 0.0), keeping a -0.0
                        left = 0.0
                rem[r] = left
                if left <= 0.0:
                    depleted = True
            if depleted:
                for rows in self._app_rows.values():
                    gone = [r for r in rows if rem[r] <= 0.0]
                    for r in gone:
                        rows.remove(r)
                    self._free.extend(gone)
            for app_id in [a for a, rows in self._app_rows.items() if not rows]:
                del self._app_rows[app_id], self._exec_bytes[app_id]
                self._finish(self._placed[app_id], self.now)
                resolve = True
        self.now = to


class SimBackend(MachineBackend):
    """Full simulator fidelity under the fleet clock.

    Apps are deployed through the same :func:`deploy_app` path the
    single-machine experiments use (so a 1-machine fleet reduces bitwise
    to a plain ``run_spec``), and the simulator is stepped incrementally
    with :meth:`Simulator.step_to`. Idle time belongs to the fleet clock:
    after every advance the simulator clock is pinned to the fleet clock,
    so a later admission gets the correct start time.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sim = Simulator(self.machine, seed=self.seed, faults=self.sim_faults)
        self.sim.start()
        self._tuners: Dict[str, object] = {}

    def admit(
        self, app_id, workload, workers, arrival_s, *, resume_frac=0.0, attempts=1,
        template=None,
    ):
        _check_resume(resume_frac)
        threads = len(pin_threads(self.machine, workers))
        self._register(app_id, workload, workers, arrival_s, threads, attempts)
        # Checkpoint resume: deploy a shrunken copy of the workload so the
        # simulator only executes the remaining work; registration above
        # keeps the full spec for SLO/goodput accounting. ``0.0`` deploys
        # the original object (bitwise identity on fault-free fleets).
        exec_workload = (
            workload
            if resume_frac == 0.0
            else dataclasses.replace(
                workload, work_bytes=workload.work_bytes * (1.0 - resume_frac)
            )
        )
        _app, tuner = deploy_app(
            self.sim,
            app_id,
            exec_workload,
            workers,
            self.policy,
            canonical=canonical_for(self.machine),
            static_dwp=self.dwp if self.policy == "bwap-static" else None,
        )
        self._tuners[app_id] = tuner

    def _evict_one(self, app_id: str) -> float:
        self._tuners.pop(app_id, None)
        app = self.sim.remove_app(app_id)
        return app.progress_fraction()

    def forget_app(self, app_id: str) -> None:
        self._tuners.pop(app_id, None)
        self.sim.remove_app(app_id)
        self.state_version += 1

    def resident_consumers(self) -> List[Consumer]:
        out: List[Consumer] = []
        for app in self.sim.apps:
            if not app.finished:
                out.extend(app.consumers())
        return out

    def advance(self, to):
        if self._placed:
            # Live tuners migrate pages every epoch, so the resident
            # consumer mixes drift on every advance — never reuse scores.
            self.state_version += 1
        self.sim.step_to(to)
        result = None
        for app in self.sim.apps:
            if app.finished and app.app_id in self._placed:
                if result is None:
                    result = self.sim.snapshot()
                rec = self._placed[app.app_id]
                outcome = outcome_for_app(
                    result, app.app_id, self._tuners.get(app.app_id)
                )
                self._finish(rec, float(app.finish_time), outcome)
        self.sim.now = to  # idle time belongs to the fleet clock
        self.now = to


BACKENDS = {"flow": FlowBackend, "sim": SimBackend}


def make_backend(
    kind: str,
    mid: int,
    class_name: str,
    machine: Machine,
    *,
    policy: str = "bwap",
    dwp: float = 0.8,
    seed: int = 0,
    slo_slowdown: float = 4.0,
    sim_faults=None,
) -> MachineBackend:
    """Construct a backend of the named kind (``"flow"`` or ``"sim"``)."""
    try:
        cls = BACKENDS[kind]
    except KeyError:
        raise ValueError(f"unknown backend {kind!r}; use one of {tuple(BACKENDS)}")
    return cls(
        mid,
        class_name,
        machine,
        policy=policy,
        dwp=dwp,
        seed=seed,
        slo_slowdown=slo_slowdown,
        sim_faults=sim_faults,
    )
