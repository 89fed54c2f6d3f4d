"""Machine backends: how one fleet machine executes its placed apps.

The scheduler talks to every machine through the small
:class:`MachineBackend` interface — admit an app onto a worker set,
report the resident rows for scoring, advance to a deadline —
so execution fidelity is pluggable per run:

:class:`FlowBackend`
    Fluid-rate model. Apps progress at the rates the contention solver
    allocates; rates change only when the resident set changes, so the
    backend advances in closed form between completion events and reads
    its rates at those events from a table keyed by its interned state
    (:class:`MachineStates`), solving only states it has never met.
    Cheap enough for million-arrival traces.

:class:`SimBackend`
    A full :class:`~repro.engine.Simulator` per machine — epoch kernel,
    counters, migration charges, and (under ``policy="bwap"``) the
    on-line DWP tuner — stepped incrementally under the fleet clock.

Both backends score candidate placements with the *same* analytic
consumer construction (:meth:`MachineBackend.candidate_consumers`), so a
scheduling decision depends only on the solver — which is what makes the
state-keyed scores bitwise-comparable with one scalar solve per
candidate. Every backend names its resident state by an id interned in
its machine's :class:`MachineStates`, which the scheduler's score table
and the fluid backend's rate table both key on.
"""

from __future__ import annotations

import abc
import dataclasses
import math
import operator
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bwap import RunOutcome, deploy_app, outcome_for_app
from repro.core.canonical import canonical_tuner as canonical_for
from repro.core.dwp import combine_weights
from repro.engine.sim import Simulator
from repro.engine.threads import pin_threads, threads_per_node
from repro.memsim.contention import Consumer, consumer_rows, solve_batch_fleet_lazy
from repro.store import derive_seed
from repro.topology import Machine
from repro.workloads import WorkloadSpec


def machine_seed(base_seed: int, mid: int) -> int:
    """Per-machine seed, stable across processes and fleet layouts."""
    return derive_seed(base_seed, "fleet-machine", mid)


#: State id of an idle machine in every :class:`MachineStates`.
IDLE = 0


class MachineStates:
    """Interned resident states of one machine, shared by every backend on
    it (same-class fleet machines share the machine object).

    A state is ``(resident rows, occupied nodes)``: the template rows of
    :func:`~repro.memsim.consumer_rows` a solve reads, in resident order,
    and the nodes apps hold — everything a candidate solve on the machine
    reads and, with the capacity scale, everything the fluid backend's
    rates depend on. Owner labels are not part of it: the solver reads
    each consumer's node, mix, demand and write fraction by position, and
    an app id only names an output. Transition memos map ``(state,
    event)`` to the next state, so a backend keeps its id current without
    building a key of its resident set; ``rates`` holds the per-row rates
    at ``(state, scale id)``.
    """

    def __init__(self):
        self.rows: List[Tuple[int, ...]] = [()]
        self.occupied: List[Tuple[int, ...]] = [()]
        self._ids: Dict[tuple, int] = {((), ()): IDLE}
        self._next: Dict[tuple, int] = {}
        self._scale_ids: Dict[Optional[bytes], int] = {None: 0}
        self.rates: Dict[Tuple[int, int], Tuple[float, ...]] = {}

    def intern(self, rows: Tuple[int, ...], occupied: Tuple[int, ...]) -> int:
        """Id of the state ``(rows, occupied)`` (ascending nodes)."""
        sid = self._ids.get((rows, occupied))
        if sid is None:
            sid = self._ids[rows, occupied] = len(self.rows)
            self.rows.append(rows)
            self.occupied.append(occupied)
        return sid

    def admitted(self, sid: int, rows: Tuple[int, ...], workers: Tuple[int, ...]) -> int:
        """``sid`` after an app on ``workers`` joins with resident ``rows``."""
        nxt = self._next.get((sid, rows, workers))
        if nxt is None:
            occupied = tuple(sorted(self.occupied[sid] + workers))
            nxt = self._next[sid, rows, workers] = self.intern(self.rows[sid] + rows, occupied)
        return nxt

    def depleted(self, sid: int, pos: int) -> int:
        """``sid`` after the resident row at position ``pos`` runs dry."""
        nxt = self._next.get((sid, pos))
        if nxt is None:
            rows = self.rows[sid][:pos] + self.rows[sid][pos + 1 :]
            nxt = self._next[sid, pos] = self.intern(rows, self.occupied[sid])
        return nxt

    def released(self, sid: int, workers: Tuple[int, ...]) -> int:
        """``sid`` after an app with no resident rows frees ``workers``."""
        nxt = self._next.get((sid, workers))
        if nxt is None:
            occupied = tuple(n for n in self.occupied[sid] if n not in workers)
            nxt = self._next[sid, workers] = self.intern(self.rows[sid], occupied)
        return nxt

    def scale_id(self, scale: Optional[np.ndarray]) -> int:
        """Small-int id of a capacity scale's values."""
        key = None if scale is None else scale.tobytes()
        return self._scale_ids.setdefault(key, len(self._scale_ids))


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


#: Column dtypes of :class:`FleetRecords`: placements in decision order,
#: and completions.
_PLACEMENT_COLS = (("p_idx", np.int32), ("p_mid", np.int32), ("p_wset", np.int32))
_COMPLETION_COLS = (
    ("idx", np.int32),
    ("mid", np.int32),
    ("wset", np.int32),
    ("placed_s", np.float64),
    ("finish_s", np.float64),
    ("ideal_s", np.float64),
    ("attempts", np.int32),
    ("slo_ok", np.bool_),
)
#: Records a view materialises per chunk while iterating.
_CHUNK = 4096


class FleetRecords:
    """Struct-of-arrays record buffer of one fleet run.

    Placements hold ``(arrival index, machine id, worker-set id)`` in
    decision order; completions hold the arrival index, machine,
    worker-set id, ``placed_s``/``finish_s``/``ideal_s``, attempts and the
    SLO flag, plus an object column of :class:`SimBackend`'s
    ``RunOutcome`` (absent on fluid runs). Worker sets are interned in
    :attr:`wsets`. Everything else a :class:`FleetCompletion` carries is
    read from the trace (arrival time, work, the ``job{i}`` id) and the
    fleet (machine class), or computed with the expressions the record
    always used (slowdown, wait, deadline), so a view builds records
    equal to the ones a run once kept as objects.

    Each arrival completes at most once, so the completion columns are
    sized to the trace up front (``np.empty`` pages cost no memory until
    written); placements start at the same size and double when requeued
    apps, which place again, outgrow it.
    """

    def __init__(self, trace, classes: Sequence[str], slo_slowdown: float):
        self.trace = trace
        #: Machine class name per machine id.
        self.classes = classes
        self.slo_slowdown = slo_slowdown
        self.wsets: List[Tuple[int, ...]] = []
        self._wset_ids: Dict[Tuple[int, ...], int] = {}
        #: Thread count per ``(machine id, worker-set id)``.
        self.threads: Dict[Tuple[int, int], int] = {}
        self.placed = 0
        self.done = 0
        for name, dtype in _PLACEMENT_COLS + _COMPLETION_COLS:
            setattr(self, name, np.empty(max(len(trace), 16), dtype))
        self.outcome: Optional[np.ndarray] = None

    def _grow(self, names) -> None:
        for name in names:
            old = getattr(self, name)
            new = np.empty(2 * len(old), old.dtype)
            new[: len(old)] = old
            setattr(self, name, new)

    def _wset_id(self, workers: Tuple[int, ...]) -> int:
        wid = self._wset_ids.get(workers)
        if wid is None:
            wid = self._wset_ids[workers] = len(self.wsets)
            self.wsets.append(workers)
        return wid

    def place(self, idx: int, mid: int, workers: Tuple[int, ...]) -> None:
        """Record one admission decision."""
        k = self.placed
        if k == len(self.p_idx):
            self._grow([name for name, _dtype in _PLACEMENT_COLS])
        self.p_idx[k] = idx
        self.p_mid[k] = mid
        self.p_wset[k] = self._wset_id(workers)
        self.placed = k + 1

    def complete(self, mid: int, rec: "_Placed", finish_s: float, slo_ok: bool, outcome) -> None:
        """Record one finished app."""
        k = self.done
        if k == len(self.idx):
            self._grow(self._columns())
        wset = self._wset_id(rec.workers)
        self.threads.setdefault((mid, wset), rec.threads)
        self.idx[k] = rec.idx
        self.mid[k] = mid
        self.wset[k] = wset
        self.placed_s[k] = rec.placed_s
        self.finish_s[k] = finish_s
        self.ideal_s[k] = rec.ideal_s
        self.attempts[k] = rec.attempts
        self.slo_ok[k] = slo_ok
        if outcome is not None:
            if self.outcome is None:
                self.outcome = np.empty(len(self.idx), dtype=object)  # all None
            self.outcome[k] = outcome
        self.done = k + 1

    def _columns(self) -> List[str]:
        names = [name for name, _dtype in _COMPLETION_COLS]
        return names if self.outcome is None else names + ["outcome"]

    def keep(self, start: int, rows: Sequence[int]) -> None:
        """Keep only ``rows`` (ascending) of the completions from
        ``start`` on, in order — the run drops lost completion reports."""
        keep = np.asarray(rows, dtype=np.int64)
        end = start + len(keep)
        for name in self._columns():
            col = getattr(self, name)
            col[start:end] = col[keep]
        self.done = end

    def seal(self) -> None:
        """Order completions by ``(finish_s, app id)`` — ties break in the
        decimal-string order of ``job{i}`` — and trim their columns."""
        n = self.done
        fin = self.finish_s[:n]
        order = np.argsort(fin, kind="stable")
        f = fin[order]
        ties = np.flatnonzero(f[1:] == f[:-1]).tolist()
        ids = self.idx
        app_id = self.trace.app_id
        j = 0
        while j < len(ties):
            lo = ties[j]
            while j + 1 < len(ties) and ties[j + 1] == ties[j] + 1:
                j += 1
            hi = ties[j] + 2
            order[lo:hi] = sorted(order[lo:hi].tolist(), key=lambda k: app_id(int(ids[k])))
            j += 1
        for name in self._columns():
            setattr(self, name, getattr(self, name)[:n][order])

    def arrival_s(self) -> np.ndarray:
        return self.trace.times[self.idx[: self.done]]


class _RecordView(SequenceABC):
    """Read-only sequence over one column group of :class:`FleetRecords`,
    building each record on access. Equal to any sequence of equal
    records (another view or a list)."""

    __slots__ = ("_recs",)
    __hash__ = None

    def __init__(self, records: FleetRecords):
        self._recs = records

    def __getitem__(self, i):
        n = len(self)
        if isinstance(i, slice):
            start, stop, step = i.indices(n)
            if step == 1:
                return list(self._build(start, stop))
            return [self[k] for k in range(start, stop, step)]
        i = operator.index(i)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("record index out of range")
        return next(self._build(i, i + 1))

    def __iter__(self):
        n = len(self)
        for lo in range(0, n, _CHUNK):
            yield from self._build(lo, min(lo + _CHUNK, n))

    def __eq__(self, other):
        if not isinstance(other, SequenceABC) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


class PlacementsView(_RecordView):
    """``(app_id, mid, workers)`` per admission decision, in decision order."""

    __slots__ = ()

    def __len__(self) -> int:
        return self._recs.placed

    def _build(self, lo: int, hi: int):
        r = self._recs
        wsets, app_id = r.wsets, r.trace.app_id
        for idx, mid, wset in zip(
            r.p_idx[lo:hi].tolist(), r.p_mid[lo:hi].tolist(), r.p_wset[lo:hi].tolist()
        ):
            yield (app_id(idx), mid, wsets[wset])


class CompletionsView(_RecordView):
    """:class:`FleetCompletion` per finished app, sorted by ``(finish_s,
    app_id)``."""

    __slots__ = ()

    def __len__(self) -> int:
        return self._recs.done

    def slowdowns(self) -> np.ndarray:
        """Every record's ``slowdown``, as one array (same floats)."""
        r = self._recs
        return (r.finish_s[: r.done] - r.arrival_s()) / r.ideal_s[: r.done]

    def waits(self) -> np.ndarray:
        """Every record's ``wait_s``, as one array (same floats)."""
        r = self._recs
        return r.placed_s[: r.done] - r.arrival_s()

    def _build(self, lo: int, hi: int):
        r = self._recs
        trace, slo = r.trace, r.slo_slowdown
        wsets, threads, classes = r.wsets, r.threads, r.classes
        outcomes = [None] * (hi - lo) if r.outcome is None else r.outcome[lo:hi].tolist()
        cols = [getattr(r, name)[lo:hi].tolist() for name, _dtype in _COMPLETION_COLS]
        for (idx, mid, wset, placed_s, finish_s, ideal_s, attempts, slo_ok), outcome in zip(
            zip(*cols), outcomes
        ):
            arrival_s = float(trace.times[idx])
            yield FleetCompletion(
                app_id=trace.app_id(idx),
                mid=mid,
                machine_class=classes[mid],
                workers=wsets[wset],
                threads=threads[mid, wset],
                arrival_s=arrival_s,
                placed_s=placed_s,
                finish_s=finish_s,
                ideal_s=ideal_s,
                slowdown=(finish_s - arrival_s) / ideal_s,
                wait_s=placed_s - arrival_s,
                attempts=attempts,
                deadline_s=arrival_s + slo * ideal_s,
                slo_ok=slo_ok,
                work_bytes=trace.work_bytes(idx),
                outcome=outcome,
            )


@dataclass
class _Placed:
    """Occupancy record of one running app."""

    app_id: str
    #: Arrival index of the app in the run's trace.
    idx: int
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
        #: set (as seen by :meth:`resident_rows`) may have changed —
        #: admissions, completions, evictions, per-node flow depletion,
        #: simulator epochs. The incremental scheduler re-reads a
        #: machine's state only when it moves, so correctness of score
        #: reuse rests on every mutation path bumping it.
        self.state_version = 0
        #: Interned resident states of this machine's class (shared by
        #: every backend on the machine object), the id of this machine's,
        #: and the version that id was read at.
        self.states: MachineStates = machine.__dict__.setdefault("_fleet_states", MachineStates())
        self._sid = IDLE
        self._sid_version = 0
        self._occupied: Dict[int, str] = {}
        self._placed: Dict[str, _Placed] = {}
        #: The run's record buffer, set by the scheduler (a standalone
        #: backend must be given one before an app of it finishes).
        self.records: Optional[FleetRecords] = None
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

    @property
    def state_id(self) -> int:
        """Id of the current resident state in :attr:`states`. By default
        re-interned from :meth:`resident_rows` and :meth:`occupied_nodes`
        whenever :attr:`state_version` has moved."""
        if self._sid_version != self.state_version:
            self._sid = self.states.intern(tuple(self.resident_rows()), self.occupied_nodes())
            self._sid_version = self.state_version
        return self._sid

    def free_nodes(self) -> Tuple[int, ...]:
        return tuple(n for n in range(self.machine.num_nodes) if n not in self._occupied)

    def occupied_nodes(self) -> Tuple[int, ...]:
        return tuple(sorted(self._occupied))

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
        idx: int,
        workers: Sequence[int],
        arrival_s: float,
        threads: int,
        ideal_s: float,
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
            app_id, idx, workers, threads, arrival_s, self.now, ideal_s, attempts
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
        self.records.complete(self.mid, rec, finish_s, finish_s <= deadline_s, outcome)

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
            self._sid, self._sid_version = IDLE, self.state_version
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

    def candidate_rows(self, workload: WorkloadSpec, workers: Sequence[int]) -> tuple:
        """:meth:`candidate_consumers` as rows of the machine's shared
        :func:`~repro.memsim.consumer_rows`: ``(rows, live rows, threads,
        demand fractions, efficiency factor, useful rate)`` — one row per
        worker in worker order, the non-idle ones a solve reads, and what
        an admission derives from them. Nothing here reads ``work_bytes``,
        so one template serves every arrival of a workload kind: the
        scheduler scores with it and the fluid backend admits from it."""
        consumers, threads, _tpn = self.candidate_consumers("", workload, workers)
        store = consumer_rows(self.machine)
        rows = [store.add(c) for c in consumers]
        total_demand = sum([store.demand[r] for r in rows])
        efficiency = workload.node_efficiency(len(workers))
        return (
            rows,
            [r for r, c in zip(rows, consumers) if not c.is_idle],
            threads,
            [store.demand[r] / total_demand for r in rows],
            efficiency * 1e9,
            workload.demand_gbps(threads, len(workers)) * efficiency,
        )

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
        idx: int,
        work_bytes: Optional[float] = None,
        resume_frac: float = 0.0,
        attempts: int = 1,
        template: Optional[tuple] = None,
    ) -> None:
        """Start one app on ``workers`` at the current backend clock.

        The clock is only meaningful while the machine is busy, so the
        scheduler pins an idle machine's clock with :meth:`advance` first.

        ``idx`` is the app's arrival index in the run's trace, which its
        completion record keeps instead of the id string.

        ``work_bytes`` is the app's work (default ``workload.work_bytes``):
        the fleet admits its catalog workload, not a per-arrival copy.
        ``resume_frac`` is the checkpointed fraction of that *original*
        work already done by earlier attempts, in ``[0, 1)``: the
        execution model runs only the remaining ``1 - resume_frac``, while
        SLO/goodput accounting stays against the full work. ``0.0`` (the
        fault-free value) must leave the admit path bitwise-untouched.
        ``template`` is this placement's :meth:`candidate_rows`; the fluid
        backend admits from it, the simulator deploys its own consumers.
        """

    @abc.abstractmethod
    def resident_rows(self) -> List[int]:
        """Rows of :func:`~repro.memsim.consumer_rows` that a solve of the
        running apps reads (non-idle ones), in resident order."""

    @abc.abstractmethod
    def advance(self, to: float) -> None:
        """Advance the backend clock to ``to``, recording completions. On
        an idle machine this only sets the clock."""


def _attempt_bytes(workload: WorkloadSpec, work_bytes, resume_frac: float):
    """``(work_bytes, exec_bytes)`` of an admission: the app's full work
    and what this attempt executes. ``resume_frac == 0.0`` keeps the
    fault-free arithmetic untouched (bitwise identity with pre-fault
    fleets)."""
    if not 0.0 <= resume_frac < 1.0:
        raise ValueError(f"resume_frac must be in [0, 1), got {resume_frac}")
    if work_bytes is None:
        work_bytes = workload.work_bytes
    return work_bytes, work_bytes if resume_frac == 0.0 else work_bytes * (1.0 - resume_frac)


class FlowBackend(MachineBackend):
    """Event-driven fluid execution at solver-allocated rates.

    Each worker owns a share of ``work_bytes`` proportional to its
    demand and burns it at ``rate x node_efficiency``; between resident-set
    changes rates are constant, so the next completion time is closed
    form. Per-machine BWAP placement enters through the candidate mixes
    (canonical weights blended at the configured DWP).

    State is one *resident row* per running worker, struct-of-lists:
    template row (into :func:`~repro.memsim.consumer_rows`), owning app,
    remaining bytes and useful factor (work bytes per GB of traffic).
    Depleted and evicted workers retire their rows into a free list
    that admissions reuse, so capacity tracks peak residency, not arrivals.
    Admissions, depletions, completions and evictions step :attr:`state_id`
    through its class's transition memos, and rates are read from the
    class's rate table at ``(state, scale id)``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._store = consumer_rows(self.machine)
        self._tpl: List[int] = []
        self._rem: List[float] = []
        self._factor: List[float] = []
        self._free: List[int] = []
        #: Live rows of each running app in worker order; apps in
        #: admission order, so the values concatenate to resident order.
        self._app_rows: Dict[str, List[int]] = {}
        #: Bytes each running app executes in this attempt.
        self._exec_bytes: Dict[str, float] = {}
        #: ``(state_version, capacity scale, live rows, speeds)`` of the
        #: last solve (see :meth:`_solve`).
        self._solve_slot: Optional[tuple] = None

    @property
    def state_id(self) -> int:
        """Kept current by every event, never re-interned."""
        return self._sid

    def admit(
        self,
        app_id,
        workload,
        workers,
        arrival_s,
        *,
        idx,
        work_bytes=None,
        resume_frac=0.0,
        attempts=1,
        template=None,
    ):
        work_bytes, exec_bytes = _attempt_bytes(workload, work_bytes, resume_frac)
        t_rows, _live, threads, fracs, factor, useful = (
            self.candidate_rows(workload, workers) if template is None else template
        )
        store = self._store
        nodes = [store.node[r] for r in t_rows]
        if nodes != list(workers):
            raise ValueError(f"template nodes {nodes} do not match workers {list(workers)}")
        self._register(
            app_id, idx, workers, arrival_s, threads, work_bytes / 1e9 / useful,
            attempts,
        )
        rows = []
        added = []
        for t, frac in zip(t_rows, fracs):
            rem = exec_bytes * frac
            if rem > 0.0:
                added.append(t)
                if self._free:
                    r = self._free.pop()
                    self._tpl[r], self._rem[r], self._factor[r] = t, rem, factor
                else:
                    r = len(self._tpl)
                    self._tpl.append(t)
                    self._rem.append(rem)
                    self._factor.append(factor)
                rows.append(r)
        self._app_rows[app_id] = rows
        self._exec_bytes[app_id] = exec_bytes
        self._sid = self.states.admitted(self._sid, tuple(added), tuple(workers))

    def resident_rows(self) -> List[int]:
        tpl = self._tpl
        return [tpl[r] for rows in self._app_rows.values() for r in rows]

    def _evict_one(self, app_id: str) -> float:
        rows = self._app_rows.pop(app_id)
        exec_bytes = self._exec_bytes.pop(app_id)
        left = sum(self._rem[r] for r in rows)
        self._free.extend(rows)
        if exec_bytes <= 0.0:
            return 1.0
        return min(1.0, max(0.0, 1.0 - left / exec_bytes))

    def _solve(self) -> Tuple[List[int], List[float]]:
        """Live rows in resident order and their speeds (rate x factor),
        reused while ``state_version`` and the capacity-scale object hold.
        Rates come from the class's table at ``(state, scale id)``; a
        state it has no rates for solves its resident rows through the
        tick's own :func:`~repro.memsim.solve_batch_fleet_lazy`."""
        slot = self._solve_slot
        version, scale = self.state_version, self.capacity_scale
        if slot is not None and slot[0] == version and slot[1] is scale:
            return slot[2], slot[3]
        states = self.states
        live = [r for rows in self._app_rows.values() for r in rows]
        key = (self._sid, states.scale_id(scale))
        rates = states.rates.get(key)
        if rates is None:
            rates = states.rates[key] = solve_batch_fleet_lazy(
                [(self.machine, self.resident_rows())], capacity_scales=[scale]
            )[0]
        factor = self._factor
        speeds = [rate * factor[r] for r, rate in zip(live, rates)]
        self._solve_slot = (version, scale, live, speeds)
        return live, speeds

    def advance(self, to):
        rem = self._rem
        # Rates are re-solved on entry and after a completion; a worker
        # depleting mid-advance leaves its co-runners' rates as they were.
        resolve = True
        while self._app_rows:
            now = self.now
            if now >= to:
                return
            if resolve:
                live, speeds = self._solve()
                resolve = False
            # Earliest per-worker depletion under the current rates.
            dt = to - now
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
                states, sid, pos = self.states, self._sid, 0
                for rows in self._app_rows.values():
                    gone = []
                    for r in rows:
                        if rem[r] <= 0.0:
                            gone.append(r)
                            sid = states.depleted(sid, pos)
                        else:
                            pos += 1
                    for r in gone:
                        rows.remove(r)
                    self._free.extend(gone)
                self._sid = sid
                kept = [i for i, r in enumerate(live) if rem[r] > 0.0]
                live = [live[i] for i in kept]
                speeds = [speeds[i] for i in kept]
            for app_id in [a for a, rows in self._app_rows.items() if not rows]:
                del self._app_rows[app_id], self._exec_bytes[app_id]
                rec = self._placed[app_id]
                self._finish(rec, self.now)
                self._sid = self.states.released(self._sid, rec.workers)
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
        self, app_id, workload, workers, arrival_s, *, idx, work_bytes=None,
        resume_frac=0.0, attempts=1, template=None,
    ):
        work_bytes, exec_bytes = _attempt_bytes(workload, work_bytes, resume_frac)
        nw = len(workers)
        threads = len(pin_threads(self.machine, workers))
        useful = workload.demand_gbps(threads, nw) * workload.node_efficiency(nw)
        self._register(
            app_id, idx, workers, arrival_s, threads, work_bytes / 1e9 / useful,
            attempts,
        )
        # The simulator executes this attempt's work; registration above
        # keeps the full work for SLO/goodput accounting.
        exec_workload = dataclasses.replace(workload, work_bytes=exec_bytes)
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
        """Consumer set of the simulator's running apps."""
        out: List[Consumer] = []
        for app in self.sim.apps:
            if not app.finished:
                out.extend(app.consumers())
        return out

    def resident_rows(self) -> List[int]:
        return consumer_rows(self.machine).add_live(self.resident_consumers())

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
