"""Trace-driven fleet scheduler.

Each scheduling tick admits a batch of pending arrivals. Every app ranks
its feasible (machine x worker-set) candidates by the discipline's rank
key and takes the first maximum; machines claimed earlier in the tick
are skipped.

Candidates are scored by machine *state*. Every backend keeps the id of
its resident state — ``(resident rows, occupied nodes)``, interned per
machine class in :class:`~repro.fleet.backend.MachineStates` — and the
tick pairs it, whenever a machine's version or capacity scale moves, with
the capacity-scale key: everything a candidate solve on it reads. A
growing table holds one float per ``(state, arrival kind, worker-count
slot)`` cell. A tick
gathers its kinds' scores from each machine's current state and solves
the cells the run has never seen, each once, in one
:func:`repro.memsim.solve_batch_fleet_lazy` call. Candidates are shared
rows of :func:`repro.memsim.consumer_rows`, solved after the state's
resident rows without building a ``Consumer``. The exhaustive greedy this
replays bitwise — one scalar solve per candidate, every tick — is kept as
the reference in ``tests/oracle/exhaustive_tick.py``.

The fluid backend reads its resident set's rates at each advance from
its class's rate table, keyed by the same state id and its capacity
scale. A scoring entry is the resident set its candidate's admission
would leave, so the tick files each entry's rates there: the backend
replays the floats a scoring solve produced and solves only states the
tick never scored.

Between ticks the fleet skips idle spans in one jump, so sparse traces
cost time proportional to events, not to simulated seconds. A step
advances only the busy machines; an idle one's clock is pinned to the
fleet clock when it is admitted to.

Fault tolerance (``faults=`` / :mod:`repro.fleet.faults`): the scheduler
evicts the residents of crashing machines and requeues them with bounded
exponential backoff (``"requeue+checkpoint"`` resumes from the last
completed progress quantum), skips crashed and circuit-breaker-blocked
machines, re-scores degraded machines with scaled link capacities, and
draws admission rejections and lost completions in decision order, so
the reference greedy sees identical faults. ``faults=None`` leaves the
fault-free run byte-for-byte what it was before the fault layer existed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fleet.backend import (
    CompletionsView,
    FleetRecords,
    MachineBackend,
    PlacementsView,
    machine_seed,
    make_backend,
)
from repro.fleet.cluster import FleetNode
from repro.fleet.faults import HealthTracker, as_fleet_injector
from repro.memsim import solve_batch_fleet_lazy
from repro.engine.threads import pick_worker_nodes
from repro.obs import Heartbeat
from repro.workloads.arrivals import ArrivalTrace

#: Scheduling disciplines: how a pending app ranks its feasible candidates.
#: A larger rank key wins, ties breaking toward lower machine id, then
#: smaller worker count k: ``(score, -mid, -k)`` for best-rate, ``(-mid,
#: -k)`` for first-fit, and ``(free nodes, score, -mid, -k)`` for
#: least-loaded.
DISCIPLINES = ("best-rate", "first-fit", "least-loaded")

#: Recovery policies for work interrupted by a machine crash (or a lost
#: completion report): strand it, requeue it from scratch, or requeue it
#: from its last completed checkpoint quantum.
RECOVERIES = ("none", "requeue", "requeue+checkpoint")


@dataclass(frozen=True)
class SchedulerConfig:
    """Scheduler knobs (all folded into the run fingerprint)."""

    backend: str = "flow"
    policy: str = "bwap"
    dwp: float = 0.8
    tick_s: float = 5.0
    worker_counts: Tuple[int, ...] = (1, 2)
    max_pending_per_tick: int = 8
    discipline: str = "best-rate"
    #: What happens to work a crash (or lost completion) interrupts.
    recovery: str = "requeue"
    #: Re-placements allowed per app beyond its first attempt.
    max_retries: int = 3
    #: Base of the exponential requeue backoff: attempt ``a``'s failure
    #: delays re-eligibility by ``retry_backoff_s * 2**(a-1)``.
    retry_backoff_s: float = 20.0
    #: Progress-checkpoint granularity (fraction of the app's work);
    #: ``"requeue+checkpoint"`` resumes from the last completed quantum.
    checkpoint_quantum: float = 0.25
    #: SLO deadline multiplier: an app meets its SLO when it finishes
    #: within ``slo_slowdown`` times its fault-free ideal duration.
    slo_slowdown: float = 4.0
    #: Circuit-breaker cooldown after a restart (doubles per crash of the
    #: same machine); 0 disables the breaker.
    breaker_cooldown_s: float = 60.0

    def __post_init__(self) -> None:
        # Comparisons are written so that NaN fails them.
        if not 0 < self.tick_s < math.inf:
            raise ValueError(f"tick_s must be positive and finite, got {self.tick_s}")
        wc = self.worker_counts
        if (
            not isinstance(wc, tuple)
            or not wc
            or any(type(k) is not int or k <= 0 for k in wc)
            or len(set(wc)) != len(wc)
        ):
            raise ValueError(
                "worker_counts must be a non-empty tuple of unique positive "
                f"ints, got {wc!r}"
            )
        if type(self.max_pending_per_tick) is not int or self.max_pending_per_tick <= 0:
            raise ValueError(
                "max_pending_per_tick must be a positive int, "
                f"got {self.max_pending_per_tick!r}"
            )
        if self.discipline not in DISCIPLINES:
            raise ValueError(
                f"unknown discipline {self.discipline!r}; use {DISCIPLINES}"
            )
        if not 0 <= self.dwp <= 1:
            raise ValueError(f"dwp must be in [0, 1], got {self.dwp}")
        if self.recovery not in RECOVERIES:
            raise ValueError(f"unknown recovery {self.recovery!r}; use {RECOVERIES}")
        if type(self.max_retries) is not int or self.max_retries < 0:
            raise ValueError(
                f"max_retries must be a non-negative int, got {self.max_retries!r}"
            )
        if not self.retry_backoff_s >= 0:
            raise ValueError(
                f"retry_backoff_s must be non-negative, got {self.retry_backoff_s}"
            )
        if not 0 < self.checkpoint_quantum <= 1:
            raise ValueError(
                f"checkpoint_quantum must be in (0, 1], got {self.checkpoint_quantum}"
            )
        if not self.slo_slowdown >= 1:
            raise ValueError(f"slo_slowdown must be >= 1, got {self.slo_slowdown}")
        if not self.breaker_cooldown_s >= 0:
            raise ValueError(
                f"breaker_cooldown_s must be non-negative, got {self.breaker_cooldown_s}"
            )


@dataclass
class FleetResult:
    """Everything a fleet run produced, in deterministic order."""

    #: Admission decisions in decision order: ``(app_id, mid, workers)``.
    #: Requeued apps appear once per placement attempt.
    placements: PlacementsView
    #: :class:`~repro.fleet.backend.FleetCompletion` records sorted by
    #: ``(finish_s, app_id)``.
    completions: CompletionsView
    arrivals: int
    placed: int
    pending_left: int
    ticks: int
    #: Solver invocations: ticks that met a never-solved state cell.
    solver_calls: int
    #: Candidate entries actually solved: distinct ``(state, kind, slot)``
    #: cells, each once per run.
    entries_scored: int
    end_time: float
    utilization: Dict[int, float]
    machine_class: Dict[int, str]
    # ---- fault-tolerance accounting (zeros on a fault-free run) ------- #
    #: Apps put back in the queue after a crash eviction or a lost
    #: completion report.
    requeues: int = 0
    #: Apps abandoned: recovery disabled, or the retry budget exhausted.
    stranded: int = 0
    #: Placement decisions bounced by the lossy admission path.
    admission_rejections: int = 0
    #: Completion reports that were lost (the work had to be redone).
    completions_lost: int = 0
    #: Work performed and then discarded (crash progress below the last
    #: checkpoint, rerun work after lost completions, stranded progress).
    lost_work_bytes: float = 0.0
    #: Completions that missed their SLO deadline.
    slo_violations: int = 0
    #: Total work submitted by the arrivals that entered the system.
    arrived_work_bytes: float = 0.0
    #: Total original work of the apps that completed (goodput numerator:
    #: checkpoint-resumed attempts still credit the full app).
    completed_work_bytes: float = 0.0
    #: ``1 - sum(downtime) / (machines * end_time)``.
    availability: float = 1.0
    #: Seconds each machine spent crashed within ``[0, end_time]``.
    machine_downtime: Dict[int, float] = field(default_factory=dict)
    # ---- state-table observability ------------------------------------ #
    #: Candidate scores read from the state table instead of solved.
    #: ``memo_hits + entries_scored`` counts every fitting slot of every
    #: eligible machine visited, per kind of each tick's batch.
    memo_hits: int = 0
    #: Always 0: the tick no longer prunes candidates. Kept
    #: because the repo benchmark's fleet case reads the field.
    bound_pruned: int = 0


class _Pend:
    """One pending (or requeued) arrival awaiting placement."""

    __slots__ = ("idx", "eligible_s", "attempts", "resume_frac", "done")

    def __init__(self, idx: int, eligible_s: float):
        self.idx = idx
        self.eligible_s = eligible_s
        #: Placements so far (0 while never placed).
        self.attempts = 0
        #: Checkpointed fraction of the original work already banked.
        self.resume_frac = 0.0
        #: Retired from the pending queue (admitted); awaiting compaction.
        self.done = False


class _PendQueue:
    """Order-preserving pending queue with O(1) amortised retirement.

    A saturated trace keeps hundreds of thousands of arrivals pending,
    and ``list.remove`` on every admit is O(queue) — the backlog shift
    alone dominated million-arrival runs. Admits instead flag the record
    ``done`` and the queue compacts lazily: leading retired records are
    skipped, and released, by advancing a head pointer (admits
    overwhelmingly retire from the front of the queue, where the tick
    batches come from), and the backing list is compacted once retired
    records dominate it. A requeue appends a fresh record and leaves the
    retired one where it is. Visible order — arrivals and requeues
    append, retired records disappear — is exactly that of the plain
    list this replaces, so every tick sees the batches the plain list
    gave.
    """

    __slots__ = ("_items", "_head", "_retired")

    def __init__(self) -> None:
        self._items: List[Optional[_Pend]] = []
        self._head = 0  # leading retired records already skipped
        self._retired = 0  # retired records at index >= _head

    def __len__(self) -> int:
        return len(self._items) - self._head - self._retired

    def append(self, rec: _Pend) -> None:
        if rec.done:
            # A requeued record still occupies its retired slot: queue a
            # fresh copy at the tail instead.
            fresh = _Pend(rec.idx, rec.eligible_s)
            fresh.attempts = rec.attempts
            fresh.resume_frac = rec.resume_frac
            rec = fresh
        self._items.append(rec)

    def retire(self, rec: _Pend) -> None:
        rec.done = True
        self._retired += 1

    def _compact(self) -> None:
        self._items = [r for r in self._items[self._head :] if not r.done]
        self._head = 0
        self._retired = 0

    def batch(self, limit: int, now: Optional[float] = None) -> List[_Pend]:
        """First ``limit`` live records, optionally only those eligible
        at ``now`` — the same records ``pending[:limit]`` (or the
        eligibility-filtered slice) used to yield."""
        items = self._items
        h = self._head
        n = len(items)
        while h < n and items[h].done:
            items[h] = None  # release the retired record
            h += 1
            self._retired -= 1
        self._head = h
        dead = h + self._retired
        if dead > 1024 and dead * 2 >= n:
            self._compact()
            items = self._items
        out: List[_Pend] = []
        for idx in range(self._head, len(items)):
            r = items[idx]
            if r.done or (now is not None and r.eligible_s > now):
                continue
            out.append(r)
            if len(out) >= limit:
                break
        return out


class FleetScheduler:
    """Admits a trace onto a fleet of machine backends."""

    def __init__(
        self,
        fleet: Sequence[FleetNode],
        trace: ArrivalTrace,
        config: SchedulerConfig = SchedulerConfig(),
        *,
        seed: int = 42,
        faults=None,
    ):
        self.fleet = list(fleet)
        for idx, node in enumerate(self.fleet):
            if node.mid != idx:
                raise ValueError(f"fleet node {idx} has mid {node.mid}")
        self.trace = trace
        self.config = config
        self.injector = as_fleet_injector(faults, num_machines=len(self.fleet))
        # ---- scoring state --------------------------------------------- #
        #: Candidate ``(rows, live rows, threads)`` templates keyed by
        #: (machine identity, workers, arrival kind): rows of the machine
        #: class's shared :func:`~repro.memsim.consumer_rows`, one per
        #: worker, and the non-idle subset a solve reads. Consumers depend
        #: on the workload only through fields ``work_scale`` never
        #: touches, so one template serves every arrival of a kind across
        #: ticks and same-class machines — for scoring and the
        #: fluid admit path.
        self._cand_cache: Dict[Tuple[int, Tuple[int, ...], int], tuple] = {}
        #: Each machine's scoring state, refreshed when its version or
        #: capacity-scale key moves, and the version and scale-key id it
        #: was read at.
        m = len(self.fleet)
        ks = config.worker_counts
        self._mver = np.full(m, -1, dtype=np.int64)
        self._msid = np.full(m, -1, dtype=np.int64)
        self._mstate = np.zeros(m, dtype=np.int64)
        #: Small-int ids of capacity-scale keys.
        self._scale_ids: Dict[Optional[tuple], int] = {None: 0}
        #: Scoring-state ids of ``(machine identity, backend state id,
        #: scale-key id)``, and per id what a candidate solve on it reads:
        #: ``(backend, backend state id, worker set per slot, capacity
        #: scale)`` — the backend is the first that reached the state;
        #: same-class machines build identical candidate templates.
        self._state_ids: Dict[tuple, int] = {}
        self._states: List[tuple] = []
        #: Candidate scores per ``(slot, kind, state)``: the solver's float
        #: for that input, NaN while never solved or where the slot does
        #: not fit; and per state its free-node count. Both grow along
        #: the state axis.
        self._rows = np.full((len(ks), len(trace.catalog), 64), np.nan)
        self._st_free = np.zeros(64, dtype=np.int64)
        #: Slot worker counts, and the slots in ascending-count order.
        self._ks = np.array(ks, dtype=np.int64)
        self._by_k = np.argsort(self._ks, kind="stable").tolist()
        #: :meth:`_fault_state` of the current fault-window edge interval.
        self._fault_view: Optional[tuple] = None
        #: Set by :meth:`run`: a scheduler runs its trace once.
        self._ran = False
        self.backends: List[MachineBackend] = [
            make_backend(
                config.backend,
                node.mid,
                node.class_name,
                node.machine,
                policy=config.policy,
                dwp=config.dwp,
                seed=machine_seed(seed, node.mid),
                slo_slowdown=config.slo_slowdown,
                # The full-fidelity backend degrades inside its own
                # simulator (per-link fault windows); the fluid backend
                # degrades through per-advance capacity scales instead.
                sim_faults=(
                    self.injector.sim_fault_plan(node.mid, node.machine)
                    if self.injector is not None and config.backend == "sim"
                    else None
                ),
            )
            for node in self.fleet
        ]
        #: Each backend's ``state_version`` and residency, kept current by the scheduler.
        self._ver = np.array([b.state_version for b in self.backends], dtype=np.int64)
        self._busy = np.zeros(m, dtype=bool)

    # ------------------------------------------------------------------ #
    # State-keyed scoring
    # ------------------------------------------------------------------ #

    def _cand_template(self, backend: MachineBackend, workers, kind: int):
        """Memoised :meth:`MachineBackend.candidate_rows` template of
        (machine, workers, kind). Exact across arrivals of a kind:
        per-arrival work scaling touches only ``work_bytes``, which the
        construction never reads."""
        key = (id(backend.machine), workers, kind)
        tpl = self._cand_cache.get(key)
        if tpl is None:
            tpl = self._cand_cache[key] = backend.candidate_rows(
                self.trace.catalog[kind], workers
            )
        return tpl

    def _slot_row(self, b: MachineBackend) -> tuple:
        """``(worker set per slot, free-node count)`` of machine ``b`` in
        its current state; a slot that does not fit has worker set
        ``None`` (worker picks are memoised per machine)."""
        occupied = b.occupied_nodes()
        free_len = b.machine.num_nodes - len(occupied)
        return tuple(
            pick_worker_nodes(b.machine, k, exclude=occupied) if k <= free_len else None
            for k in self.config.worker_counts
        ), free_len

    def _refresh_machines(self, stale, ver, sid, scales) -> None:
        """Look up the scoring state of every machine in ``stale`` from its
        backend's state id and scale-key id, and re-derive its slot state
        from it."""
        mids = np.flatnonzero(stale)
        if not len(mids):
            return
        ids = self._state_ids
        backends = self.backends
        sts = []
        for mid, scale_id in zip(mids.tolist(), sid[mids].tolist()):
            b = backends[mid]
            key = (id(b.machine), b.state_id, scale_id)
            st = ids.get(key)
            if st is None:
                st = self._new_state(key, b, scales.get(mid))
            sts.append(st)
        self._mstate[mids] = sts
        self._mver[mids] = ver[mids]
        self._msid[mids] = sid[mids]

    def _new_state(self, key: tuple, b: MachineBackend, scale) -> int:
        """Intern scoring state ``key``, first reached by backend ``b``."""
        st = self._state_ids[key] = len(self._states)
        workers, free_len = self._slot_row(b)
        self._states.append((b, key[1], workers, scale))
        if st == len(self._st_free):
            grown = np.full(self._rows.shape[:2] + (2 * st,), np.nan)
            grown[:, :, :st] = self._rows
            self._rows = grown
            self._st_free = np.concatenate([self._st_free, np.zeros_like(self._st_free)])
        self._st_free[st] = free_len
        return st

    def _admit(
        self, r: _Pend, b: MachineBackend, workers, now, records, pending, inflight,
        template=None,
    ) -> None:
        """Start pending record ``r`` on ``workers`` of machine ``b`` at
        fleet time ``now``."""
        trace = self.trace
        p = r.idx
        app_id = trace.app_id(p)
        r.attempts += 1
        mid = b.mid
        if not self._busy[mid]:
            b.advance(now)  # idle: pins the machine's clock to the fleet's
        b.admit(
            app_id,
            trace.catalog[int(trace.kind_idx[p])],
            workers,
            float(trace.times[p]),
            idx=p,
            work_bytes=trace.work_bytes(p),
            resume_frac=r.resume_frac,
            attempts=r.attempts,
            template=template,
        )
        self._ver[mid] = b.state_version
        self._busy[mid] = True
        records.place(p, mid, workers)
        pending.retire(r)
        if self.injector is not None:
            inflight[app_id] = r

    def _summary(self, score: np.ndarray):
        """Per ``(kind, machine)`` best score, its slot, and the number of
        scored slots. Within a machine the rank key orders by score, then
        toward smaller k: slots are scanned by ascending k and only a
        strictly larger score replaces the incumbent."""
        known = ~np.isnan(score)
        filled = np.where(known, score, -np.inf)
        first, *rest = self._by_k
        best = filled[first]
        slot = np.full(best.shape, first)
        for s in rest:
            better = filled[s] > best
            best = np.where(better, filled[s], best)
            slot = np.where(better, s, slot)
        return best, slot, known.sum(axis=0)

    def _ranked(self, best: np.ndarray, hits: np.ndarray, elig: np.ndarray):
        """``(kind position, mid)`` of every eligible machine with a
        scored slot, grouped by kind, each group in descending
        rank key of the machine's best slot (keys never tie across
        machines, so ``mid`` alone breaks score ties)."""
        kk, mm = np.nonzero((hits > 0) & elig)
        cols = (mm, -best[kk, mm])
        if self.config.discipline == "least-loaded":
            cols += (-self._st_free[self._mstate[mm]],)
        order = np.lexsort(cols + (kk,))
        return kk[order], mm[order]

    def _fault_state(self, now: float):
        """``(capacity scales, crashed flag array, scale-key ids)`` per
        machine at ``now``. Crash and brown-out windows only change at
        window edges, so the view is rebuilt once per edge interval."""
        injector = self.injector
        edge = injector.next_edge_after(now)
        view = self._fault_view
        if view is None or view[0] != edge:
            ids = self._scale_ids
            backends = self.backends
            keys = [injector.scale_key_for(b.mid, now) for b in backends]
            view = self._fault_view = (
                edge,
                {b.mid: injector.capacity_scale_for(b.mid, b.machine, now) for b in backends},
                np.array([injector.crashed_at(b.mid, now) for b in backends], dtype=bool),
                np.array([ids.setdefault(key, len(ids)) for key in keys]),
            )
        return view[1:]

    def _tick(
        self, batch, scales, now, health, records, pending, inflight, counts
    ) -> None:
        """One tick of the state-keyed decision procedure.

        Replays the exhaustive greedy exactly: apps are processed in
        arrival order, and each app takes the first-max rank-key
        candidate over the unclaimed machines, with the same float
        scores. Unclaimed machines' occupancy never mutates mid-tick, and
        a claim removes the whole machine, so ranking each machine by its
        best slot alone is exact.
        """
        injector = self.injector
        kind_idx = self.trace.kind_idx
        backends = self.backends
        m = len(backends)
        # --- Hoisted per-tick machine state ------------------------------
        ver = self._ver
        if injector is None:
            elig = np.ones(m, dtype=bool)
            sid = np.zeros(m, dtype=np.int64)
        else:
            _scales, crashed, sid = self._fault_state(now)
            elig = ~crashed & (now >= health.blocked_until)
        self._refresh_machines(
            elig & ((ver != self._mver) | (sid != self._msid)), ver, sid, scales
        )
        # Scores depend on an arrival only through its kind, so one row
        # per (distinct kind, machine) covers every app in the batch.
        first_p: Dict[int, int] = {}
        for r in batch:
            first_p.setdefault(int(kind_idx[r.idx]), r.idx)
        nk = len(first_p)
        if self.config.discipline == "first-fit":
            # first-fit ranks on (-mid, -k) alone: every machine that fits
            # the smallest worker count ties on score — zero solver work.
            s_min = self._by_k[0]
            best = np.zeros((nk, m))
            slot = np.full((nk, m), s_min)
            hits = np.broadcast_to(self._ks[s_min] <= self._st_free[self._mstate], (nk, m))
        else:
            best, slot, hits = self._score_kinds(first_p, elig, counts)

        # --- Sequential admission over each kind's ranking ---------------
        # The first unclaimed machine in a kind's order carries the
        # exhaustive scan's first-max. Claims only grow within a tick, so
        # each kind's cursor only moves forward.
        kk, mm = self._ranked(best, hits, elig)
        bounds = np.searchsorted(kk, np.arange(nk + 1)).tolist()
        orders = [mm[bounds[j] : bounds[j + 1]].tolist() for j in range(nk)]
        pos = {kind: j for j, kind in enumerate(first_p)}
        cursor = [0] * nk
        claimed = [False] * m
        for r in batch:
            kind = int(kind_idx[r.idx])
            j = pos[kind]
            order = orders[j]
            c = cursor[j]
            while c < len(order) and claimed[order[c]]:
                c += 1
            cursor[j] = c
            if c == len(order):
                continue  # no feasible machine this tick
            if injector is not None and injector.admission_rejected():
                counts["admission_rejections"] += 1
                continue  # stays pending; retried next tick
            mid = order[c]
            b = backends[mid]
            workers = self._states[self._mstate[mid]][2][slot[j, mid]]
            template = self._cand_template(b, workers, kind)
            self._admit(r, b, workers, now, records, pending, inflight, template)
            claimed[mid] = True

    def _score_kinds(self, first_p, elig, counts):
        """Gather the batch kinds' scores from each machine's state row,
        solve the never-seen cells in ONE batch, and return the summary of
        :meth:`_summary` over ``(kind position, machine)``."""
        kinds = np.array(list(first_p))
        score = self._rows[:, kinds[:, None], self._mstate]
        fits = (self._ks[:, None] <= self._st_free[self._mstate]) & elig
        cold = np.isnan(score) & fits[:, None]
        # Every fitting slot of an eligible machine is read or solved.
        visits = len(kinds) * int(fits.sum())
        if cold.any():
            # Cells in (slot, kind, state) order; machines in one state
            # share a cell, so each is solved once. A solve entry is the
            # state's resident rows, then the candidate's; its score is
            # the sum of those trailing slots, which depends on nothing
            # else (batch entries are independent).
            s_, a, b_ = np.nonzero(cold)
            cells = np.ravel_multi_index(
                (s_, kinds[a], self._mstate[b_]), self._rows.shape
            )
            cells, first, inverse = np.unique(cells, return_index=True, return_inverse=True)
            entries, tails, entry_scales, admits = [], [], [], []
            for i in first.tolist():
                kind = int(kinds[a[i]])
                b, sid, workers, scale = self._states[self._mstate[b_[i]]]
                live = tuple(self._cand_template(b, workers[s_[i]], kind)[1])
                entries.append((b.machine, b.states.rows[sid] + live))
                tails.append(len(live))
                entry_scales.append(scale)
                admits.append((b.states, sid, live, workers[s_[i]]))
            batch = solve_batch_fleet_lazy(
                entries,
                capacity_scales=entry_scales if self.injector is not None else None,
            )
            # A score is the sum of the candidate's trailing slot rates in
            # slot order: bitwise its app's total rate in a lone solve.
            solved = np.array([sum(r[len(r) - k :], 0.0) for r, k in zip(batch, tails)])
            # An entry is the resident set its candidate's admission would
            # leave: its rates are what the fluid backend reads there.
            for (states, sid, live, workers), scale, rates in zip(admits, entry_scales, batch):
                key = (states.admitted(sid, live, workers), states.scale_id(scale))
                states.rates.setdefault(key, rates)
            self._rows.flat[cells] = solved
            score[cold] = solved[inverse.ravel()]
            counts["entries_scored"] += len(entries)
            counts["solver_calls"] += 1
            visits -= len(entries)
        counts["memo_hits"] += visits
        return self._summary(score)

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def run(self, max_time: float = 1_000_000.0) -> FleetResult:
        if not max_time > 0:  # NaN included; inf drains every arrival
            raise ValueError(f"max_time must be positive, got {max_time}")
        if self._ran:
            raise RuntimeError("FleetScheduler.run() runs once; build a new scheduler")
        self._ran = True
        cfg = self.config
        injector = self.injector
        backends = self.backends
        ver, busy = self._ver, self._busy
        health = HealthTracker(cfg.breaker_cooldown_s, len(backends)) if injector else None
        times = self.trace.times
        n = len(self.trace)
        i = 0  # next arrival index
        now = 0.0
        pending = _PendQueue()
        records = FleetRecords(
            self.trace, [node.class_name for node in self.fleet], cfg.slo_slowdown
        )
        for b in backends:
            b.records = records
        ticks = 0
        requeues = 0
        stranded = 0
        completions_lost = 0
        lost_work_bytes = 0.0
        #: Pending records of the currently running attempts (injector
        #: runs only — fault-free runs never need to find them again).
        inflight: Dict[str, _Pend] = {}
        last_fault_t = -math.inf
        hb = Heartbeat(n, label="fleet")
        #: Tick counters.
        counts = dict.fromkeys(
            ("solver_calls", "entries_scored", "memo_hits", "admission_rejections"), 0
        )

        def requeue_or_strand(rec: _Pend, total_frac: float) -> None:
            """Decide the fate of interrupted work under the recovery
            policy; ``total_frac`` is the overall progress the app had
            banked when the fault hit."""
            nonlocal requeues, stranded, lost_work_bytes
            work_bytes = self.trace.work_bytes(rec.idx)
            if cfg.recovery == "none" or rec.attempts > cfg.max_retries:
                stranded += 1
                lost_work_bytes += total_frac * work_bytes
                return
            new_resume = 0.0
            if cfg.recovery == "requeue+checkpoint":
                q = cfg.checkpoint_quantum
                # Resume from the last completed quantum, but always
                # strictly below 1: a lost completion redoes at least its
                # final quantum.
                new_resume = min(
                    max(rec.resume_frac, math.floor(total_frac / q) * q),
                    math.floor((1.0 - 1e-12) / q) * q,
                )
            lost_work_bytes += max(0.0, total_frac - new_resume) * work_bytes
            rec.resume_frac = new_resume
            rec.eligible_s = now + cfg.retry_backoff_s * 2.0 ** (rec.attempts - 1)
            requeues += 1
            pending.append(rec)

        while now < max_time:
            while i < n and float(times[i]) <= now:
                pending.append(_Pend(i, float(times[i])))
                i += 1

            # --- Crash onsets reached by the last advance ----------------
            # Advances clamp at fault-window edges, so every crash start
            # in (last_fault_t, now] happened exactly at the current clock
            # and the backends' state is the pre-crash state at that time.
            if injector is not None:
                for _start, mid, end in injector.crash_starts_in(last_fault_t, now):
                    b = backends[mid]
                    health.record_crash(mid, end)
                    for app_id, attempt_frac in b.evict_all():
                        rec = inflight.pop(app_id)
                        total_frac = (
                            rec.resume_frac + (1.0 - rec.resume_frac) * attempt_frac
                        )
                        requeue_or_strand(rec, total_frac)
                    ver[mid] = b.state_version
                    busy[mid] = False
                last_fault_t = now

            # Capacity multipliers for this instant; the advance below is
            # clamped at window edges, so they hold for its whole span.
            scales = {} if injector is None else self._fault_state(now)[0]

            # Requeued apps wait out their backoff (fault runs only).
            batch = pending.batch(cfg.max_pending_per_tick, None if injector is None else now)
            if batch:
                ticks += 1
                self._tick(batch, scales, now, health, records, pending, inflight, counts)

            # --- Advance the fleet clock ---------------------------------
            live = busy.any()
            if pending:
                next_time = now + cfg.tick_s
            elif i < n:
                # Idle gap: jump straight to the tick holding the arrival.
                gap = max(1.0, math.ceil((float(times[i]) - now) / cfg.tick_s))
                next_time = now + cfg.tick_s * gap
            elif live:
                next_time = max_time  # drain the running apps
            else:
                break
            next_time = min(next_time, max_time)
            if injector is not None:
                # Never integrate across a fault-window edge: stop there,
                # process the crash / new scale set, then continue.
                edge = injector.next_edge_after(now)
                if edge is not None and edge < next_time:
                    next_time = edge
            if next_time <= now:
                break
            advanced = np.flatnonzero(busy).tolist()
            done = records.done
            for mid in advanced:
                b = backends[mid]
                if injector is not None:
                    b.set_capacity_scale(scales.get(mid))
                b.advance(next_time)
                ver[mid] = b.state_version
                busy[mid] = b.num_live > 0
            now = next_time

            # --- Lost completion reports ---------------------------------
            # Only advanced machines finish apps, and they record in
            # ascending mid order: the step's new records are in draw order.
            if injector is not None and records.done > done:
                kept = []
                for k, p in enumerate(records.idx[done : records.done].tolist(), done):
                    app_id = self.trace.app_id(p)
                    rec = inflight.pop(app_id)
                    if injector.completion_lost():
                        completions_lost += 1
                        b = backends[int(records.mid[k])]
                        b.forget_app(app_id)
                        ver[b.mid] = b.state_version  # forget_app may bump it
                        # The attempt ran to the end; only the report was lost.
                        requeue_or_strand(rec, 1.0)
                    else:
                        kept.append(k)
                records.keep(done, kept)

            if hb.enabled:
                hb.beat(records.done, force=False)

        records.seal()
        completed = records.done
        if hb.enabled:
            hb.beat(completed, force=True)
        end_time = now
        drained = not pending and i >= n and not busy.any()
        if drained and completed:
            # All work finished before the horizon: measure utilisation
            # over the span that actually saw activity.
            end_time = float(records.finish_s.max())
        machine_downtime: Dict[int, float] = {}
        availability = 1.0
        if injector is not None and end_time > 0:
            machine_downtime = {
                b.mid: injector.downtime_in(b.mid, end_time) for b in self.backends
            }
            availability = 1.0 - sum(machine_downtime.values()) / (
                len(self.backends) * end_time
            )
        return FleetResult(
            placements=PlacementsView(records),
            completions=CompletionsView(records),
            arrivals=n,
            placed=records.placed,
            pending_left=len(pending),
            ticks=ticks,
            solver_calls=counts["solver_calls"],
            entries_scored=counts["entries_scored"],
            end_time=end_time,
            utilization={b.mid: b.utilization(end_time) for b in self.backends},
            machine_class={node.mid: node.class_name for node in self.fleet},
            requeues=requeues,
            stranded=stranded,
            admission_rejections=counts["admission_rejections"],
            completions_lost=completions_lost,
            lost_work_bytes=lost_work_bytes,
            slo_violations=int(np.count_nonzero(~records.slo_ok)),
            # Both exactly rounded, so goodput is exactly 1.0 when every
            # arrival completed, whatever the completion order.
            arrived_work_bytes=math.fsum(self.trace.work_bytes_of(slice(0, i)).tolist()),
            completed_work_bytes=math.fsum(self.trace.work_bytes_of(records.idx).tolist()),
            availability=availability,
            machine_downtime=machine_downtime,
            memo_hits=counts["memo_hits"],
        )
