"""Trace-driven fleet scheduler.

Each scheduling tick admits a batch of pending arrivals. Every app ranks
its feasible (machine x worker-set) candidates by the discipline's rank
key and takes the first maximum; machines claimed earlier in the tick
are skipped. Three scoring modes run this same decision procedure and
produce byte-for-byte the same placements, completions, and metrics:

``"batched"``
    Scores every candidate in a **single**
    :func:`repro.memsim.solve_batch_fleet_lazy` call per tick.
``"scalar"``
    One :func:`repro.memsim.solve` per candidate (the batched solver is
    bitwise-identical to it).
``"incremental"``
    Scores by machine *state*. Each machine is interned, whenever its
    version or capacity scale moves, as the state ``(machine identity,
    resident rows, occupied nodes, capacity-scale key)`` — everything a
    candidate solve on it reads — and a growing table holds one float per
    ``(state, arrival kind, worker-count slot)`` cell. A tick gathers its
    kinds' scores from each machine's current state and solves the cells
    the run has never seen, each once, in one
    :func:`repro.memsim.solve_batch_fleet_lazy` call. Candidates are
    shared rows of :func:`repro.memsim.consumer_rows`, solved after the
    state's resident rows without building a ``Consumer``.

No mode hands allocations to the backends: the fluid backend solves its
own resident set at each advance, through a version-keyed slot and a
rename-canonical cache that replay the floats a scoring solve produced.

Between ticks the fleet skips idle spans in one jump, so sparse traces
cost time proportional to events, not to simulated seconds.

Fault tolerance (``faults=`` / :mod:`repro.fleet.faults`): the scheduler
evicts the residents of crashing machines and requeues them with bounded
exponential backoff (``"requeue+checkpoint"`` resumes from the last
completed progress quantum), skips crashed and circuit-breaker-blocked
machines, re-scores degraded machines with scaled link capacities, and
draws admission rejections and lost completions in decision order so
every scoring mode sees identical faults. ``faults=None`` leaves the
fault-free run byte-for-byte what it was before the fault layer existed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fleet.backend import (
    FleetCompletion,
    MachineBackend,
    machine_seed,
    make_backend,
)
from repro.fleet.cluster import FleetNode
from repro.fleet.faults import HealthTracker, as_fleet_injector
from repro.memsim.contention import solve
from repro.memsim import solve_batch_fleet_lazy
from repro.engine.threads import pick_worker_nodes
from repro.experiments.common import Heartbeat
from repro.workloads.arrivals import ArrivalTrace

#: Scheduling disciplines: how a pending app ranks its feasible candidates.
DISCIPLINES = ("best-rate", "first-fit", "least-loaded")

#: Scoring modes: one fleet-batched solve per tick, one scalar solve per
#: candidate (the baseline the benchmark beats), or state-keyed score
#: rows solved once per run ("incremental") — all three byte-for-byte
#: identical.
SCORINGS = ("batched", "scalar", "incremental")

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
    scoring: str = "batched"
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
        if self.scoring not in SCORINGS:
            raise ValueError(f"unknown scoring {self.scoring!r}; use {SCORINGS}")
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
    placements: List[Tuple[str, int, Tuple[int, ...]]]
    #: Completions sorted by ``(finish_s, app_id)``.
    completions: List[FleetCompletion]
    arrivals: int
    placed: int
    pending_left: int
    ticks: int
    #: Solver invocations: ticks in batched mode, entries in scalar mode,
    #: ticks that met a never-solved state cell in incremental mode.
    solver_calls: int
    #: Candidate entries actually solved (incremental mode: distinct
    #: ``(state, kind, slot)`` cells, each once per run).
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
    # ---- incremental-scheduling observability (defaults on exhaustive
    # ---- runs, where every candidate is re-scored from scratch) ------- #
    #: Candidate scores read from the state table instead of solved.
    #: ``memo_hits + entries_scored`` counts every fitting slot of every
    #: eligible machine visited, per kind of each tick's batch.
    memo_hits: int = 0
    #: Always 0: the incremental tick no longer prunes candidates. Kept
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
    skipped by advancing a head pointer (admits overwhelmingly retire
    from the front of the queue, where the tick batches come from), and
    the backing list is compacted once retired records dominate it. A
    requeue appends a fresh record and leaves the retired one where it
    is. Visible order — arrivals and requeues append, retired records
    disappear — is exactly that of the plain list this replaces, so
    every scoring mode sees identical batches.
    """

    __slots__ = ("_items", "_head", "_retired")

    def __init__(self) -> None:
        self._items: List[_Pend] = []
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


def _trace_work_bytes(trace: ArrivalTrace, count: int) -> float:
    """Total ``work_bytes`` of the first ``count`` arrivals (vectorised)."""
    if count <= 0:
        return 0.0
    base = np.array([wl.work_bytes for wl in trace.catalog])
    return float(
        (base[np.asarray(trace.kind_idx[:count], dtype=int)] * trace.work_scale[:count]).sum()
    )


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
        # ---- scoring caches (mostly incremental-mode state) ------------ #
        #: Candidate ``(rows, live rows, threads)`` templates keyed by
        #: (machine identity, workers, arrival kind): rows of the machine
        #: class's shared :func:`~repro.memsim.consumer_rows`, one per
        #: worker, and the non-idle subset a solve reads. Consumers depend
        #: on the workload only through fields ``work_scale`` never
        #: touches, so one template serves every arrival of a kind across
        #: ticks and same-class machines — for scoring and the
        #: fluid admit path.
        self._cand_cache: Dict[Tuple[int, Tuple[int, ...], int], tuple] = {}
        #: Machine-level slot state, refreshed when a machine's version or
        #: capacity-scale key moves: the version and scale-key id it was
        #: derived at, its state id, the free-node count, and per
        #: ``worker_counts`` slot (leading axis) whether it fits and its
        #: worker set.
        m = len(self.fleet)
        ks = config.worker_counts
        self._mver = np.full(m, -1, dtype=np.int64)
        self._msid = np.full(m, -1, dtype=np.int64)
        self._mstate = np.zeros(m, dtype=np.int64)
        self._free_len = np.zeros(m, dtype=np.int64)
        self._fit = np.zeros((len(ks), m), dtype=bool)
        self._slots: List[Tuple[Optional[Tuple[int, ...]], ...]] = [() for _ in self.fleet]
        #: :meth:`_slot_row` per (machine identity, occupied nodes) —
        #: pure, shared across ticks and same-class machines.
        self._slot_cache: Dict[tuple, tuple] = {}
        #: Small-int ids of capacity-scale keys.
        self._scale_ids: Dict[Optional[tuple], int] = {None: 0}
        #: State ids of ``(machine identity, resident rows, occupied
        #: nodes, scale-key id)``, and per id what a candidate solve on it
        #: reads: ``(backend, resident rows, _slot_row, capacity scale)``
        #: — the backend is the first that reached the state; same-class
        #: machines build identical candidate templates.
        self._state_ids: Dict[tuple, int] = {}
        self._states: List[tuple] = []
        #: Candidate scores per ``(slot, kind, state)``: the solver's float
        #: for that input, NaN while never solved or where the slot does
        #: not fit. Grows along the state axis.
        self._rows = np.full((len(ks), len(trace.catalog), 64), np.nan)
        #: Slot worker counts, and the slots in ascending-count order.
        self._ks = np.array(ks, dtype=np.int64)
        self._by_k = np.argsort(self._ks, kind="stable").tolist()
        #: :meth:`_fault_state` of the current fault-window edge interval.
        self._fault_view: Optional[tuple] = None
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

    # ------------------------------------------------------------------ #
    # Candidate ranking
    # ------------------------------------------------------------------ #

    def _rank_key(self, backend: MachineBackend, score: float, k: int) -> tuple:
        """Larger key wins; ties break toward lower machine id, smaller k."""
        d = self.config.discipline
        if d == "best-rate":
            return (score, -backend.mid, -k)
        if d == "first-fit":
            return (-backend.mid, -k)
        # least-loaded: most free nodes first, then predicted rate.
        return (len(backend.free_nodes()), score, -backend.mid, -k)

    # ------------------------------------------------------------------ #
    # Incremental scoring
    # ------------------------------------------------------------------ #

    def _cand_template(self, backend: MachineBackend, workers, kind: int, p: int):
        """Memoised candidate ``(rows, live rows, threads)`` of (machine,
        workers, kind). Exact across arrivals of a kind: per-arrival work
        scaling touches only ``work_bytes``, which the construction never
        reads."""
        key = (id(backend.machine), workers, kind)
        tpl = self._cand_cache.get(key)
        if tpl is None:
            tpl = self._cand_cache[key] = backend.candidate_rows(
                self.trace.workload(p), workers
            )
        return tpl

    def _slot_row(self, b: MachineBackend) -> tuple:
        """``(worker set per slot, free-node count)`` of machine ``b`` in
        its current state; a slot that does not fit has worker set
        ``None``."""
        key = (id(b.machine), b.occupied_nodes())
        hit = self._slot_cache.get(key)
        if hit is None:
            free_len = len(b.free_nodes())
            hit = self._slot_cache[key] = (
                tuple(
                    pick_worker_nodes(b.machine, k, exclude=key[1]) if k <= free_len else None
                    for k in self.config.worker_counts
                ),
                free_len,
            )
        return hit

    def _refresh_machines(self, stale, ver, sid, scales) -> None:
        """Intern the current state of every machine in ``stale`` and
        re-derive its slot state from it."""
        mids = np.flatnonzero(stale).tolist()
        if not mids:
            return
        ids = self._state_ids
        states = self._states
        for mid in mids:
            b = self.backends[mid]
            res = tuple(b.resident_rows())
            key = (id(b.machine), res, b.occupied_nodes(), int(sid[mid]))
            st = ids.get(key)
            if st is None:
                st = ids[key] = len(states)
                states.append((b, res, self._slot_row(b), scales.get(mid)))
                if st == self._rows.shape[2]:
                    grown = np.full(self._rows.shape[:2] + (2 * st,), np.nan)
                    grown[:, :, :st] = self._rows
                    self._rows = grown
            self._mstate[mid] = st
            self._slots[mid], self._free_len[mid] = states[st][2]
        self._fit[:, mids] = self._ks[:, None] <= self._free_len[mids]
        self._mver[mids] = ver[mids]
        self._msid[mids] = sid[mids]

    def _admit(
        self, r: _Pend, b: MachineBackend, workers, placements, pending, inflight,
        template=None,
    ) -> None:
        """Start pending record ``r`` on ``workers`` of machine ``b``."""
        p = r.idx
        app_id = self.trace.app_id(p)
        r.attempts += 1
        b.admit(
            app_id,
            self.trace.workload(p),
            workers,
            float(self.trace.times[p]),
            resume_frac=r.resume_frac,
            attempts=r.attempts,
            template=template,
        )
        placements.append((app_id, b.mid, workers))
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
        ``_rank_key`` of the machine's best slot (keys never tie across
        machines, so ``mid`` alone breaks score ties)."""
        kk, mm = np.nonzero((hits > 0) & elig)
        cols = (mm, -best[kk, mm])
        if self.config.discipline == "least-loaded":
            cols += (-self._free_len[mm],)
        order = np.lexsort(cols + (kk,))
        return kk[order], mm[order]

    def _fault_state(self, now: float):
        """``(capacity scales, crashed flags, scale-key ids)`` per machine
        at ``now``. Crash and brown-out windows only change at window
        edges, so the view is rebuilt once per edge interval."""
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
                [injector.crashed_at(b.mid, now) for b in backends],
                np.array([ids.setdefault(key, len(ids)) for key in keys]),
            )
        return view[1:]

    def _tick_incremental(
        self, batch, scales, now, health, placements, pending, inflight, counts
    ) -> None:
        """One tick of the state-keyed decision procedure.

        Replays the exhaustive greedy exactly: apps are processed in
        arrival order, and each app takes the first-max ``_rank_key``
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
        ver = np.fromiter((b.state_version for b in backends), np.int64, m)
        if injector is None:
            elig = np.ones(m, dtype=bool)
            sid = np.zeros(m, dtype=np.int64)
        else:
            _scales, crashed, sid = self._fault_state(now)
            elig = np.array(
                [not down and health.allows(mid, now) for mid, down in enumerate(crashed)]
            )
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
            hits = np.broadcast_to(self._fit[s_min], (nk, m))
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
            workers = self._slots[mid][slot[j, mid]]
            template = self._cand_template(b, workers, kind, r.idx)
            self._admit(r, b, workers, placements, pending, inflight, template)
            claimed[mid] = True

    def _score_kinds(self, first_p, elig, counts):
        """Gather the batch kinds' scores from each machine's state row,
        solve the never-seen cells in ONE batch, and return the summary of
        :meth:`_summary` over ``(kind position, machine)``."""
        kinds = np.array(list(first_p))
        score = self._rows[:, kinds[:, None], self._mstate]
        fits = self._fit & elig
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
            entries, tails, entry_scales = [], [], []
            for i in first.tolist():
                kind = int(kinds[a[i]])
                b, res, (workers, _free), scale = self._states[self._mstate[b_[i]]]
                live = self._cand_template(b, workers[s_[i]], kind, first_p[kind])[1]
                entries.append((b.machine, res + tuple(live)))
                tails.append(len(live))
                entry_scales.append(scale)
            solved = np.array(
                solve_batch_fleet_lazy(
                    entries,
                    capacity_scales=entry_scales if self.injector is not None else None,
                ).tail_rates(tails)
            )
            self._rows.flat[cells] = solved
            score[cold] = solved[inverse.ravel()]
            counts["entries_scored"] += len(entries)
            counts["solver_calls"] += 1
            visits -= len(entries)
        counts["memo_hits"] += visits
        return self._summary(score)

    def _tick_exhaustive(
        self, batch, scales, now, health, placements, pending, inflight, counts
    ) -> None:
        """One tick of the exhaustive decision procedure (``"batched"`` /
        ``"scalar"`` scoring): every candidate re-solved from scratch."""
        injector = self.injector
        # --- Build the tick's entry list ---------------------------------
        entries: List[tuple] = []  # (machine, consumers)
        entry_scales: List[Optional[np.ndarray]] = []
        resident = {b.mid: b.resident_consumers() for b in self.backends if b.num_live}
        # Same-class machines with the same worker set produce identical
        # candidate consumers (weights, mixes, demands depend only on
        # machine/workers/workload), so construct each distinct set once
        # per tick and share the objects.
        cons_cache: Dict[Tuple[int, Tuple[int, ...], int], list] = {}
        cands: List[Tuple[_Pend, int, Tuple[int, ...], int]] = []
        for r in batch:
            p = r.idx
            app_id = self.trace.app_id(p)
            workload = self.trace.workload(p)
            for b in self.backends:
                if injector is not None and (
                    injector.crashed_at(b.mid, now) or not health.allows(b.mid, now)
                ):
                    continue
                for workers in self._slot_row(b)[0]:
                    if workers is None:
                        continue
                    key = (id(b.machine), workers, p)
                    consumers = cons_cache.get(key)
                    if consumers is None:
                        consumers = b.candidate_consumers(app_id, workload, workers)[0]
                        cons_cache[key] = consumers
                    cands.append((r, b.mid, workers, len(entries)))
                    entries.append((b.machine, resident.get(b.mid, []) + consumers))
                    entry_scales.append(scales.get(b.mid))

        # --- ONE vectorised solve for the whole tick ---------------------
        counts["entries_scored"] += len(entries)
        if self.config.scoring == "batched":
            # Lazy batch: scores come straight off the rate tensor.
            fb = solve_batch_fleet_lazy(
                entries, capacity_scales=entry_scales if injector is not None else None
            )
            counts["solver_calls"] += 1
            get_score = fb.app_total_rate
        else:
            allocs = [
                solve(m, cs, capacity_scale=sc) for (m, cs), sc in zip(entries, entry_scales)
            ]
            counts["solver_calls"] += len(entries)

            def get_score(row: int, aid: str) -> float:
                return allocs[row].app_total_rate(aid)

        # --- Greedy admissions in arrival order --------------------------
        claimed: set = set()
        for r in batch:
            p = r.idx
            app_id = self.trace.app_id(p)
            best = None
            for rr, mid, workers, row in cands:
                if rr is not r or mid in claimed:
                    continue
                score = get_score(row, app_id)
                key = self._rank_key(self.backends[mid], score, len(workers))
                if best is None or key > best[0]:
                    best = (key, mid, workers, row)
            if best is None:
                continue  # no feasible machine this tick
            if injector is not None and injector.admission_rejected():
                counts["admission_rejections"] += 1
                continue  # stays pending; retried next tick
            _key, mid, workers, _row = best
            self._admit(
                r, self.backends[mid], workers, placements, pending, inflight
            )
            claimed.add(mid)

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def run(self, max_time: float = 1_000_000.0) -> FleetResult:
        if not max_time > 0:  # NaN included; inf drains every arrival
            raise ValueError(f"max_time must be positive, got {max_time}")
        cfg = self.config
        injector = self.injector
        health = (
            HealthTracker(cfg.breaker_cooldown_s) if injector is not None else None
        )
        times = self.trace.times
        n = len(self.trace)
        i = 0  # next arrival index
        now = 0.0
        pending = _PendQueue()
        placements: List[Tuple[str, int, Tuple[int, ...]]] = []
        ticks = 0
        requeues = 0
        stranded = 0
        completions_lost = 0
        lost_work_bytes = 0.0
        #: Pending records of the currently running attempts (injector
        #: runs only — fault-free runs never need to find them again).
        inflight: Dict[str, _Pend] = {}
        seen_completions = [0] * len(self.backends)
        last_fault_t = -math.inf
        hb = Heartbeat(n, label="fleet")
        #: Tick counters (memo hits stay zero on exhaustive runs).
        counts = dict.fromkeys(
            ("solver_calls", "entries_scored", "memo_hits", "admission_rejections"), 0
        )

        def requeue_or_strand(rec: _Pend, total_frac: float) -> None:
            """Decide the fate of interrupted work under the recovery
            policy; ``total_frac`` is the overall progress the app had
            banked when the fault hit."""
            nonlocal requeues, stranded, lost_work_bytes
            work_bytes = self.trace.workload(rec.idx).work_bytes
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
                    b = self.backends[mid]
                    health.record_crash(mid, end)
                    for app_id, attempt_frac in b.evict_all():
                        rec = inflight.pop(app_id)
                        total_frac = (
                            rec.resume_frac + (1.0 - rec.resume_frac) * attempt_frac
                        )
                        requeue_or_strand(rec, total_frac)
                last_fault_t = now

            # Capacity multipliers for this instant; the advance below is
            # clamped at window edges, so they hold for its whole span.
            scales = {} if injector is None else self._fault_state(now)[0]

            # Requeued apps wait out their backoff (fault runs only).
            batch = pending.batch(cfg.max_pending_per_tick, None if injector is None else now)
            if batch:
                ticks += 1
                tick = (
                    self._tick_incremental
                    if cfg.scoring == "incremental"
                    else self._tick_exhaustive
                )
                tick(batch, scales, now, health, placements, pending, inflight, counts)

            # --- Advance the fleet clock ---------------------------------
            live = any(b.num_live for b in self.backends)
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
            for b in self.backends:
                if injector is not None:
                    b.set_capacity_scale(scales.get(b.mid))
                b.advance(next_time)
            now = next_time

            # --- Lost completion reports ---------------------------------
            if injector is not None:
                for b in self.backends:
                    start = seen_completions[b.mid]
                    if len(b.completions) == start:
                        continue
                    kept = []
                    for comp in b.completions[start:]:
                        rec = inflight.pop(comp.app_id)
                        if injector.completion_lost():
                            completions_lost += 1
                            b.forget_app(comp.app_id)
                            # The attempt ran to the end; only the report
                            # was lost.
                            requeue_or_strand(rec, 1.0)
                        else:
                            kept.append(comp)
                    b.completions[start:] = kept
                    seen_completions[b.mid] = len(b.completions)

            if hb.enabled:
                hb.beat(
                    sum(len(b.completions) for b in self.backends), force=False
                )

        completions: List[FleetCompletion] = []
        for b in self.backends:
            completions.extend(b.completions)
        completions.sort(key=lambda c: (c.finish_s, c.app_id))
        if hb.enabled:
            hb.beat(len(completions), force=True)
        end_time = now
        drained = not pending and i >= n and not any(b.num_live for b in self.backends)
        if drained and completions:
            # All work finished before the horizon: measure utilisation
            # over the span that actually saw activity.
            end_time = max(c.finish_s for c in completions)
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
            placements=placements,
            completions=completions,
            arrivals=n,
            placed=len(placements),
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
            slo_violations=sum(1 for c in completions if not c.slo_ok),
            arrived_work_bytes=_trace_work_bytes(self.trace, i),
            completed_work_bytes=sum(c.work_bytes for c in completions),
            availability=availability,
            machine_downtime=machine_downtime,
            memo_hits=counts["memo_hits"],
        )
