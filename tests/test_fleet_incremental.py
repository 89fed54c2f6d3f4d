"""Fleet scheduling over state-keyed score rows.

The load-bearing property: the state-keyed tick is a pure
execution-strategy change. Placements, completions, SLO accounting, and
utilisation are bitwise-identical to the exhaustive greedy of
``tests/oracle/exhaustive_tick.py`` (one scalar solve per candidate) —
across disciplines, under full-intensity chaos (including
capacity-scaling brown-outs), and on tie-heavy fleets of same-class
machines — because each ``(machine state, kind, slot)`` cell holds the
very float the solver produced for that cell's input. Test names keep
the retired scoring modes' names: "batched" and "scalar" name that
reference.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    FleetScheduler,
    MachineDegradation,
    SchedulerConfig,
    build_fleet,
    chaos_plan,
)
import repro.fleet.scheduler as scheduler_mod
from repro.fleet.backend import FleetRecords, FlowBackend, make_backend
from repro.fleet.scheduler import DISCIPLINES, _Pend, _PendQueue
from repro.topology import machine_a
from repro.workloads import TraceSpec, build_trace, trace_catalog

from tests.oracle.exhaustive_tick import OracleScheduler

_MIX = (("A", 2), ("B", 2), ("dual", 1), ("sym4", 1))


def _scheduler(cls=FleetScheduler, *, discipline="best-rate", faults=None,
               arrivals=40, rate=2.0, backend="flow", seed=11):
    fleet = build_fleet(_MIX)
    trace = build_trace(
        TraceSpec(kind="poisson", rate_per_s=rate, arrivals=arrivals, seed=7)
    )
    cfg = SchedulerConfig(backend=backend, discipline=discipline, tick_s=2.0)
    return cls(fleet, trace, cfg, seed=seed, faults=faults)


def _run(cls=FleetScheduler, **kwargs):
    return _scheduler(cls, **kwargs).run(1_000_000.0)


def _assert_identical(a, b):
    assert a.placements == b.placements
    assert a.completions == b.completions
    assert a.utilization == b.utilization
    assert a.end_time == b.end_time
    assert a.ticks == b.ticks
    assert a.requeues == b.requeues
    assert a.stranded == b.stranded
    assert a.admission_rejections == b.admission_rejections
    assert a.completions_lost == b.completions_lost
    assert a.lost_work_bytes == b.lost_work_bytes
    assert a.slo_violations == b.slo_violations
    assert a.availability == b.availability
    assert a.machine_downtime == b.machine_downtime


def _brownout_chaos():
    """Full chaos plus a brown-out of machine 0 over the first 20 s."""
    plan = chaos_plan(6, horizon_s=40.0, seed=3)
    deciding = MachineDegradation(0, 0.25, start_s=0.0, end_s=20.0)
    return dataclasses.replace(plan, degradations=plan.degradations + (deciding,))


class _ScaleBlindScheduler(FleetScheduler):
    """A deliberately wrong tick: scores every machine as if healthy."""

    def _refresh_machines(self, stale, ver, sid, scales):
        super()._refresh_machines(stale, ver, np.zeros_like(sid), {})


# --------------------------------------------------------------------- #
# Bitwise identity with the exhaustive reference
# --------------------------------------------------------------------- #


class TestIncrementalIdentity:
    @pytest.mark.parametrize(
        "discipline", ["best-rate", "first-fit", "least-loaded"]
    )
    def test_matches_batched_per_discipline(self, discipline):
        _assert_identical(
            _run(OracleScheduler, discipline=discipline),
            _run(discipline=discipline),
        )

    def test_matches_scalar(self):
        """Also on a denser trace: more ticks admit full batches."""
        _assert_identical(_run(OracleScheduler, rate=4.0), _run(rate=4.0))

    def test_matches_batched_under_chaos(self):
        """Full-intensity chaos: crashes, flaps, capacity-scaling
        brown-outs, lossy admission — every memo/bound/fresh path runs
        with per-machine capacity scales in play."""
        plan = chaos_plan(6, horizon_s=40.0, seed=3)
        assert any(d.capacity_scale < 1.0 for d in plan.degradations)
        _assert_identical(_run(OracleScheduler, faults=plan), _run(faults=plan))

    def test_matches_batched_under_deciding_brownout(self):
        """A brown-out that decides placements: machine 0 runs at a
        quarter of its link capacity while it would otherwise win its
        ties with machine 1, so a tick that scored it as healthy would
        place differently — the run must still equal the reference."""
        plan = _brownout_chaos()
        inc = _run(faults=plan)
        _assert_identical(_run(OracleScheduler, faults=plan), inc)
        assert _run(_ScaleBlindScheduler, faults=plan).placements != inc.placements

    def test_matches_batched_sim_backend(self):
        _assert_identical(
            _run(OracleScheduler, backend="sim", arrivals=8, rate=0.1),
            _run(backend="sim", arrivals=8, rate=0.1),
        )

    def test_replay_is_deterministic(self):
        """Two independent schedulers (cold memo vs cold memo) and the
        counters they report agree exactly."""
        a = _run()
        b = _run()
        _assert_identical(a, b)
        assert (a.memo_hits, a.entries_scored) == (b.memo_hits, b.entries_scored)


# --------------------------------------------------------------------- #
# Tie-heavy differential: same-class machines, several arrivals per kind
# --------------------------------------------------------------------- #

#: Eight identical machines per class: equal scores abound, so the
#: ``-mid``/``-k`` tail of the rank key decides most placements.
_TIE_MIX = (("sym4", 8), ("dual", 8))


def _tie_trace():
    # Two kinds at 6 arrivals/s: every full 8-app tick repeats a kind, so
    # a kind's later apps take machines below its best.
    return build_trace(
        TraceSpec(
            kind="poisson", rate_per_s=6.0, arrivals=120, seed=5,
            catalog="synthetic", catalog_size=2,
        )
    )


def _tie_run(cls, discipline, faults):
    cfg = SchedulerConfig(discipline=discipline, tick_s=2.0)
    return cls(build_fleet(_TIE_MIX), _tie_trace(), cfg, seed=3, faults=faults).run(
        1_000_000.0
    )


#: ``(memo_hits, entries_scored)`` on the tie-heavy runs. Each distinct
#: ``(state, kind, slot)`` cell is solved once per run; every other visit
#: reads the state table.
_TIE_COUNTS = {
    ("best-rate", False): (568, 32),
    ("best-rate", True): (594, 56),
    ("least-loaded", False): (624, 28),
    ("least-loaded", True): (668, 48),
    ("first-fit", False): (0, 0),
    ("first-fit", True): (0, 0),
}
#: ``memo_hits + entries_scored``: every fitting slot of every eligible
#: machine, per kind of each tick's batch — conserved however the table
#: splits it.
_TIE_SURVIVORS = {
    ("best-rate", False): 600,
    ("best-rate", True): 650,
    ("least-loaded", False): 652,
    ("least-loaded", True): 716,
    ("first-fit", False): 0,
    ("first-fit", True): 0,
}


class TestTieHeavy:
    @pytest.mark.parametrize("chaos", [False, True], ids=["clean", "chaos"])
    @pytest.mark.parametrize("discipline", DISCIPLINES)
    def test_matches_batched(self, discipline, chaos):
        plan = chaos_plan(16, horizon_s=40.0, seed=5) if chaos else None
        ref = _tie_run(OracleScheduler, discipline, plan)
        inc = _tie_run(FleetScheduler, discipline, plan)
        _assert_identical(ref, inc)
        # Some tick admitted two apps of one kind.
        kinds = _tie_trace().kind_idx
        per_tick = Counter(
            (c.placed_s, int(kinds[int(c.app_id[3:])])) for c in inc.completions
        )
        assert max(per_tick.values()) > 1
        assert (inc.memo_hits, inc.entries_scored) == _TIE_COUNTS[discipline, chaos]
        assert inc.memo_hits + inc.entries_scored == _TIE_SURVIVORS[discipline, chaos]


# --------------------------------------------------------------------- #
# State-keyed score rows: every held float is the solver's own
# --------------------------------------------------------------------- #


def _solve_input(machine, rows, scale):
    """What one solve entry reads: machine, rows, capacity-scale bytes."""
    return (id(machine), tuple(rows), None if scale is None else scale.tobytes())


def _recording_solver(monkeypatch):
    """Route the scheduler's batch solver through a recorder; returns the
    real solver and the list of every entry input it was asked to solve."""
    real = scheduler_mod.solve_batch_fleet_lazy
    solved = []

    def recording(entries, capacity_scales=None):
        scales = capacity_scales or [None] * len(entries)
        solved.extend(
            _solve_input(machine, rows, scale)
            for (machine, rows), scale in zip(entries, scales)
        )
        return real(entries, capacity_scales=capacity_scales)

    monkeypatch.setattr(scheduler_mod, "solve_batch_fleet_lazy", recording)
    return real, solved


def _chaos():
    return chaos_plan(6, horizon_s=40.0, seed=3)


class TestScoreMemo:
    @pytest.mark.parametrize("chaos", [False, True], ids=["clean", "chaos"])
    def test_every_score_is_a_fresh_solve(self, monkeypatch, chaos):
        """After each tick's scoring, every score an eligible machine's
        state row holds for the batch's kinds equals a fresh single-entry
        solve of that cell's *current* input (resident rows, candidate
        rows, capacity scale) bitwise, and that input was solved before."""
        real, solved = _recording_solver(monkeypatch)
        # Under chaos the trace is sparse and extra brown-outs open and
        # close on machines with free slots between their version bumps,
        # so a state must follow its machine's capacity scale alone.
        plan = None
        if chaos:
            plan = _chaos()
            extra = tuple(
                MachineDegradation(mid, 0.5, start_s=3.0 + 4 * mid, end_s=9.0 + 4 * mid)
                for mid in range(6)
            )
            plan = dataclasses.replace(plan, degradations=plan.degradations + extra)
        sched = _scheduler(faults=plan, rate=0.25 if chaos else 2.0)
        score_kinds = sched._score_kinds
        fresh = {}
        replays = 0

        def audited(first_p, elig, counts):
            nonlocal replays
            out = score_kinds(first_p, elig, counts)
            seen = set(solved)
            scales = sched._fault_view[1] if chaos else {}
            for kind in first_p:
                for mid in np.flatnonzero(elig).tolist():
                    b = sched.backends[mid]
                    for s, workers in enumerate(sched._states[sched._mstate[mid]][2]):
                        got = sched._rows[s, kind, sched._mstate[mid]]
                        if np.isnan(got):
                            assert workers is None
                            continue
                        live = sched._cand_template(b, workers, kind)[1]
                        rows = b.resident_rows() + live
                        scale = scales.get(mid)
                        key = _solve_input(b.machine, rows, scale)
                        assert key in seen
                        if key not in fresh:
                            (rates,) = real([(b.machine, rows)], capacity_scales=[scale])
                            fresh[key] = sum(rates[len(rows) - len(live) :], 0.0)
                        else:
                            replays += 1
                        assert float(got).hex() == fresh[key].hex()
            return out

        sched._score_kinds = audited
        sched.run(1_000_000.0)
        assert replays > 0
        assert len(fresh) > 0

    def test_no_input_is_solved_twice(self, monkeypatch):
        """Under chaos (crashes, brown-out scales, requeues), every solve
        input the run hands the solver is new to the run, and one cell
        per input is solved — while the run still reproduces the
        exhaustive reference run bitwise."""
        _real, solved = _recording_solver(monkeypatch)
        sched = _scheduler(faults=_chaos())
        inc = sched.run(1_000_000.0)
        assert solved and max(Counter(solved).values()) == 1
        assert inc.entries_scored == len(solved)
        assert inc.memo_hits > 0
        _assert_identical(_run(OracleScheduler, faults=_chaos()), inc)


class TestRankKeyHelpers:
    """The tick's vectorised key helpers agree with the reference's
    ``_rank_key`` tuple comparison, exact ties included: ``_summary`` picks each machine's
    best slot, and ``_ranked`` orders the machines below each kind."""

    @pytest.mark.parametrize("counts", [(1, 2), (2, 1), (1, 2, 4)])
    @pytest.mark.parametrize("discipline", ["best-rate", "least-loaded"])
    def test_summary_and_below(self, discipline, counts):
        cfg = SchedulerConfig(discipline=discipline, worker_counts=counts)
        sched = OracleScheduler(build_fleet(_TIE_MIX), _tie_trace(), cfg)
        backends = sched.backends
        wl = trace_catalog(TraceSpec())[0]
        for b in backends[::3]:  # vary the free-node counts
            b.admit(f"busy{b.mid}", wl, (0,), 0.0, idx=b.mid)
        m = len(backends)
        sched._refresh_machines(
            np.ones(m, dtype=bool),
            np.array([b.state_version for b in backends]),
            np.zeros(m, dtype=np.int64),
            {},
        )
        rng = np.random.default_rng(1)

        def key(mid, score, s):
            return sched._rank_key(backends[mid], float(score), counts[s])

        # Few distinct values, so equal scores across slots are common.
        score = rng.choice([np.nan, 1.0, 2.0], size=(len(counts), 2, m))
        best, slot, hits = sched._summary(score)
        for j in range(2):
            for mid in range(m):
                known = [s for s in range(len(counts)) if not np.isnan(score[s, j, mid])]
                assert hits[j, mid] == len(known)
                if known:
                    top = max(known, key=lambda s: key(mid, score[s, j, mid], s))
                    assert (best[j, mid], slot[j, mid]) == (score[top, j, mid], top)

        elig = rng.random(m) < 0.8
        kk, mm = sched._ranked(best, hits, elig)
        for j in range(2):
            listed = [mid for mid in range(m) if elig[mid] and hits[j, mid]]
            expect = sorted(
                listed, key=lambda mid: key(mid, best[j, mid], slot[j, mid]), reverse=True
            )
            assert mm[kk == j].tolist() == expect


# --------------------------------------------------------------------- #
# Counters and controls
# --------------------------------------------------------------------- #


class TestIncrementalCounters:
    def test_memo_and_pruning_cut_entries(self):
        batched = _run(OracleScheduler)
        inc = _run()
        assert inc.memo_hits > 0
        assert inc.bound_pruned == 0  # the tick prunes nothing
        assert inc.entries_scored < batched.entries_scored
        # At most one batch solve per tick, and solve-free ticks skip even
        # that.
        assert inc.solver_calls <= inc.ticks < batched.solver_calls

    def test_first_fit_needs_no_solver(self):
        inc = _run(discipline="first-fit")
        assert inc.solver_calls == 0
        assert inc.entries_scored == 0

    def test_exhaustive_modes_report_neutral_counters(self):
        batched = _run(OracleScheduler)
        assert batched.memo_hits == 0
        assert batched.bound_pruned == 0

    @pytest.mark.parametrize(
        "counts",
        [(), (1.5,), ("2",), (1, 1), (0,), (-1,), (True,), [1, 2], None],
    )
    def test_worker_counts_validation(self, counts):
        with pytest.raises(ValueError, match="worker_counts"):
            SchedulerConfig(worker_counts=counts)

    def test_worker_counts_accepts_unique_positive_ints(self):
        assert SchedulerConfig(worker_counts=(2, 1, 4)).worker_counts == (2, 1, 4)


# --------------------------------------------------------------------- #
# State-version bookkeeping (what keys the memo)
# --------------------------------------------------------------------- #


class TestStateVersion:
    def _backend(self) -> FlowBackend:
        b = make_backend("flow", 0, "t", machine_a(), policy="bwap", dwp=0.8, seed=1)
        b.records = FleetRecords(build_trace(TraceSpec(arrivals=2)), [b.class_name], b.slo_slowdown)
        return b

    def test_admit_finish_and_evict_bump(self):
        b = self._backend()
        wl = trace_catalog(TraceSpec())[0]
        v0 = b.state_version
        b.admit("a", wl, (0,), 0.0, idx=0)
        assert b.state_version > v0
        v1 = b.state_version
        b.advance(1e9)  # the app finishes: completion bumps again
        assert b.state_version > v1
        b.admit("b", wl, (0,), 0.0, idx=1)
        v2 = b.state_version
        assert b.evict_all() and b.state_version > v2
        v3 = b.state_version
        assert not b.evict_all() and b.state_version == v3

    def test_free_node_cache_tracks_versions(self):
        b = self._backend()
        free0 = b.free_nodes()
        b.admit("a", trace_catalog(TraceSpec())[0], (0,), 0.0, idx=0)
        assert b.free_nodes() != free0
        assert 0 in b.occupied_nodes()


# --------------------------------------------------------------------- #
# Pending queue: lazy retirement and O(1) requeue
# --------------------------------------------------------------------- #


class _QueueModel:
    """The plain list the pending queue replaces, driven side by side."""

    def __init__(self):
        self.queue = _PendQueue()
        self.model = []  # (idx, eligible_s, attempts, resume_frac)
        self.retired = []  # admitted records, requeueable once
        self.next_idx = 0

    @staticmethod
    def view(recs):
        return [(r.idx, r.eligible_s, r.attempts, r.resume_frac) for r in recs]

    def arrive(self, eligible_s):
        self.queue.append(_Pend(self.next_idx, eligible_s))
        self.model.append((self.next_idx, eligible_s, 0, 0.0))
        self.next_idx += 1

    def retire(self, pick, keep_head=False):
        live = self.queue.batch(len(self.model) + 1)
        assert self.view(live) == self.model
        lo = 1 if keep_head else 0
        if len(live) > lo:
            at = lo + pick % (len(live) - lo)
            rec = live[at]
            rec.attempts += 1
            self.queue.retire(rec)
            del self.model[at]
            self.retired.append(rec)

    def requeue(self, pick, eligible_s, resume_frac):
        if self.retired:
            rec = self.retired.pop(pick % len(self.retired))
            rec.eligible_s = eligible_s
            rec.resume_frac = resume_frac
            self.queue.append(rec)
            self.model.append((rec.idx, eligible_s, rec.attempts, resume_frac))

    def batch(self, limit, now):
        expect = [
            t for t in self.model if now is None or t[1] <= now
        ][:limit]
        assert self.view(self.queue.batch(limit, now)) == expect
        assert len(self.queue) == len(self.model)


_times = st.floats(0.0, 100.0, allow_nan=False)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("arrive"), _times),
        st.tuples(st.just("retire"), st.integers(0, 10**6)),
        st.tuples(
            st.just("requeue"), st.integers(0, 10**6), _times, st.floats(0.0, 0.75)
        ),
        st.tuples(
            st.just("batch"), st.integers(1, 12), st.one_of(st.none(), _times)
        ),
    ),
    max_size=120,
)


class TestPendQueue:
    @settings(max_examples=200, deadline=None)
    @given(_ops)
    def test_matches_plain_list(self, ops):
        q = _QueueModel()
        for op, *args in ops:
            getattr(q, op)(*args)
        q.batch(10**6, None)

    def test_long_run_crosses_compaction_thresholds(self):
        """Thousands of retirements trip the lazy compaction, both behind
        a dead prefix and (while a long-lived record pins the head) with
        retired records in the middle; the view never changes."""
        rng = np.random.default_rng(0)
        q = _QueueModel()
        for step in range(12_000):
            u = rng.random()
            if u < 0.4:
                q.arrive(float(rng.uniform(0, 100)))
            elif u < 0.75:
                # Mostly from the front, like tick batches.
                q.retire(int(rng.integers(0, 3)), keep_head=step < 6_000)
            elif u < 0.85:
                q.requeue(int(rng.integers(0, 10**6)), float(rng.uniform(0, 100)), 0.25)
            else:
                q.batch(8, None if rng.random() < 0.5 else float(rng.uniform(0, 100)))
        q.batch(10**6, None)

