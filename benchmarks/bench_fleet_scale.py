"""Incremental fleet scheduling — a cross-tick candidate table.

The incremental scoring mode keeps, per arrival kind, a dense
per-machine candidate table across ticks stamped with each machine's
state version and capacity-scale key: only machines whose stamp moved
(or that still hold an unscored slot) are refreshed, candidates that
provably lose are pruned against an exact rate bound, surviving slots
whose solve input recurs replay the value-keyed score memo, every
remaining solve of a tick goes into one vectorised call, and one
``np.lexsort`` per kind ranks the result. This benchmark pins down its
two claims on the 64-machine heterogeneous fleet:

1. **Speed** — incremental scoring admits arrivals at >= 10x the
   exhaustive batched mode's rate on a saturated trace (the committed
   batched baseline is ~230 arrivals/s), and a 1,000,000-arrival trace
   completes in under four minutes.
2. **Exactness** — placements, completions, SLO accounting, and
   utilisation are bitwise-identical to the exhaustive batched and
   scalar modes, fault-free and under the full-intensity chaos plan:
   the table replays the very floats the solver produced and the bound
   only discards provably-losing candidates.

Set ``BWAP_BENCH_QUICK=1`` to shrink the trace and skip the timing
floors and the million-arrival run (CI smoke mode); the exactness
assertions always run.
"""

import os
import time

from repro.fleet import FleetScheduler, SchedulerConfig, build_fleet, chaos_plan
from repro.workloads import TraceSpec, build_trace

_QUICK = bool(os.environ.get("BWAP_BENCH_QUICK"))

#: 64 machines across four classes (two of them custom topologies).
_MIX = (("A", 16), ("B", 16), ("dual", 16), ("sym4", 16))
#: Saturated trace: arrivals outpace drain, so every tick scores a full
#: pending batch — the regime where exhaustive scoring cost explodes.
#: The quick trace stays long enough (240 arrivals) for the memo to
#: reach steady state, so the quick speedup is scale-comparable to the
#: committed full-mode baseline that bench-compare guards against.
_ARRIVALS = 240 if _QUICK else 2400
_RATE = 8.0
_MAX_TIME = 10_000_000.0
#: Committed exhaustive-batched baseline on this fleet (BENCH_fleet.json).
_BASELINE_ARRIVALS_PER_S = 230.0
_MILLION = 1_000_000


def _trace(arrivals=_ARRIVALS):
    return build_trace(
        TraceSpec(kind="poisson", rate_per_s=_RATE, arrivals=arrivals, seed=17)
    )


def _plan():
    return chaos_plan(
        sum(c for _n, c in _MIX), horizon_s=1.5 * _ARRIVALS / _RATE, seed=23
    )


def _run(scoring, *, arrivals=_ARRIVALS, faults=None):
    sched = FleetScheduler(
        build_fleet(_MIX),
        _trace(arrivals),
        SchedulerConfig(scoring=scoring, tick_s=2.0),
        seed=42,
        faults=faults,
    )
    t0 = time.perf_counter()
    result = sched.run(_MAX_TIME)
    wall = time.perf_counter() - t0
    return result, wall


def _assert_bitwise_equal(a, b):
    """Every decision and outcome of the two runs must be identical."""
    assert a.placements == b.placements
    assert a.completions == b.completions
    assert a.utilization == b.utilization
    assert a.end_time == b.end_time
    assert a.placed == b.placed
    assert a.requeues == b.requeues
    assert a.stranded == b.stranded
    assert a.admission_rejections == b.admission_rejections
    assert a.completions_lost == b.completions_lost
    assert a.lost_work_bytes == b.lost_work_bytes
    assert a.slo_violations == b.slo_violations
    assert a.availability == b.availability
    assert a.machine_downtime == b.machine_downtime


def _run_all():
    plan = _plan()
    # Warm every path (machine tables, canonical profiles, numpy
    # dispatch) so the timed runs measure the scheduling loop.
    warm_trace = build_trace(
        TraceSpec(kind="poisson", rate_per_s=4.0, arrivals=8, seed=1)
    )
    for scoring in ("batched", "scalar", "incremental"):
        FleetScheduler(
            build_fleet(_MIX), warm_trace, SchedulerConfig(scoring=scoring, tick_s=2.0)
        ).run(_MAX_TIME)

    # Exactness: incremental == batched == scalar, fault-free.
    batched, batched_wall = _run("batched")
    inc, inc_wall = _run("incremental")
    _assert_bitwise_equal(batched, inc)
    scalar_arrivals = 48 if _QUICK else 240
    scalar, _w = _run("scalar", arrivals=scalar_arrivals)
    inc_small, _w = _run("incremental", arrivals=scalar_arrivals)
    _assert_bitwise_equal(scalar, inc_small)

    # Exactness under full-intensity chaos.
    chaos_b, _w = _run("batched", faults=plan)
    chaos_i, _w = _run("incremental", faults=plan)
    _assert_bitwise_equal(chaos_b, chaos_i)

    million_wall = None
    if not _QUICK:
        _m, million_wall = _run("incremental", arrivals=_MILLION)

    return {
        "arrivals": inc.arrivals,
        "batched": batched,
        "batched_wall": batched_wall,
        "inc": inc,
        "inc_wall": inc_wall,
        "million_wall": million_wall,
    }


class BenchFleetScale:
    def test_incremental_throughput(self, benchmark, once, capsys, ledger):
        r = once(benchmark, _run_all)
        inc, batched = r["inc"], r["batched"]
        inc_aps = r["arrivals"] / r["inc_wall"]
        batched_aps = r["arrivals"] / r["batched_wall"]
        speedup = r["batched_wall"] / r["inc_wall"]
        # Deterministic across machines: how many candidate solves the
        # memo + bound eliminated relative to exhaustive scoring, and
        # the fraction of candidate scores replayed from the memo.
        reduction = batched.entries_scored / max(inc.entries_scored, 1)
        hit_rate = inc.memo_hits / max(inc.memo_hits + inc.entries_scored, 1)
        metrics = {
            "arrivals": r["arrivals"],
            "incremental_arrivals_per_s": inc_aps,
            "batched_arrivals_per_s": batched_aps,
            "speedup_vs_batched": speedup,
            "entries_scored": inc.entries_scored,
            "memo_hits": inc.memo_hits,
            "bound_pruned": inc.bound_pruned,
            "candidate_reduction": reduction,
            "memo_hit_rate": hit_rate,
        }
        if r["million_wall"] is not None:
            metrics["million_arrivals_wall_s"] = r["million_wall"]
        ledger(
            "fleet_scale",
            metrics,
            # candidate_reduction scales with trace length (quick CI runs
            # a short trace), so the floors guard the scale-robust pair.
            guarded=("speedup_vs_batched", "memo_hit_rate"),
            wall_s=r["batched_wall"] + r["inc_wall"],
        )
        with capsys.disabled():
            machines = sum(c for _n, c in _MIX)
            print()
            print(
                f"Incremental fleet scheduling ({machines} machines, "
                f"{r['arrivals']} arrivals):"
            )
            print(
                f"  batched    : {batched_aps:8.1f} arrivals/s "
                f"({batched.entries_scored} candidates scored)"
            )
            print(
                f"  incremental: {inc_aps:8.1f} arrivals/s "
                f"({inc.entries_scored} scored, {inc.memo_hits} memo hits, "
                f"{inc.bound_pruned} pruned)"
            )
            print(f"  speedup    : {speedup:.2f}x  "
                  f"(candidate reduction {reduction:.1f}x)")
            if r["million_wall"] is not None:
                print(
                    f"  1M arrivals: {r['million_wall']:.0f}s "
                    f"({_MILLION / r['million_wall']:.0f} arrivals/s)"
                )
        # The headline claims: >= 10x over the committed exhaustive
        # baseline, and a million-arrival trace in under four minutes.
        if not _QUICK:
            assert inc_aps >= 10.0 * _BASELINE_ARRIVALS_PER_S
            assert speedup >= 10.0
            assert r["million_wall"] < 240.0
