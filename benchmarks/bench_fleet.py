"""Fleet scheduling — one vectorised solve per tick vs per-candidate solves.

Each scheduling tick the fleet scheduler scores every (pending app x
machine x worker-set) candidate placement. The batched mode packs all of
them — across *heterogeneous* machine classes — into a single
:func:`repro.memsim.solve_batch_fleet_lazy` call; the scalar baseline runs
the identical decision procedure with one :func:`repro.memsim.solve`
per candidate. This benchmark pins down the two claims:

1. **Speed** — on a 64-machine heterogeneous fleet the batched run
   admits arrivals at >= 5x the scalar baseline's rate.
2. **Exactness** — both modes produce bitwise-identical placement
   decisions, completions, and utilisation: the fleet batch is a
   padded re-expression of the scalar solves, not an approximation.

Set ``BWAP_BENCH_QUICK=1`` to shrink the trace and skip the timing
floor (CI smoke mode); the exactness assertions always run.
"""

import os
import time

from repro.fleet import FleetScheduler, SchedulerConfig, build_fleet
from repro.workloads import TraceSpec, build_trace

_QUICK = bool(os.environ.get("BWAP_BENCH_QUICK"))

#: 64 machines across four classes (two of them custom topologies).
_MIX = (("A", 16), ("B", 16), ("dual", 16), ("sym4", 16))
_ARRIVALS = 48 if _QUICK else 240
_MAX_TIME = 1_000_000.0


def _trace():
    return build_trace(
        TraceSpec(kind="poisson", rate_per_s=4.0, arrivals=_ARRIVALS, seed=17)
    )


def _run(scoring: str):
    fleet = build_fleet(_MIX)
    trace = _trace()
    sched = FleetScheduler(
        fleet,
        trace,
        SchedulerConfig(scoring=scoring, tick_s=2.0),
        seed=42,
    )
    t0 = time.perf_counter()
    result = sched.run(_MAX_TIME)
    wall = time.perf_counter() - t0
    return result, wall


def _assert_bitwise_equal(batched, scalar):
    """Every decision and outcome of the two modes must be identical."""
    assert batched.placements == scalar.placements
    assert batched.completions == scalar.completions
    assert batched.utilization == scalar.utilization
    assert batched.end_time == scalar.end_time
    assert batched.entries_scored == scalar.entries_scored
    assert batched.placed == scalar.placed


def _run_both():
    # Warm both paths (machine tables, canonical profiles, numpy dispatch)
    # so the timed runs measure the scheduling loop, not one-time setup.
    warm_fleet = build_fleet(_MIX)
    warm_trace = build_trace(
        TraceSpec(kind="poisson", rate_per_s=4.0, arrivals=8, seed=1)
    )
    for scoring in ("batched", "scalar"):
        FleetScheduler(
            warm_fleet, warm_trace, SchedulerConfig(scoring=scoring, tick_s=2.0)
        ).run(_MAX_TIME)
    batched, batched_wall = _run("batched")
    scalar, scalar_wall = _run("scalar")
    _assert_bitwise_equal(batched, scalar)
    return {
        "arrivals": batched.arrivals,
        "entries": batched.entries_scored,
        "batched_wall": batched_wall,
        "scalar_wall": scalar_wall,
        "batched_solver_calls": batched.solver_calls,
        "scalar_solver_calls": scalar.solver_calls,
    }


class BenchFleet:
    def test_arrivals_per_second(self, benchmark, once, capsys, ledger):
        r = once(benchmark, _run_both)
        batched_aps = r["arrivals"] / r["batched_wall"]
        scalar_aps = r["arrivals"] / r["scalar_wall"]
        speedup = r["scalar_wall"] / r["batched_wall"]
        ledger(
            "fleet",
            {
                "arrivals": r["arrivals"],
                "entries_scored": r["entries"],
                "batched_arrivals_per_s": batched_aps,
                "scalar_arrivals_per_s": scalar_aps,
                "speedup": speedup,
            },
            guarded=("speedup", "batched_arrivals_per_s"),
            wall_s=r["batched_wall"] + r["scalar_wall"],
        )
        with capsys.disabled():
            machines = sum(c for _n, c in _MIX)
            print()
            print(
                f"Fleet scheduling ({machines} machines, "
                f"{r['arrivals']} arrivals, {r['entries']} candidates scored):"
            )
            print(
                f"  batched: {batched_aps:8.1f} arrivals/s "
                f"({r['batched_solver_calls']} solver calls)"
            )
            print(
                f"  scalar : {scalar_aps:8.1f} arrivals/s "
                f"({r['scalar_solver_calls']} solver calls)"
            )
            print(f"  speedup: {speedup:.2f}x")
        # The headline claim: >= 5x arrivals/sec with batched scoring.
        if not _QUICK:
            assert speedup >= 5.0
