"""Fleet fault tolerance — chaos recovery vs stranding, and throughput.

Pins down the fault layer's contracts on the 64-machine heterogeneous
fleet:

1. **Zero-fault identity** — a ``None`` fault argument and a
   zero-intensity plan produce bitwise-identical placements,
   completions, and utilisation (the whole fault layer is gated on the
   injector).
2. **Recovery** — under the full-intensity chaos plan,
   ``recovery="requeue+checkpoint"`` completes >= 99% of arrivals while
   ``recovery="none"`` strands work on crashed machines.

It also measures the scheduler's fault-free throughput on this trace, as
arrivals per perfbench calibration chunk (the median of five runs),
which ``bwap-repro bench-compare`` guards. Bitwise equality with the
exhaustive greedy of ``tests/oracle/exhaustive_tick.py`` under faults is
checked in ``tests/test_fleet_faults.py``.

Set ``BWAP_BENCH_QUICK=1`` to skip the 99% completion floor (CI smoke
mode); the identity assertions always run.
"""

import os

from repro.fleet import FleetScheduler, SchedulerConfig, build_fleet, chaos_plan
from repro.workloads import TraceSpec, build_trace

from conftest import calibrated_rate, timed

_QUICK = bool(os.environ.get("BWAP_BENCH_QUICK"))

#: 64 machines across four classes (two of them custom topologies).
_MIX = (("A", 16), ("B", 16), ("dual", 16), ("sym4", 16))
_ARRIVALS = 240
_MAX_TIME = 1_000_000.0
#: Chaos windows land inside the span the trace keeps the fleet busy.
_HORIZON_S = 1.5 * _ARRIVALS / 4.0


def _trace():
    return build_trace(
        TraceSpec(kind="poisson", rate_per_s=4.0, arrivals=_ARRIVALS, seed=17)
    )


def _plan():
    return chaos_plan(sum(c for _n, c in _MIX), horizon_s=_HORIZON_S, seed=23)


def _scheduler(faults, recovery: str):
    return FleetScheduler(
        build_fleet(_MIX),
        _trace(),
        SchedulerConfig(tick_s=2.0, recovery=recovery, retry_backoff_s=5.0),
        seed=42,
        faults=faults,
    )


def _timed():
    sched = _scheduler(None, "requeue")
    result, wall = timed(lambda: sched.run(_MAX_TIME))
    return result.arrivals, wall


def _assert_bitwise_equal(a, b):
    """Every decision and outcome of the two runs must be identical."""
    assert a.placements == b.placements
    assert a.completions == b.completions
    assert a.utilization == b.utilization
    assert a.end_time == b.end_time
    assert a.entries_scored == b.entries_scored
    assert a.placed == b.placed
    assert a.requeues == b.requeues
    assert a.stranded == b.stranded
    assert a.admission_rejections == b.admission_rejections
    assert a.completions_lost == b.completions_lost
    assert a.lost_work_bytes == b.lost_work_bytes


def _run_matrix():
    plan = _plan()
    # Warm up (machine tables, canonical profiles, numpy dispatch).
    FleetScheduler(
        build_fleet(_MIX),
        build_trace(TraceSpec(kind="poisson", rate_per_s=4.0, arrivals=8, seed=1)),
        SchedulerConfig(tick_s=2.0),
    ).run(_MAX_TIME)

    # Contract 1: fault-free == zero-intensity plan.
    base = _scheduler(None, "requeue").run(_MAX_TIME)
    null = _scheduler(plan.scaled(0.0), "requeue").run(_MAX_TIME)
    _assert_bitwise_equal(base, null)

    # Contract 2: full-intensity chaos.
    ckpt_sched = _scheduler(plan, "requeue+checkpoint")
    ckpt, ckpt_wall = timed(lambda: ckpt_sched.run(_MAX_TIME))
    return {
        "arrivals": ckpt.arrivals,
        "none": _scheduler(plan, "none").run(_MAX_TIME),
        "ckpt": ckpt,
        "ckpt_wall": ckpt_wall,
        "rate": calibrated_rate(_timed),
    }


class BenchFleetChaos:
    def test_chaos_recovery(self, benchmark, once, capsys, ledger):
        r = once(benchmark, _run_matrix)
        arrivals = r["arrivals"]
        none_r, ckpt, rate = r["none"], r["ckpt"], r["rate"]
        none_rate = len(none_r.completions) / arrivals
        ckpt_rate = len(ckpt.completions) / arrivals
        ledger(
            "fleet_chaos",
            {
                "arrivals": arrivals,
                "completion_rate_none": none_rate,
                "completion_rate_recovered": ckpt_rate,
                "stranded_none": none_r.stranded,
                "requeues_recovered": ckpt.requeues,
                "availability": ckpt.availability,
                "lost_work_frac_recovered": (
                    ckpt.lost_work_bytes / ckpt.arrived_work_bytes
                    if ckpt.arrived_work_bytes
                    else 0.0
                ),
                "fault_free_arrivals_per_s": rate["per_s"],
                "fault_free_arrivals_per_chunk": rate["per_chunk"],
                "calib_chunk_ms": rate["calib_chunk_ms"],
            },
            guarded=("completion_rate_recovered", "fault_free_arrivals_per_chunk"),
            wall_s=r["ckpt_wall"] + rate["wall_s"],
        )
        with capsys.disabled():
            machines = sum(c for _n, c in _MIX)
            print()
            print(
                f"Fleet chaos ({machines} machines, {arrivals} arrivals, "
                f"full-intensity plan):"
            )
            print(
                f"  no recovery       : {len(none_r.completions)}/{arrivals} "
                f"completed, {none_r.stranded} stranded"
            )
            print(
                f"  requeue+checkpoint: {len(ckpt.completions)}/{arrivals} "
                f"completed, {ckpt.requeues} requeues, "
                f"availability {ckpt.availability:.4f}"
            )
            print(
                f"  fault-free        : {rate['per_s']:.0f} arrivals/s = "
                f"{rate['per_chunk']:.3f} per {rate['calib_chunk_ms']:.3f} ms "
                "calibration chunk"
            )
        # The headline claims: recovery restores >= 99% completion on a
        # fleet where no-recovery strands work.
        if not _QUICK:
            assert ckpt_rate >= 0.99
            assert none_r.stranded > 0
            assert len(none_r.completions) < arrivals
