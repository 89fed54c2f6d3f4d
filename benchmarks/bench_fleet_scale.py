"""Fleet scheduling at scale — state-keyed score rows.

The scheduler interns each machine's state — machine class, resident
rows, occupied nodes and capacity-scale key — whenever its version or
scale moves, and keeps one score per ``(state, arrival kind,
worker-count slot)`` cell for the whole run. A tick reads its kinds'
scores from each machine's state row, solves the cells the run has never
met (each once) in one vectorised call, and ranks the result with one
``np.lexsort``. This benchmark measures it on the 64-machine
heterogeneous fleet:

1. **Speed** — arrivals per perfbench calibration chunk on a saturated
   2,400-arrival trace (the median of five runs; at least 2,300
   arrivals/s, 10x the exhaustive greedy's rate when it was the
   production path), and on a 1,000,000-arrival trace (one run, under
   four minutes). ``bwap-repro bench-compare`` guards both. The
   process's peak RSS through the million-arrival run (``ru_maxrss``
   read right after it) is recorded as ``million_peak_rss_mb`` and must
   stay at or under 250 MB: the run's records are columns, so memory
   barely grows with the trace. ``ru_maxrss`` is a process high-water
   mark, so the figure also covers whatever ran earlier in the same
   process; run this file alone to read the million run's own peak.
2. **State-table reuse** — the fraction of candidate scores read from
   the table instead of solved, fault-free and under the full-intensity
   chaos plan.

Bitwise equality with the exhaustive greedy of
``tests/oracle/exhaustive_tick.py``, fault-free and under chaos, is
checked in ``tests/test_fleet_incremental.py``.

Set ``BWAP_BENCH_QUICK=1`` to skip the timing floors and the
million-arrival run (CI smoke mode).
"""

import os
import resource

from repro.fleet import FleetScheduler, SchedulerConfig, build_fleet, chaos_plan
from repro.workloads import TraceSpec, build_trace

from conftest import calibrated_rate, timed

_QUICK = bool(os.environ.get("BWAP_BENCH_QUICK"))

#: 64 machines across four classes (two of them custom topologies).
_MIX = (("A", 16), ("B", 16), ("dual", 16), ("sym4", 16))
#: Saturated trace: arrivals outpace drain, so every tick scores a full
#: pending batch. Quick runs time the same trace, so their throughput is
#: comparable to the committed full-mode ledger.
_ARRIVALS = 2400
_RATE = 8.0
_MAX_TIME = 10_000_000.0
_MILLION = 1_000_000


def _trace(arrivals=_ARRIVALS):
    return build_trace(
        TraceSpec(kind="poisson", rate_per_s=_RATE, arrivals=arrivals, seed=17)
    )


def _plan():
    return chaos_plan(
        sum(c for _n, c in _MIX), horizon_s=1.5 * _ARRIVALS / _RATE, seed=23
    )


def _scheduler(arrivals=_ARRIVALS, faults=None):
    return FleetScheduler(
        build_fleet(_MIX),
        _trace(arrivals),
        SchedulerConfig(tick_s=2.0),
        seed=42,
        faults=faults,
    )


def _timed(arrivals=_ARRIVALS):
    sched = _scheduler(arrivals)
    result, wall = timed(lambda: sched.run(_MAX_TIME))
    return result.arrivals, wall


def _measure():
    # Warm up (machine tables, canonical profiles, numpy dispatch) so the
    # timed runs measure the scheduling loop.
    FleetScheduler(
        build_fleet(_MIX),
        build_trace(TraceSpec(kind="poisson", rate_per_s=4.0, arrivals=8, seed=1)),
        SchedulerConfig(tick_s=2.0),
    ).run(_MAX_TIME)
    return {
        "clean": _scheduler().run(_MAX_TIME),
        "chaos": _scheduler(faults=_plan()).run(_MAX_TIME),
        "rate": calibrated_rate(_timed),
        "million": None if _QUICK else calibrated_rate(lambda: _timed(_MILLION), repeats=1),
        # The process's peak RSS so far, which includes anything run
        # earlier in this process; the million-arrival run is the
        # largest this benchmark makes.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _hit_rate(result):
    return result.memo_hits / max(result.memo_hits + result.entries_scored, 1)


class BenchFleetScale:
    def test_incremental_throughput(self, benchmark, once, capsys, ledger):
        r = once(benchmark, _measure)
        clean, chaos, rate, million = r["clean"], r["chaos"], r["rate"], r["million"]
        metrics = {
            "arrivals": clean.arrivals,
            "incremental_arrivals_per_s": rate["per_s"],
            "incremental_arrivals_per_chunk": rate["per_chunk"],
            "calib_chunk_ms": rate["calib_chunk_ms"],
            "entries_scored": clean.entries_scored,
            "memo_hits": clean.memo_hits,
            "memo_hit_rate": _hit_rate(clean),
            "chaos_memo_hit_rate": _hit_rate(chaos),
        }
        wall_s = rate["wall_s"]
        if million is not None:
            metrics["million_arrivals_per_s"] = million["per_s"]
            metrics["million_arrivals_per_chunk"] = million["per_chunk"]
            metrics["million_arrivals_wall_s"] = million["wall_s"]
            metrics["million_peak_rss_mb"] = r["peak_rss_mb"]
            wall_s += million["wall_s"]
        guarded = (
            "incremental_arrivals_per_chunk",
            "million_arrivals_per_chunk",
            "memo_hit_rate",
        )
        ledger(
            "fleet_scale",
            metrics,
            guarded=guarded,
            skipped=("million_arrivals_per_chunk",) if million is None else (),
            wall_s=wall_s,
        )
        with capsys.disabled():
            machines = sum(c for _n, c in _MIX)
            print()
            print(f"Fleet scheduling ({machines} machines, {clean.arrivals} arrivals):")
            print(
                f"  {rate['per_s']:8.1f} arrivals/s = {rate['per_chunk']:.2f} per "
                f"{rate['calib_chunk_ms']:.3f} ms calibration chunk "
                f"({clean.entries_scored} scored, {clean.memo_hits} memo hits)"
            )
            print(f"  state-table hit rate: {_hit_rate(clean):.4f} clean, "
                  f"{_hit_rate(chaos):.4f} under chaos")
            if million is not None:
                print(
                    f"  1M arrivals: {million['wall_s']:.0f}s "
                    f"({million['per_s']:.0f} arrivals/s, peak RSS "
                    f"{r['peak_rss_mb']:.0f} MB)"
                )
        # The headline claims: at least 10x the exhaustive greedy's
        # committed 230 arrivals/s, and a million-arrival trace in under
        # four minutes and 250 MB.
        if not _QUICK:
            assert rate["per_s"] >= 2300.0
            assert million["wall_s"] < 240.0
            assert r["peak_rss_mb"] <= 250.0
