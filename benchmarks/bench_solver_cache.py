"""Solver-result cache — host-normalised epochs/sec and hit rate.

The contention solve runs every simulated epoch, but between placement
changes its inputs are bit-for-bit identical; the simulator's
:class:`SolverCache` replays the previous solve (and the per-app records
derived from it) instead of re-solving. This benchmark measures a static
co-schedule with epoch-granularity tuner polling: its epochs per perfbench
calibration chunk (the median of five runs) and the cache's hit rate,
both guarded by ``bwap-repro bench-compare``. It also measures what a
cache miss costs: fresh solves per chunk (``fresh_solves_per_chunk``, the
median of five runs), each one :meth:`EpochKernel._solve_fresh` (the
engine's :func:`solve_batch_arrays` call) plus the derived per-app
records, over a fixed set of machine-A and machine-B co-schedules with no
cache in between. That cached runs equal the scalar reference loop, which
solves every epoch, is checked in ``tests/test_engine_sim.py``. This
scenario's consumer sets packed into one :func:`solve_batch_arrays` call
reproduce the scalar :func:`solve` allocations bitwise — the array-native
batch kernel is the solver, not a second implementation.
"""

import time

from repro.engine import Application, Simulator, pick_worker_nodes
from repro.engine.sim import Tuner
from repro.memsim import DEFAULT_MC_MODEL, FirstTouch, UniformAll, solve
from repro.memsim.contention import solve_batch_arrays
from repro.topology import machine_a, machine_b
from repro.workloads import streamcluster, swaptions

from conftest import calibrated_rate, timed
from tests.oracle import solver_setup


class _Poll(Tuner):
    """Never-settling tuner: forces epoch-granularity stepping (no static
    fast-forward) without ever moving a page, like a monitoring loop."""

    def __init__(self):
        self.epochs = 0

    def on_start(self, sim):
        pass

    def on_epoch(self, sim):
        self.epochs += 1

    def is_settled(self):
        return False


def _coscheduled_sim(*, looping: bool, mach=None, count: int = 2, policy=UniformAll):
    """Co-schedule on ``mach`` (machine A by default): first-touch
    swaptions on the other nodes, streamcluster on ``count`` nodes."""
    mach = machine_a() if mach is None else mach
    sim = Simulator(mach)
    workers = pick_worker_nodes(mach, count)
    others = tuple(n for n in range(mach.num_nodes) if n not in workers)
    sim.add_app(
        Application(
            "bg", swaptions(), mach, others, policy=FirstTouch(), looping=looping
        )
    )
    sim.add_app(
        Application(
            "fg", streamcluster(), mach, workers, policy=policy(), looping=looping
        )
    )
    poll = sim.add_tuner(_Poll())
    return sim, poll


def _run():
    sim, poll = _coscheduled_sim(looping=True)
    _res, wall = timed(lambda: sim.run(max_time=120.0))
    return poll.epochs, wall


def _measure():
    # The first run warms up (imports, machine tables, numpy dispatch)
    # and reads the hit rate; the timed repeats follow.
    sim, poll = _coscheduled_sim(looping=True)
    sim.run(max_time=120.0)
    return poll.epochs, sim.solver_cache.hit_rate, calibrated_rate(_run), _measure_fresh()


#: Fresh-solve consumer sets: the foreground app's worker counts per
#: machine, each under both placements, beside a first-touch swaptions app
#: on the other nodes (the ``paper`` grid's co-schedules).
_FRESH_GRID = ((machine_a, (1, 2, 4)), (machine_b, (1, 2)))

#: Passes over the fresh-solve set per timed run.
_FRESH_PASSES = 40


def _fresh_solve_set():
    """``(kernel, workspace)`` of every consumer set in :data:`_FRESH_GRID`,
    after a short run has placed its pages."""
    out = []
    for build, worker_counts in _FRESH_GRID:
        mach = build()
        for count in worker_counts:
            for policy in (FirstTouch, UniformAll):
                sim, _poll = _coscheduled_sim(looping=True, mach=mach, count=count, policy=policy)
                sim.run(max_time=1.0)
                out.append((sim._kernel, sim._kernel._ws))
    return out


def _fresh_solves(sets):
    def run():
        t0 = time.perf_counter()
        for _ in range(_FRESH_PASSES):
            for kernel, ws in sets:
                entry = kernel._solve_fresh(ws, None)
                kernel._compute_derived(ws, ws.apps, entry.rates, entry.util)
        return _FRESH_PASSES * len(sets), time.perf_counter() - t0

    return run


def _measure_fresh():
    sets = _fresh_solve_set()
    _fresh_solves(sets)()  # warm-up
    return len(sets), calibrated_rate(_fresh_solves(sets))


class BenchSolverCache:
    def test_epochs_per_second(self, benchmark, once, capsys, ledger):
        epochs, hit_rate, rate, (num_sets, fresh) = once(benchmark, _measure)
        ledger(
            "solver_cache",
            {
                "epochs": epochs,
                "epochs_per_s": rate["per_s"],
                "epochs_per_chunk": rate["per_chunk"],
                "calib_chunk_ms": rate["calib_chunk_ms"],
                "hit_rate": hit_rate,
                "fresh_solve_sets": num_sets,
                "fresh_solves_per_s": fresh["per_s"],
                "fresh_solves_per_chunk": fresh["per_chunk"],
            },
            guarded=("epochs_per_chunk", "hit_rate", "fresh_solves_per_chunk"),
            wall_s=rate["wall_s"] + fresh["wall_s"],
        )
        with capsys.disabled():
            print()
            print("Solver cache on a static co-schedule (machine A, 120 s sim):")
            print(
                f"  {epochs} epochs @ {rate['per_s']:8.0f} eps "
                f"= {rate['per_chunk']:.2f} epochs per {rate['calib_chunk_ms']:.3f} ms "
                f"calibration chunk, hit rate {hit_rate:.3f}"
            )
            print(
                f"  fresh solve + derive over {num_sets} consumer sets: "
                f"{fresh['per_s']:8.0f} solves/s = {fresh['per_chunk']:.3f} per chunk"
            )
        # The cache serves nearly every epoch of a settled phase.
        assert hit_rate > 0.9

    def test_batch_matches_scalar_solve(self):
        # Consumer sets drawn from the co-scheduled scenario after its
        # placements have settled: the full co-schedule and each app alone.
        sim, _ = _coscheduled_sim(looping=True)
        sim.run(max_time=5.0)
        by_app = {}
        for app_id, app in sim._apps.items():
            by_app[app_id] = list(app.consumers())
        batches = [
            by_app["bg"] + by_app["fg"],
            by_app["bg"],
            by_app["fg"],
        ]
        allocations = solver_setup.solve_batch(
            sim.machine, batches, DEFAULT_MC_MODEL, dense=solve_batch_arrays
        )
        for consumers, batched in zip(batches, allocations):
            scalar = solve(sim.machine, consumers, DEFAULT_MC_MODEL)
            assert batched.rates == scalar.rates
            assert batched.utilization == scalar.utilization
            assert batched.capacities == scalar.capacities
            assert batched.bottleneck == scalar.bottleneck
