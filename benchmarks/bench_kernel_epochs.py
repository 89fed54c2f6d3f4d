"""Epoch kernel — host-normalised epochs/sec on a tuner-active run.

The epoch kernel (:mod:`repro.engine.kernel`) runs the simulator's epoch
loop over dense NumPy arrays laid out once per placement version, and
fast-forwards across multi-epoch tuner dormancy windows in one exact
jump. This benchmark measures its throughput on a tuner-active DWP run
(an adaptive monitor holding a tuned co-schedule that never goes static)
as epochs per perfbench calibration chunk, the median of five runs.
``bwap-repro bench-compare`` guards that number. The test suite checks
its bitwise equality with the scalar reference loop of
``tests/oracle/epoch_reference.py``, with and without a full-intensity
fault plan.

It also measures the DWP tuner's page-table writer: Algorithm 1's
weighted interleave of a whole streamcluster address space, one
``apply_weighted_placement`` per step of a fixed DWP weight ladder, as
pages written per calibration chunk (guarded as
``placement_pages_per_chunk``). The suite checks that writer against one
``mbind`` per sub-range (``tests/oracle/algorithm1.py``).

Last, it measures deployment: the ``paper`` grid's machine-A deployments
of streamcluster under first-touch and uniform-workers, each co-scheduled
with a first-touch swaptions app on the remaining nodes, as applications
deployed (address space mapped and placed, first consumer block built)
per calibration chunk (guarded as ``deployments_per_chunk``). The suite
checks the page counts every write keeps against a per-page recount
(``tests/oracle/page_counts.py``).
"""

import dataclasses

from repro.core import AdaptiveBWAP, AdaptiveConfig, CanonicalTuner, apply_weighted_placement
from repro.core.dwp import combine_weights
from repro.engine import Application, Simulator, pick_worker_nodes
from repro.memsim import FirstTouch, UniformWorkers
from repro.perf.counters import MeasurementConfig
from repro.topology import machine_a
from repro.workloads import streamcluster, swaptions

from conftest import calibrated_rate, timed

_MiB = 1 << 20


def _tuner_active_sim():
    """Machine-A co-schedule that never goes static: two effectively
    endless applications (work far beyond the horizon) and an AdaptiveBWAP
    whose monitor keeps re-arming after its DWP search settles, so the
    kernel strides the monitor's dormant windows. The foreground's
    footprint is kept small so migration cost doesn't drown the epoch
    loop being measured."""
    mach = machine_a()
    sim = Simulator(mach)
    workers = pick_worker_nodes(mach, 2)
    others = tuple(n for n in range(mach.num_nodes) if n not in workers)
    bg = dataclasses.replace(swaptions(), work_bytes=1e15)
    fg = dataclasses.replace(streamcluster(), work_bytes=1e15, shared_bytes=32 * _MiB)
    sim.add_app(Application("bg", bg, mach, others, policy=FirstTouch()))
    app = sim.add_app(Application("fg", fg, mach, workers, policy=None))
    sim.add_tuner(
        AdaptiveBWAP(
            app,
            CanonicalTuner(mach).weights(workers),
            config=AdaptiveConfig(check_interval_s=5.0),
            measurement=MeasurementConfig(n=6, c=1, t=0.1),
            warmup_s=0.2,
        )
    )
    return sim


def _run():
    sim = _tuner_active_sim()
    _res, wall = timed(lambda: sim.run(max_time=300.0))
    return sim.epoch, wall


def _measure():
    # Warm up first (imports, machine tables, numpy dispatch) so the timed
    # runs measure the epoch loop, not one-time setup.
    _tuner_active_sim().run(max_time=30.0)
    epochs, _wall = _run()
    return epochs, calibrated_rate(_run)


#: The DWP ladder the placement benchmark climbs: 0, 0.1, ..., 1.
_LADDER = [step / 10 for step in range(11)]


def _run_placement():
    """Climb the ladder over a fresh (unbacked) streamcluster address space
    on two machine-A workers: the first step backs every page, each later
    one migrates the pages that no longer conform."""
    mach = machine_a()
    workers = pick_worker_nodes(mach, 2)
    canonical = CanonicalTuner(mach).weights(workers)
    ladder = [combine_weights(canonical, workers, dwp) for dwp in _LADDER]
    space = Application("sc", streamcluster(), mach, workers, policy=None).space

    def climb():
        for weights in ladder:
            apply_weighted_placement(space, weights)

    _out, wall = timed(climb)
    return len(ladder) * space.total_pages, wall


def _measure_placement():
    _run_placement()  # warm up
    pages, _wall = _run_placement()
    return pages, calibrated_rate(_run_placement)


#: The deployments of one pass: machine A at 1, 2 and 4 workers, times
#: the two baseline policies, each beside its co-scheduled swaptions app.
_DEPLOY_PASSES = 3


def _run_deployments():
    mach = machine_a()
    grid = []
    for n in (1, 2, 4):
        workers = pick_worker_nodes(mach, n)
        grid.append((workers, tuple(w for w in range(mach.num_nodes) if w not in workers)))

    def deploy():
        count = 0
        for _ in range(_DEPLOY_PASSES):
            for workers, rest in grid:
                for policy in (FirstTouch, UniformWorkers):
                    Application("A", swaptions(), mach, rest, policy=FirstTouch(), looping=True).block()
                    Application("B", streamcluster(), mach, workers, policy=policy()).block()
                    count += 2
        return count

    return timed(deploy)


def _measure_deployments():
    _run_deployments()  # warm up
    deployments, _wall = _run_deployments()
    return deployments, calibrated_rate(_run_deployments)


class BenchKernelEpochs:
    def test_epochs_per_second(self, benchmark, once, capsys, ledger):
        epochs, rate = once(benchmark, _measure)
        pages, placement = _measure_placement()
        deployments, deploy = _measure_deployments()
        ledger(
            "kernel_epochs",
            {
                "epochs": epochs,
                "epochs_per_s": rate["per_s"],
                "epochs_per_chunk": rate["per_chunk"],
                "calib_chunk_ms": rate["calib_chunk_ms"],
                "placement_pages": pages,
                "placement_pages_per_s": placement["per_s"],
                "placement_pages_per_chunk": placement["per_chunk"],
                "deployments": deployments,
                "deployments_per_s": deploy["per_s"],
                "deployments_per_chunk": deploy["per_chunk"],
            },
            guarded=("epochs_per_chunk", "placement_pages_per_chunk", "deployments_per_chunk"),
            wall_s=rate["wall_s"] + placement["wall_s"] + deploy["wall_s"],
        )
        with capsys.disabled():
            print()
            print("Epoch kernel on a tuner-active DWP run (machine A, 300 s sim):")
            print(
                f"  {epochs} epochs @ {rate['per_s']:8.0f} eps "
                f"= {rate['per_chunk']:.2f} epochs per {rate['calib_chunk_ms']:.3f} ms "
                "calibration chunk"
            )
            print(
                f"  DWP ladder placement: {pages} pages @ {placement['per_s']:.3g} pages/s "
                f"= {placement['per_chunk']:.0f} pages per chunk"
            )
            print(
                f"  Paper-grid deployments: {deployments} @ {deploy['per_s']:.0f}/s "
                f"= {deploy['per_chunk']:.3f} per chunk"
            )
