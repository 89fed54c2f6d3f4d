"""Benchmark runner for the BWAP reproduction.

Runs one workload for about ``--seconds`` seconds and prints every metric
by name with its unit, then one JSON result as the last line::

    python3 perfbench/run.py --workload paper --seed 0 --seconds 30 --trace 0

Workloads (all closed loop, one op in flight, serial):

* ``paper`` -- the 150 scenarios Fig. 2 and Fig. 3a/b regenerate, each one
  ``run_spec`` op into a fresh result store. Exercises the epoch kernel,
  the solver cache, the DWP tuner with page migration and store writes.
* ``fleet-chaos`` -- one ``FleetScheduler.run`` over a 20k-arrival
  Poisson trace (8/s) on a 64-machine mix under a full-intensity chaos
  plan with requeue+checkpoint recovery. Exercises the scheduler tick, the
  batched solve, the fluid backend and the fault layer.

Each repetition runs in a fresh interpreter (``rep.py``) with a hermetic
environment. ``--trace 0`` repeats until ``--seconds`` is spent (at least
:data:`MIN_REPS` times) and reports medians of the end-to-end metrics;
``--trace 1`` runs one untraced and one traced repetition and reports the
per-layer breakdown. Every op's output is checked; an op that fails a
check counts as failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import cases

HERE = os.path.dirname(os.path.abspath(__file__))
REP = os.path.join(HERE, "rep.py")

MIN_REPS = 3
#: Reference host speed: ms one calibration chunk of ``rep.py`` takes.
#: Reported host times are scaled to it (see :func:`end_to_end`).
REF_CALIB_MS = 1.0
#: Whole-run ceiling; the run must end within 180 s.
DEADLINE_S = 170.0

#: (name, unit) of the end-to-end metrics, reported with ``--trace 0``.
END_TO_END = (
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim.p99_slowdown", "x"),
    ("sim.goodput", "ratio"),
)

#: (name, unit) of the per-layer metrics, reported with ``--trace 1``.
PER_LAYER = (
    ("memsim.contention.calls", "count"),
    ("memsim.contention.rows", "count"),
    ("memsim.contention.self_s", "s"),
    ("memsim.contention.cache_hit_ratio", "ratio"),
    ("engine.runs", "count"),
    ("engine.epochs", "count"),
    ("engine.self_s", "s"),
    ("core.dwp.on_epoch_calls", "count"),
    ("core.dwp.iterations", "count"),
    ("core.dwp.self_s", "s"),
    ("core.dwp.speedup_geomean", "x"),
    ("memsim.migration.calls", "count"),
    ("memsim.migration.pages_moved", "count"),
    ("memsim.migration.self_s", "s"),
    ("core.canonical.build_s", "s"),
    ("topology.build_s", "s"),
    ("store.put_calls", "count"),
    ("store.put_s", "s"),
    ("store.fingerprint_s", "s"),
    ("fleet.scheduler.self_s", "s"),
    ("fleet.scheduler.ticks", "count"),
    ("fleet.scheduler.candidates_scored", "count"),
    ("fleet.scheduler.memo_hits", "count"),
    ("fleet.scheduler.bound_pruned", "count"),
    ("fleet.scheduler.memo_hit_ratio", "ratio"),
    ("fleet.scheduler.scored_per_arrival", "count/arrival"),
    ("fleet.backend.advance_calls", "count"),
    ("fleet.backend.advance_s", "s"),
    ("fleet.backend.admit_s", "s"),
    ("fleet.backend.evictions", "count"),
    ("fleet.faults.self_s", "s"),
    ("fleet.faults.requeues", "count"),
    ("fleet.faults.stranded", "count"),
    ("fleet.faults.admission_rejections", "count"),
    ("workloads.arrivals.build_s", "s"),
    ("other.self_s", "s"),
    ("host.calib_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)

WORKLOADS = tuple(cases.CASES)


class RepFailed(RuntimeError):
    pass


def hermetic_env() -> dict:
    """The environment of every repetition: no ``BWAP_*`` knob (process
    pools, heartbeat, quick mode, store), one BLAS/OpenMP thread, a fixed
    hash seed, and the checkout's ``src`` on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("BWAP_")}
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


def run_rep(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    cmd = [
        sys.executable,
        REP,
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        "1" if traced else "0",
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RepFailed("no time left for another repetition")
    try:
        proc = subprocess.run(
            cmd, env=hermetic_env(), stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise RepFailed(f"{workload} repetition timed out") from None
    if proc.returncode != 0:
        raise RepFailed(f"{workload} repetition exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RepFailed(f"{workload} repetition printed no result")
    return json.loads(lines[-1])


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default), in pure Python."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def consistency_failures(reps) -> int:
    """Ops whose digest differs between repetitions of the same seed."""
    first = reps[0]["digests"]
    bad = set()
    for rep in reps[1:]:
        if len(rep["digests"]) != len(first):
            return len(first)
        bad.update(i for i, (a, b) in enumerate(zip(first, rep["digests"])) if a != b)
    return len(bad)


def end_to_end(reps) -> dict:
    # Host times at the reference host speed: each repetition's times are
    # scaled by how much slower than the reference its calibration ran.
    scales = [REF_CALIB_MS / r["calib_ms"] for r in reps]

    def median_over_reps(metric):
        return statistics.median(metric(r, k) for r, k in zip(reps, scales))

    # Op percentiles are taken within each repetition, then the median
    # over repetitions is reported.
    def op_ms(q):
        return median_over_reps(lambda r, k: percentile(r["op_latencies_s"], q) * k * 1e3)

    values = {
        "wall_s": median_over_reps(lambda r, k: r["wall_s"] * k),
        "ops_per_s": median_over_reps(lambda r, k: r["units"] / (r["wall_s"] * k)),
        "op_p50_ms": op_ms(50),
        "op_p90_ms": op_ms(90),
        "setup_s": median_over_reps(lambda r, k: r["setup_s"] * k),
        "peak_rss_mb": median_over_reps(lambda r, k: r["peak_rss_mb"]),
    }
    values.update(reps[0]["sim"])
    per_rep = len(reps[0]["op_latencies_s"])
    return values, {
        "op samples per repetition": per_rep,
        "op samples beyond p90": per_rep - 1 - int(0.9 * (per_rep - 1)),
        "repetitions": len(reps),
        "unscaled wall_s": statistics.median(r["wall_s"] for r in reps),
        "host.calib_ms": statistics.median(r["calib_ms"] for r in reps),
    }


def per_layer(base: dict, traced: dict) -> dict:
    # A layer the workload does not exercise reads 0.
    values = {name: 0 for name, _unit in PER_LAYER}
    values.update(traced["layers"])
    values.update(traced["counts"])
    values["host.calib_ms"] = statistics.median([base["calib_ms"], traced["calib_ms"]])
    values["trace.overhead_ratio"] = (traced["wall_s"] / traced["calib_ms"]) / (
        base["wall_s"] / base["calib_ms"]
    )
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout holding src/repro", file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + DEADLINE_S
    try:
        if args.trace:
            base = run_rep(args.workload, args.seed, False, deadline)
            traced = run_rep(args.workload, args.seed, True, deadline)
            reps = [base, traced]
            values = per_layer(base, traced)
            table, extra = PER_LAYER, {"accounting errors": len(traced["accounting_errors"])}
        else:
            reps = []
            while True:
                reps.append(run_rep(args.workload, args.seed, False, deadline))
                elapsed = time.monotonic() - start
                next_end = elapsed * (len(reps) + 1) / len(reps)
                if len(reps) >= MIN_REPS and next_end > args.seconds:
                    break
                if next_end > DEADLINE_S * 0.8:
                    break
            values, extra = end_to_end(reps)
            table = END_TO_END
    except RepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failures = [f for rep in reps for f in rep["failures"]]
    failed = len(failures) + consistency_failures(reps)
    if args.trace:
        failed += len(traced["accounting_errors"])
    # The simulated results of one seed must repeat exactly.
    sims_repeat = all(rep["sim"] == reps[0]["sim"] for rep in reps)
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    for err in reps[-1].get("accounting_errors", [])[:20]:
        print(f"ACCOUNTING {err}", file=sys.stderr)

    metrics = {}
    for name, unit in table:
        value = values.get(name)
        metrics[name] = {"value": value, "unit": unit}
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{args.workload:12s} {name:40s} {shown:>14s} {unit}")
    for name, value in extra.items():
        print(f"{args.workload:12s} {name:40s} {value:>14.6g}")
    if args.workload == "paper" and not args.trace:
        print(
            f"{args.workload:12s} {'sim.bwap_speedup_geomean':40s} "
            f"{reps[0]['counts']['core.dwp.speedup_geomean']:>14.6g} x"
        )
    result = {
        "correct": failed == 0 and sims_repeat,
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
