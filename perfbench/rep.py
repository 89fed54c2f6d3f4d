"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so module-level caches
of the program (machines, canonical profiles, shared fleet classes and
their solver caches) never carry warm state from one repetition into the
next. It prints one JSON object as the last line of its standard output.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/rep.py --workload paper --seed 0 --trace 0
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import tempfile  # noqa: E402

import cases  # noqa: E402

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")
#: Scratch space inside the checkout: per-repetition result stores (removed
#: when the repetition ends) and the traced run's span files.
SCRATCH_ROOT = ".perfbench"
GOLDEN_MISMATCH = "output differs from the recorded golden digest"


#: Iterations of one calibration chunk, about 1 ms of pure-Python work.
CALIB_ITERS = 12_000
#: How often the host's speed is sampled while the ops run.
SAMPLE_EVERY_S = 0.05


def calib_chunk() -> float:
    """Seconds one fixed pure-Python calibration chunk takes."""
    t = time.perf_counter()
    acc = 0
    for i in range(CALIB_ITERS):
        acc += i * i
    return time.perf_counter() - t


class HostSpeed:
    """Samples the host's speed in the ops' own thread while they run.

    A timer signal interrupts the main thread every
    :data:`SAMPLE_EVERY_S` to time one calibration chunk, so the samples
    see the same core, and the same neighbours on it, as the ops. The
    chunks' time is kept apart so ops can be timed without it.
    """

    def __enter__(self):
        self.samples = []
        self.spent_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def _sample(self, _signum, _frame):
        t = time.perf_counter()
        self.samples.append(calib_chunk())
        self.spent_s += time.perf_counter() - t

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.samples.append(calib_chunk())

    @property
    def chunk_ms(self) -> float:
        return 1e3 * sum(self.samples) / len(self.samples)


def load_goldens(workload: str, seed: int):
    """Recorded per-op digests, or None when ``seed`` has none."""
    if seed != cases.DEFAULT_SEED:
        return None
    with open(GOLDENS) as fh:
        return json.load(fh).get(workload)


def check(case, outs, goldens):
    """Digests of every op's output plus the ops that failed a check."""
    digests = [cases.digest(case.project(i, out)) for i, out in enumerate(outs)]
    failures = []
    for i, out in enumerate(outs):
        errs = case.invariant_errors(i, out)
        if goldens is not None and (i >= len(goldens) or digests[i] != goldens[i]):
            errs.append(GOLDEN_MISMATCH)
        if errs:
            failures.append(f"{case.label(i)}: {'; '.join(errs)}")
    return digests, failures


def repetition(workload: str, seed: int, traced: bool, scratch: str) -> dict:
    case = cases.CASES[workload](seed)
    rec = None
    if traced:
        import spans

        rec = spans.SpanRecorder()
        spans.install(rec)
        with rec.op_scope(0, "setup"):
            case.setup(scratch)
    else:
        case.setup(scratch)
    setup_s = time.perf_counter() - _T0
    # Set-up state lives for the whole repetition: freezing it keeps the
    # per-op collections below down to the ops' own garbage.
    gc.collect()
    gc.freeze()

    outs, latencies = [], []
    with HostSpeed() as host:
        for i in range(case.num_ops):
            # Each op starts from a collected heap: no earlier op's garbage
            # is swept inside its timing or counted in its memory peak.
            gc.collect()
            scope = rec.op_scope(i + 1) if rec is not None else contextlib.nullcontext()
            spent = host.spent_s
            t = time.perf_counter()
            with scope:
                out = case.run_op(i)
            latencies.append(time.perf_counter() - t - (host.spent_s - spent))
            outs.append(out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    digests, failures = check(case, outs, load_goldens(workload, seed))
    result = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "setup_s": setup_s,
        "wall_s": sum(latencies),
        "op_latencies_s": latencies,
        "units": case.units_per_op * case.num_ops,
        "peak_rss_mb": peak_rss_mb,
        "calib_ms": host.chunk_ms,
        "attempted": case.num_ops,
        "digests": digests,
        "failures": failures,
        "sim": case.sim_metrics(outs),
        "counts": case.counts(outs),
    }
    if rec is not None:
        summary = spans.summarise(rec.arrays())
        result["accounting_errors"] = spans.check_accounting(summary)
        result["layers"] = spans.layer_metrics(summary, rec.counts)
        rec.save(os.path.join(SCRATCH_ROOT, f"spans-{workload}-seed{seed}.npz"))
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(cases.CASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.makedirs(SCRATCH_ROOT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"store-{args.workload}-", dir=SCRATCH_ROOT)
    # Anything that falls back to the default result store writes here,
    # inside the checkout, and is removed with the repetition.
    os.environ["BWAP_STORE_DIR"] = scratch
    try:
        result = repetition(args.workload, args.seed, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
