"""Benchmark-harness configuration.

Every benchmark regenerates one of the paper's figures or tables and
prints the same rows/series the paper reports. Experiments are expensive
end-to-end simulations, so each runs exactly once per benchmark
(``rounds=1``) — the timing numbers locate the cost of each experiment,
and the printed tables plus in-bench assertions carry the reproduction
content. Run with::

    pytest benchmarks/ --benchmark-only

The floor-asserting benchmarks additionally feed the in-repo perf ledger:
:func:`write_ledger` emits ``BENCH_<name>.json`` (metrics, git SHA, wall
time) on *every* run — no flag — so the performance trajectory lives in
the repository and ``bwap-repro bench-compare`` can fail a build on a
regression long before a hard ``>=Nx`` floor trips. Files land next to
the committed ledger (the repo root) by default; set ``BWAP_LEDGER_DIR``
to divert them (CI writes to a scratch dir and diffs against the
committed copies).

Speed guards are absolute throughputs normalised by the host's speed
(:func:`calibrated_rate`): units of work done in the time of one
calibration chunk of the repo benchmark (``perfbench/rep.py``).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Tuple

import pytest

#: Layout version of the ledger files.
LEDGER_SCHEMA = 1

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture
def once():
    """Fixture returning the single-shot benchmark runner."""
    return run_once


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def ledger_dir() -> Path:
    """Where ledger files are written: ``BWAP_LEDGER_DIR`` or the repo root."""
    env = os.environ.get("BWAP_LEDGER_DIR")
    return Path(env) if env else REPO_ROOT


def _calib_chunk() -> Callable[[], float]:
    """The repo benchmark's calibration chunk, ``perfbench/rep.py::calib_chunk``."""
    perfbench = str(REPO_ROOT / "perfbench")
    sys.path.insert(0, perfbench)  # rep.py imports its sibling ``cases``
    try:
        import rep
    finally:
        sys.path.remove(perfbench)
    return rep.calib_chunk


#: Calibration chunks timed before and after each timed repeat.
_CALIB_SAMPLES = 15


def calibrated_rate(run: Callable[[], Tuple[float, float]], repeats: int = 5) -> Dict[str, float]:
    """Host-normalised throughput of ``run``, the median of ``repeats``.

    ``run()`` does the work once and returns ``(units, wall_s)``. Each
    repeat is bracketed by calibration chunks; its throughput in units per
    second, times the median chunk's seconds, is the units done in the
    time of one chunk — a higher-is-better number that a slower host
    moves far less than raw units per second. Returns ``per_chunk`` (the
    guardable median), ``per_s`` and ``calib_chunk_ms`` (the medians it
    came from), and ``wall_s``, the repeats' total.
    """
    calib = _calib_chunk()
    per_chunk, per_s, chunks, walls = [], [], [], []
    for _ in range(repeats):
        samples = [calib() for _ in range(_CALIB_SAMPLES)]
        units, wall = run()
        samples += [calib() for _ in range(_CALIB_SAMPLES)]
        chunk = statistics.median(samples)
        per_s.append(units / wall)
        per_chunk.append(units / wall * chunk)
        chunks.append(chunk)
        walls.append(wall)
    return {
        "per_chunk": statistics.median(per_chunk),
        "per_s": statistics.median(per_s),
        "calib_chunk_ms": 1e3 * statistics.median(chunks),
        "wall_s": sum(walls),
    }


def timed(fn: Callable[[], object]) -> Tuple[object, float]:
    """``(fn(), wall seconds)``."""
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def write_ledger(name: str, metrics, *, guarded=(), skipped=(), wall_s=None) -> Path:
    """Emit ``BENCH_<name>.json`` atomically and return its path.

    ``metrics`` is a flat dict of numbers; ``guarded`` names the
    higher-is-better metrics ``bench-compare`` defends against regression
    (hit rates, and throughputs normalised by :func:`calibrated_rate`;
    raw per-second numbers are recorded for the trajectory but not
    compared). ``skipped`` names guarded metrics a quick run leaves out
    because they are too costly for it; ``bench-compare`` reports them
    instead of failing.
    """
    directory = ledger_dir()
    directory.mkdir(parents=True, exist_ok=True)
    unknown = [g for g in guarded if g not in metrics and g not in skipped]
    if unknown:
        raise KeyError(f"guarded metrics missing from ledger {name!r}: {unknown}")
    entry = {
        "name": name,
        "schema": LEDGER_SCHEMA,
        "git_sha": _git_sha(),
        "quick": bool(os.environ.get("BWAP_BENCH_QUICK")),
        "wall_s": None if wall_s is None else float(wall_s),
        "metrics": {k: float(v) for k, v in metrics.items()},
        "guarded": list(guarded),
        "skipped": list(skipped),
    }
    path = directory / f"BENCH_{name}.json"
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(entry, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


@pytest.fixture
def ledger():
    """Fixture handing benchmarks the ledger writer."""
    return write_ledger
