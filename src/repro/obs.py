"""Run observability and fan-out shared by every layer.

Kept below :mod:`repro.experiments` so the lower layers (the fleet
scheduler's run loop, the learned warm-start's dataset build) can report
progress and fan work out across processes without importing the
experiment drivers.
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.store import get_default_store

#: Scenario-level parallelism used when a runner is not given an explicit
#: ``jobs`` argument. 1 = serial. Set via :func:`set_default_jobs` (the CLI's
#: ``--jobs`` flag) or the ``BWAP_JOBS`` environment variable.
_DEFAULT_JOBS = max(1, int(os.environ.get("BWAP_JOBS", "1")))


def set_default_jobs(jobs: int) -> None:
    """Set the process count sweeps use when ``jobs`` is not passed."""
    global _DEFAULT_JOBS
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    _DEFAULT_JOBS = jobs


def get_default_jobs() -> int:
    """Current default scenario-level parallelism."""
    return _DEFAULT_JOBS


class Heartbeat:
    """Opt-in stderr progress reporting for long sweeps.

    Enabled by setting ``BWAP_HEARTBEAT`` to a positive interval in
    seconds (the CLI's ``--heartbeat`` flag sets it); otherwise every call
    is a no-op, so default runs are byte-identical on both streams.
    Writes only to stderr — stdout and all computed results are untouched,
    and determinism is unaffected (the heartbeat reads the wall clock but
    feeds nothing back into the runs). In serial sweeps the line includes
    the result-store hit rate; parallel workers accumulate store
    statistics in their own processes, so there the line carries
    completed/total only.
    """

    def __init__(self, total: int, label: str = "run_specs"):
        raw = os.environ.get("BWAP_HEARTBEAT", "")
        try:
            interval = float(raw) if raw else 0.0
        except ValueError:
            interval = 0.0
        self.interval = interval
        self.total = total
        self.label = label
        self.enabled = interval > 0 and total > 0
        self._last = time.monotonic()

    def beat(self, done: int, *, force: Optional[bool] = None) -> None:
        """Emit a progress line if due (always on the final item).

        ``force`` overrides the final-item bypass: callers whose ``done``
        counter can sit at ``total`` across many calls (the fleet
        scheduler's completion count once the trace drains) pass
        ``force=False`` to stay on the interval, and ``force=True`` for
        their one terminal line.
        """
        if not self.enabled:
            return
        now = time.monotonic()
        if force is None:
            force = done >= self.total
        if not force and now - self._last < self.interval:
            return
        self._last = now
        extra = ""
        store = get_default_store()
        if store is not None and store.stats.lookups:
            extra = f", store {store.stats.summary()}"
        print(f"[{self.label}] {done}/{self.total}{extra}", file=sys.stderr)


_T = TypeVar("_T")
_R = TypeVar("_R")


def fan_out(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    *,
    jobs: Optional[int] = None,
    label: str = "run_specs",
) -> List[_R]:
    """Run ``fn`` over ``items``, across processes when ``jobs`` > 1.

    Results come back in input order regardless of completion order, so
    parallel and serial execution produce identical outputs (each item
    must carry its own seed). The opt-in :class:`Heartbeat` reports
    progress on stderr; when it is disabled the parallel path is a plain
    ``pool.map``, and when enabled the same futures are collected in
    submission order — outputs are identical either way.
    """
    items = list(items)
    jobs = _DEFAULT_JOBS if jobs is None else jobs
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    heartbeat = Heartbeat(len(items), label=label)
    if jobs == 1 or len(items) <= 1:
        out: List[_R] = []
        for i, item in enumerate(items):
            out.append(fn(item))
            heartbeat.beat(i + 1)
        return out
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        if not heartbeat.enabled:
            return list(pool.map(fn, items))
        futures = [pool.submit(fn, item) for item in items]
        done = 0
        for future in as_completed(futures):
            future.result()  # surface worker failures promptly
            done += 1
            heartbeat.beat(done)
        return [f.result() for f in futures]
