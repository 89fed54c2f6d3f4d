"""Run observability shared by every layer.

Kept below :mod:`repro.experiments` so the lower layers (the fleet
scheduler's run loop) can report progress without importing the
experiment drivers.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Optional

from repro.store import get_default_store


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
