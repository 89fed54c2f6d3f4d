"""Per-record objects: the reference for the columnar fleet records.

The scheduler once kept one :class:`FleetCompletion` object per finished
app, built from the app's occupancy record when its backend finished it,
and one ``(app_id, mid, workers)`` tuple per placement; it dropped a lost
completion report from its machine's list and sorted the survivors by
``(finish_s, app_id)``. :func:`record_objects` rebuilds exactly those
lists from hooks on a live run, so the production views over the run's
struct-of-arrays buffer can be compared with them field by field. A
record's work is the arrival's ``ArrivalTrace.work_bytes``, the value the
scheduler admits the app with.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.fleet.backend import FleetCompletion
from repro.fleet.scheduler import FleetScheduler


def record_objects(sched: FleetScheduler) -> Callable[[], Tuple[list, list]]:
    """Hook ``sched`` (before its run) to build the per-record objects;
    the returned callable gives ``(placements, completions)`` after it."""
    trace = sched.trace
    placements: List[tuple] = []
    done: Dict[int, List[FleetCompletion]] = {b.mid: [] for b in sched.backends}
    admit = sched._admit

    def recording_admit(r, b, workers, *args):
        admit(r, b, workers, *args)
        placements.append((trace.app_id(r.idx), b.mid, workers))

    sched._admit = recording_admit
    for b in sched.backends:
        finish, forget = b._finish, b.forget_app

        def recording_finish(rec, finish_s, outcome=None, b=b, finish=finish):
            finish(rec, finish_s, outcome)
            deadline_s = rec.arrival_s + b.slo_slowdown * rec.ideal_s
            done[b.mid].append(
                FleetCompletion(
                    app_id=rec.app_id,
                    mid=b.mid,
                    machine_class=b.class_name,
                    workers=rec.workers,
                    threads=rec.threads,
                    arrival_s=rec.arrival_s,
                    placed_s=rec.placed_s,
                    finish_s=finish_s,
                    ideal_s=rec.ideal_s,
                    slowdown=(finish_s - rec.arrival_s) / rec.ideal_s,
                    wait_s=rec.placed_s - rec.arrival_s,
                    attempts=rec.attempts,
                    deadline_s=deadline_s,
                    slo_ok=finish_s <= deadline_s,
                    work_bytes=trace.work_bytes(rec.idx),
                    outcome=outcome,
                )
            )

        def recording_forget(app_id, b=b, forget=forget):
            forget(app_id)
            # The lost report is the machine's latest record of the app.
            records = done[b.mid]
            del records[max(k for k, c in enumerate(records) if c.app_id == app_id)]

        b._finish = recording_finish
        b.forget_app = recording_forget

    def result() -> Tuple[list, list]:
        completions = [c for records in done.values() for c in records]
        completions.sort(key=lambda c: (c.finish_s, c.app_id))
        return placements, completions

    return result
