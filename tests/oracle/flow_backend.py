"""Dict-walking fluid backend: the reference for :class:`FlowBackend`.

Each running app keeps its ``Consumer`` list and a per-node dict of
remaining bytes; every advance walks those dicts and solves the resident
``Consumer`` set directly with :func:`repro.memsim.solve` (no canonical
cache). The production backend keeps shared consumer rows instead, and
must reproduce this one bitwise: completions, eviction fractions,
resident consumers and ``state_version``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.fleet.backend import FlowBackend, MachineBackend
from repro.memsim import Allocation, Consumer, consumer_rows, solve


def resident_consumers(backend: MachineBackend) -> List[Consumer]:
    """The resident ``Consumer`` set of any backend, in resident order.

    A production :class:`FlowBackend` keeps rows, not consumers: its rows
    are rebuilt as ``Consumer`` objects of their real apps, whose scalar
    :func:`solve` is the reference for the backend's table-miss rates.
    """
    if isinstance(backend, FlowBackend):
        store = consumer_rows(backend.machine)
        return [
            store.consumer(backend._tpl[r], app_id)
            for app_id, rows in backend._app_rows.items()
            for r in rows
        ]
    return backend.resident_consumers()


class _FlowApp:
    __slots__ = ("rec", "consumers", "remaining", "useful", "total_bytes")

    def __init__(self, rec, consumers, remaining, useful, total_bytes):
        self.rec = rec
        self.consumers = consumers
        self.remaining = remaining
        self.useful = useful
        self.total_bytes = total_bytes


class OracleFlowBackend(MachineBackend):
    """Fluid execution over per-app ``Consumer`` lists and dicts."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._flow: Dict[str, _FlowApp] = {}
        self._solve_slot: Optional[Tuple[tuple, Allocation]] = None

    def admit(self, app_id, workload, workers, arrival_s, *, idx, work_bytes=None,
              resume_frac=0.0, attempts=1, template=None):
        # The reference derives everything from the full per-arrival
        # workload; it ignores the template the scheduler offers.
        del template
        if work_bytes is not None:
            workload = dataclasses.replace(workload, work_bytes=work_bytes)
        consumers, threads, _tpn = self.candidate_consumers(app_id, workload, workers)
        rec = self._register(
            app_id, idx, workers, arrival_s, threads,
            workload.ideal_time_s(threads, len(workers)), attempts,
        )
        total_demand = sum(c.demand for c in consumers)
        exec_bytes = (
            workload.work_bytes
            if resume_frac == 0.0
            else workload.work_bytes * (1.0 - resume_frac)
        )
        remaining = {c.node: exec_bytes * (c.demand / total_demand) for c in consumers}
        self._flow[app_id] = _FlowApp(
            rec, consumers, remaining, workload.node_efficiency(len(workers)), exec_bytes
        )

    def resident_consumers(self) -> List[Consumer]:
        return [
            c
            for app in self._flow.values()
            for c in app.consumers
            if app.remaining[c.node] > 0.0
        ]

    def resident_rows(self) -> List[int]:
        return consumer_rows(self.machine).add_live(self.resident_consumers())

    def _evict_one(self, app_id: str) -> float:
        app = self._flow.pop(app_id)
        if app.total_bytes <= 0.0:
            return 1.0
        left = sum(app.remaining.values())
        return min(1.0, max(0.0, 1.0 - left / app.total_bytes))

    def _solve(self) -> Allocation:
        # Keyed like the production slot: a worker that runs dry without a
        # version bump keeps the allocation solved before it did.
        scale = self.capacity_scale
        key = (self.state_version, None if scale is None else scale.tobytes())
        if self._solve_slot is None or self._solve_slot[0] != key:
            alloc = solve(self.machine, self.resident_consumers(), capacity_scale=scale)
            self._solve_slot = (key, alloc)
        return self._solve_slot[1]

    def advance(self, to):
        alloc = None
        while True:
            if not self._flow:
                self.now = to
                return
            if self.now >= to:
                return
            if alloc is None:
                alloc = self._solve()
            dt = to - self.now
            speeds: Dict[Tuple[str, int], float] = {}
            for app in self._flow.values():
                factor = app.useful * 1e9
                for c in app.consumers:
                    rem = app.remaining[c.node]
                    if rem <= 0.0:
                        continue
                    speed = alloc.rate(c.app_id, c.node) * factor
                    speeds[(c.app_id, c.node)] = speed
                    if speed > 0.0:
                        need = rem / speed
                        if need < dt:
                            dt = need
            self.now += dt
            finished_any = False
            for app_id in list(self._flow):
                app = self._flow[app_id]
                for c in app.consumers:
                    rem = app.remaining[c.node]
                    if rem <= 0.0:
                        continue
                    speed = speeds[(c.app_id, c.node)]
                    if speed > 0.0 and rem / speed <= dt:
                        app.remaining[c.node] = 0.0
                        self.state_version += 1
                    else:
                        app.remaining[c.node] = max(rem - speed * dt, 0.0)
                if all(v <= 0.0 for v in app.remaining.values()):
                    self._finish(app.rec, self.now)
                    del self._flow[app_id]
                    finished_any = True
            if finished_any:
                alloc = None
