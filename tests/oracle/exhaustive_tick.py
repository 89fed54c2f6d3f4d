"""Exhaustive greedy tick: the reference for the state-keyed fleet tick.

Apps of a tick's batch are placed in arrival order. Each scores every
(machine x worker-set) candidate on the machines not yet claimed this
tick with one scalar :func:`repro.memsim.solve` of the machine's resident
``Consumer`` set plus the candidate's (no table, no batching), and takes
the first maximum of :meth:`OracleScheduler._rank_key`. The production
tick reads the same floats from rows keyed by machine state and must
reproduce this one bitwise: placements, completions, and the fault draws
taken in decision order.
"""

from __future__ import annotations

from repro.fleet.backend import MachineBackend
from repro.fleet.scheduler import FleetScheduler
from repro.memsim import solve

from tests.oracle.flow_backend import resident_consumers


class OracleScheduler(FleetScheduler):
    """Fleet scheduler whose tick re-solves every candidate from scratch."""

    def _rank_key(self, backend: MachineBackend, score: float, k: int) -> tuple:
        """Larger key wins; ties break toward lower machine id, smaller k."""
        d = self.config.discipline
        if d == "best-rate":
            return (score, -backend.mid, -k)
        if d == "first-fit":
            return (-backend.mid, -k)
        # least-loaded: most free nodes first, then predicted rate.
        return (len(backend.free_nodes()), score, -backend.mid, -k)

    def _tick(self, batch, scales, now, health, placements, pending, inflight, counts):
        injector = self.injector
        trace = self.trace
        # A claim removes its machine from the tick, so every machine an
        # app scores still holds the residents it had when the tick began.
        resident = {b.mid: resident_consumers(b) for b in self.backends if b.num_live}
        # first-fit ranks on (-mid, -k) alone, so it needs no scores.
        scored = self.config.discipline != "first-fit"
        claimed = set()
        for r in batch:
            app_id = trace.app_id(r.idx)
            workload = trace.catalog[int(trace.kind_idx[r.idx])]
            best = None
            for b in self.backends:
                if b.mid in claimed or injector is not None and (
                    injector.crashed_at(b.mid, now) or not health.allows(b.mid, now)
                ):
                    continue
                for workers in self._slot_row(b)[0]:
                    if workers is None:
                        continue
                    score = 0.0
                    if scored:
                        candidate = b.candidate_consumers(app_id, workload, workers)[0]
                        alloc = solve(
                            b.machine,
                            resident.get(b.mid, []) + candidate,
                            capacity_scale=scales.get(b.mid),
                        )
                        counts["solver_calls"] += 1
                        counts["entries_scored"] += 1
                        score = alloc.app_total_rate(app_id)
                    key = self._rank_key(b, score, len(workers))
                    if best is None or key > best[0]:
                        best = (key, b, workers)
            if best is None:
                continue  # no feasible machine this tick
            if injector is not None and injector.admission_rejected():
                counts["admission_rejections"] += 1
                continue  # stays pending; retried next tick
            _key, b, workers = best
            self._admit(r, b, workers, now, placements, pending, inflight)
            claimed.add(b.mid)
