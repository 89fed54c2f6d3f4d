"""The benchmark's workloads: inputs from a seed, ops, and output checks.

Each workload is a closed loop with one op in flight. Its inputs (scenario
seeds, the arrival trace, the chaos plan, the scheduler seed) are all drawn
from the runner's ``--seed``; the program only receives the generated
inputs. Outputs are checked exactly against recorded digests on
:data:`DEFAULT_SEED` and by invariants on every seed.

The program is imported lazily, inside :meth:`Case.setup`, so that import
time counts as set-up time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Dict, List, Optional

import numpy as np

#: The seed the golden digests in ``goldens.json`` were recorded for.
DEFAULT_SEED = 0

#: The paper grid of Fig. 2 and Fig. 3a/b: machine A co-scheduled with
#: 1/2/4 workers and machine B with 1/2, crossed with the five Table-I
#: benchmarks and the six policies -- 25 cells, 150 scenarios.
PAPER_GRID = (("A", (1, 2, 4)), ("B", (1, 2)))

#: The 64-machine heterogeneous fleet and its 20k-arrival Poisson trace.
FLEET_MIX = (("A", 16), ("B", 16), ("dual", 16), ("sym4", 16))
FLEET_ARRIVALS = 20_000
FLEET_RATE_PER_S = 8.0
FLEET_TICK_S = 2.0
FLEET_MAX_TIME = 10_000_000.0
#: Chaos windows land inside the span the trace keeps the fleet busy.
CHAOS_HORIZON_S = 1.5 * FLEET_ARRIVALS / FLEET_RATE_PER_S


def digest(obj) -> str:
    """Exact digest of a JSON-able projection of an output.

    ``json`` writes floats with ``repr``, which round-trips exactly, so a
    one-ulp change in any simulated value changes the digest.
    """
    raw = json.dumps(obj, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(raw.encode()).hexdigest()[:16]


def _finite_pos(x) -> bool:
    return x is not None and math.isfinite(x) and x > 0


class Case:
    """One workload: ``setup`` builds inputs, ``run_op(i)`` runs op ``i``."""

    name = ""
    #: What ``ops_per_s`` counts per op.
    units_per_op = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    @property
    def num_ops(self) -> int:
        raise NotImplementedError

    def setup(self, scratch_dir: str) -> None:
        raise NotImplementedError

    def run_op(self, i: int):
        raise NotImplementedError

    def label(self, i: int) -> str:
        raise NotImplementedError

    def project(self, i: int, out) -> object:
        """The JSON-able part of op ``i``'s output the digest covers."""
        raise NotImplementedError

    def invariant_errors(self, i: int, out) -> List[str]:
        raise NotImplementedError

    def sim_metrics(self, outs: List[object]) -> Dict[str, float]:
        raise NotImplementedError

    def counts(self, outs: List[object]) -> Dict[str, Optional[float]]:
        """Per-layer counts read off the program's own results; counts of
        layers the workload does not exercise are left out (they read 0)."""
        raise NotImplementedError


class PaperCase(Case):
    """150 scenarios through ``run_spec``, each into a fresh result store."""

    name = "paper"

    @property
    def num_ops(self) -> int:
        return len(self.cells) * len(self.policies)

    def __init__(self, seed: int):
        super().__init__(seed)
        #: One simulator seed per (machine, workers, benchmark) cell, shared
        #: by its six policies as the figure runners share theirs.
        self.cell_seeds = [int(s) for s in self.rng.integers(0, 2**31 - 1, size=25)]

    def setup(self, scratch_dir: str) -> None:
        from repro.engine import pick_worker_nodes, pin_threads
        from repro.experiments.common import (
            ALL_POLICIES,
            ScenarioSpec,
            get_canonical,
            get_machine,
            run_spec,
        )
        from repro.store import ResultStore
        from repro.workloads import paper_benchmarks

        self._run_spec = run_spec
        self.policies = tuple(ALL_POLICIES)
        self.store = ResultStore(scratch_dir)
        self.cells = []
        self.specs = []
        self.ideal_s = []
        benchmarks = paper_benchmarks()
        for mname, worker_counts in PAPER_GRID:
            machine = get_machine(mname)
            canonical = get_canonical(machine)
            for n in worker_counts:
                workers = pick_worker_nodes(machine, n)
                # The install-time profile of this worker set.
                canonical.weights(workers)
                threads = len(pin_threads(machine, workers))
                for wl in benchmarks:
                    seed = self.cell_seeds[len(self.cells)]
                    self.cells.append((mname, n, wl.name))
                    for policy in self.policies:
                        self.specs.append(
                            ScenarioSpec(
                                machine=mname,
                                workload=wl,
                                num_workers=n,
                                policy=policy,
                                coscheduled=True,
                                seed=seed,
                            )
                        )
                        self.ideal_s.append(wl.ideal_time_s(threads, n))
        if len(self.cells) != len(self.cell_seeds):
            raise RuntimeError(
                f"paper grid has {len(self.cells)} cells, expected {len(self.cell_seeds)}"
            )

    def run_op(self, i: int):
        return self._run_spec(self.specs[i], store=self.store)

    def label(self, i: int) -> str:
        mname, n, bench = self.cells[i // len(self.policies)]
        return f"{mname}/{n}W/{bench}/{self.policies[i % len(self.policies)]}"

    def project(self, i: int, out) -> object:
        def num(v):
            if v is None or isinstance(v, bool):
                return v
            return int(v) if isinstance(v, (int, np.integer)) else float(v)

        return [
            num(out.exec_time_s),
            num(out.mean_stall),
            num(out.throughput_gbps),
            num(out.pages_moved),
            num(out.final_dwp),
            num(out.tuner_iterations),
        ]

    def invariant_errors(self, i: int, out) -> List[str]:
        errs = []
        if not _finite_pos(out.exec_time_s):
            errs.append(f"exec_time_s {out.exec_time_s!r} is not finite positive")
        if not 0.0 <= out.mean_stall <= 1.0:
            errs.append(f"mean_stall {out.mean_stall!r} outside [0, 1]")
        if not (math.isfinite(out.throughput_gbps) and out.throughput_gbps >= 0):
            errs.append(f"throughput_gbps {out.throughput_gbps!r} invalid")
        if out.pages_moved < 0:
            errs.append(f"pages_moved {out.pages_moved!r} negative")
        tuned = self.specs[i].policy in ("bwap", "bwap-uniform")
        if tuned:
            if not out.tuner_iterations or out.tuner_iterations < 1:
                errs.append(f"tuner ran {out.tuner_iterations!r} iterations")
            if out.final_dwp is None or not 0.0 <= out.final_dwp <= 1.0:
                errs.append(f"final_dwp {out.final_dwp!r} outside [0, 1]")
        elif out.tuner_iterations is not None:
            errs.append("static policy reports tuner iterations")
        return errs

    def bwap_speedup_geomean(self, outs: List[object]) -> float:
        """Geomean over the 25 cells of uniform-workers over bwap time."""
        k = len(self.policies)
        uw = self.policies.index("uniform-workers")
        bw = self.policies.index("bwap")
        logs = [
            math.log(outs[c * k + uw].exec_time_s / outs[c * k + bw].exec_time_s)
            for c in range(len(self.cells))
        ]
        return math.exp(sum(logs) / len(logs))

    def sim_metrics(self, outs: List[object]) -> Dict[str, float]:
        slowdowns = [o.exec_time_s / ideal for o, ideal in zip(outs, self.ideal_s)]
        work = [spec.workload.work_bytes for spec in self.specs]
        done = sum(w for w, o in zip(work, outs) if _finite_pos(o.exec_time_s))
        return {
            "sim.p99_slowdown": float(np.percentile(slowdowns, 99)),
            "sim.goodput": done / sum(work),
        }

    def counts(self, outs: List[object]) -> Dict[str, Optional[float]]:
        return {
            "core.dwp.iterations": sum(o.tuner_iterations or 0 for o in outs),
            "core.dwp.speedup_geomean": self.bwap_speedup_geomean(outs),
            "memsim.migration.pages_moved": sum(int(o.pages_moved) for o in outs),
        }


class FleetChaosCase(Case):
    """One ``FleetScheduler.run`` over the 20k-arrival trace under the
    full-intensity chaos plan with requeue+checkpoint recovery."""

    name = "fleet-chaos"
    units_per_op = FLEET_ARRIVALS

    @property
    def num_ops(self) -> int:
        return 1

    def __init__(self, seed: int):
        super().__init__(seed)
        self.trace_seed, self.chaos_seed, self.sched_seed = (
            int(s) for s in self.rng.integers(0, 2**31 - 1, size=3)
        )

    def setup(self, scratch_dir: str) -> None:
        # Module attribute lookups (not ``from`` imports) so that the
        # traced run's patched entry points are the ones called.
        import repro.fleet as fleet
        import repro.workloads.arrivals as arrivals
        from repro.engine import pick_worker_nodes

        del scratch_dir  # the fleet keeps no store
        config_fields = {f.name for f in dataclasses.fields(fleet.SchedulerConfig)}
        kwargs = {"tick_s": FLEET_TICK_S, "recovery": "requeue+checkpoint"}
        if "scoring" in config_fields:
            kwargs["scoring"] = "incremental"
        faults = fleet.chaos_plan(
            sum(c for _n, c in FLEET_MIX), CHAOS_HORIZON_S, seed=self.chaos_seed
        )
        config = fleet.SchedulerConfig(**kwargs)
        nodes = fleet.build_fleet(FLEET_MIX)
        for machine in {id(node.machine): node.machine for node in nodes}.values():
            canonical = fleet.canonical_for(machine)
            for k in config.worker_counts:
                canonical.weights(pick_worker_nodes(machine, k))
        self.trace = arrivals.build_trace(
            arrivals.TraceSpec(
                kind="poisson",
                rate_per_s=FLEET_RATE_PER_S,
                arrivals=FLEET_ARRIVALS,
                seed=self.trace_seed,
            )
        )
        self.scheduler = fleet.FleetScheduler(
            nodes, self.trace, config, seed=self.sched_seed, faults=faults
        )

    def run_op(self, i: int):
        return self.scheduler.run(FLEET_MAX_TIME)

    def label(self, i: int) -> str:
        return self.name

    def project(self, i: int, out) -> object:
        placements = [[a, int(m), [int(w) for w in ws]] for a, m, ws in out.placements]
        completions = [
            [
                c.app_id,
                int(c.mid),
                [int(w) for w in c.workers],
                float(c.arrival_s),
                float(c.placed_s),
                float(c.finish_s),
                float(c.ideal_s),
                int(c.attempts),
                bool(c.slo_ok),
            ]
            for c in out.completions
        ]
        return [placements, completions]

    def invariant_errors(self, i: int, out) -> List[str]:
        errs = []
        n = len(self.trace)
        stranded = out.stranded
        requeues = out.requeues
        completed = len(out.completions)
        if out.arrivals != n:
            errs.append(f"arrivals {out.arrivals} != trace length {n}")
        if out.placed != len(out.placements):
            errs.append(f"placed {out.placed} != {len(out.placements)} placements")
        # Arrival conservation: the trace drains before FLEET_MAX_TIME, so
        # every arrival completed, was stranded, or is still pending.
        if completed + stranded + out.pending_left != n:
            errs.append(
                f"conservation: {completed} completed + {stranded} stranded + "
                f"{out.pending_left} pending != {n} arrivals"
            )
        # Every placement ends in a completion, a requeue or a strand.
        if out.placed != completed + requeues + stranded:
            errs.append(
                f"placements: {out.placed} != {completed} completed + "
                f"{requeues} requeued + {stranded} stranded"
            )
        if len({c.app_id for c in out.completions}) != completed:
            errs.append("an app completed more than once")
        for c in out.completions:
            if not (
                _finite_pos(c.ideal_s)
                and _finite_pos(c.slowdown)
                and c.arrival_s <= c.placed_s <= c.finish_s
                and math.isfinite(c.finish_s)
            ):
                errs.append(f"completion {c.app_id} has invalid times")
                break
        return errs

    def sim_metrics(self, outs: List[object]) -> Dict[str, float]:
        out = outs[0]
        return {
            "sim.p99_slowdown": float(
                np.percentile([c.slowdown for c in out.completions], 99)
            ),
            "sim.goodput": out.completed_work_bytes / out.arrived_work_bytes,
        }

    def counts(self, outs: List[object]) -> Dict[str, Optional[float]]:
        out = outs[0]
        scored = out.entries_scored
        # Optional observability fields: absent means "missing", not 0.
        memo_hits = getattr(out, "memo_hits", None)
        return {
            "fleet.scheduler.ticks": out.ticks,
            "fleet.scheduler.candidates_scored": scored,
            "fleet.scheduler.memo_hits": memo_hits,
            "fleet.scheduler.bound_pruned": getattr(out, "bound_pruned", None),
            "fleet.scheduler.memo_hit_ratio": (
                None if memo_hits is None else memo_hits / max(memo_hits + scored, 1)
            ),
            "fleet.scheduler.scored_per_arrival": scored / out.arrivals,
            "fleet.faults.requeues": out.requeues,
            "fleet.faults.stranded": out.stranded,
            "fleet.faults.admission_rejections": out.admission_rejections,
        }


CASES = {case.name: case for case in (PaperCase, FleetChaosCase)}
