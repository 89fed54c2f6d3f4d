"""Fleet experiment: trace-driven cluster runs behind the result store.

A :class:`FleetSpec` declares the whole run — machine mix, arrival
trace, backend, scheduler knobs — and folds into a content fingerprint
exactly like a single-machine :class:`ScenarioSpec`, so fleet outcomes
persist in the same store and sweeps resume incrementally across
processes and ``--jobs`` workers.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.common import fan_out
from repro.experiments.report import format_table
from repro.fleet.cluster import build_fleet, class_machine
from repro.fleet.faults import FleetFaultPlan
from repro.fleet.scheduler import FleetResult, FleetScheduler, SchedulerConfig
from repro.store import (
    SCHEMA_VERSION,
    ResultStore,
    fingerprint,
    get_default_store,
)
from repro.workloads import TraceSpec, build_trace


@dataclass(frozen=True)
class FleetSpec:
    """One fleet run, picklable and content-addressable."""

    mix: Tuple[Tuple[str, int], ...] = (("A", 2), ("B", 2))
    trace: TraceSpec = TraceSpec()
    backend: str = "flow"
    policy: str = "bwap"
    dwp: float = 0.8
    discipline: str = "best-rate"
    scoring: str = "batched"
    tick_s: float = 5.0
    worker_counts: Tuple[int, ...] = (1, 2)
    max_pending_per_tick: int = 8
    seed: int = 42
    max_time: float = 1_000_000.0
    #: Fleet-level fault plan (``None`` = fault-free, byte-identical to a
    #: spec predating the fault layer except for the fingerprint).
    faults: Optional[FleetFaultPlan] = None
    recovery: str = "requeue"
    max_retries: int = 3
    retry_backoff_s: float = 20.0
    checkpoint_quantum: float = 0.25
    slo_slowdown: float = 4.0
    breaker_cooldown_s: float = 60.0

    def scheduler_config(self) -> SchedulerConfig:
        return SchedulerConfig(
            backend=self.backend,
            policy=self.policy,
            dwp=self.dwp,
            tick_s=self.tick_s,
            worker_counts=tuple(self.worker_counts),
            max_pending_per_tick=self.max_pending_per_tick,
            discipline=self.discipline,
            scoring=self.scoring,
            recovery=self.recovery,
            max_retries=self.max_retries,
            retry_backoff_s=self.retry_backoff_s,
            checkpoint_quantum=self.checkpoint_quantum,
            slo_slowdown=self.slo_slowdown,
            breaker_cooldown_s=self.breaker_cooldown_s,
        )


@dataclass(frozen=True)
class FleetOutcome:
    """Deterministic summary of one fleet run (store payload).

    Every field is a scalar or a (class, value) tuple list, so the JSON
    round trip is exact and a store-served outcome is bit-for-bit the
    recomputed one.
    """

    arrivals: int
    placed: int
    completed: int
    pending_left: int
    ticks: int
    solver_calls: int
    entries_scored: int
    end_time: float
    p50_slowdown: float
    p99_slowdown: float
    mean_slowdown: float
    p50_wait_s: float
    p99_wait_s: float
    mean_util: float
    min_util: float
    max_util: float
    util_by_class: Tuple[Tuple[str, float], ...]
    # ---- fault-tolerance metrics (zeros / 1.0 on a fault-free run) ---- #
    requeues: int = 0
    stranded: int = 0
    admission_rejections: int = 0
    completions_lost: int = 0
    #: Discarded work as a fraction of all submitted work.
    lost_work_frac: float = 0.0
    #: Completions past their SLO deadline over all completions.
    slo_violation_rate: float = 0.0
    availability: float = 1.0
    #: Completed original work over submitted work (1.0 when nothing
    #: arrived).
    goodput: float = 1.0
    # ---- incremental-scoring observability (zeros elsewhere) ---------- #
    memo_hits: int = 0

    def to_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {}
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if f.name == "util_by_class":
                payload[f.name] = {name: float(u) for name, u in v}
            elif isinstance(v, (int, np.integer)) and not isinstance(v, bool):
                payload[f.name] = int(v)
            else:
                payload[f.name] = float(v)
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "FleetOutcome":
        names = {f.name for f in dataclasses.fields(cls)}
        if set(payload) != names:
            raise ValueError(
                f"fleet payload keys {sorted(payload)} != schema {sorted(names)}"
            )
        fields = dict(payload)
        fields["util_by_class"] = tuple(
            sorted((str(k), float(v)) for k, v in fields["util_by_class"].items())
        )
        return cls(**fields)


def fleet_fingerprint(spec: FleetSpec) -> str:
    """Content fingerprint: the *resolved* machine topologies (so a
    re-registered machine class with different hardware re-keys every
    run), every other spec field, and the store schema version."""
    machines = tuple(
        (name, count, class_machine(name)) for name, count in spec.mix
    )
    rest = tuple(
        (f.name, getattr(spec, f.name))
        for f in dataclasses.fields(spec)
        if f.name != "mix"
    )
    return fingerprint("bwap.fleet_spec", SCHEMA_VERSION, machines, rest)


def outcome_from_result(result: FleetResult) -> FleetOutcome:
    """Fold a scheduler result into the storable summary."""
    slowdowns = np.array([c.slowdown for c in result.completions])
    waits = np.array([c.wait_s for c in result.completions])
    utils = np.array([result.utilization[mid] for mid in sorted(result.utilization)])
    by_class: Dict[str, List[float]] = {}
    for mid, util in result.utilization.items():
        by_class.setdefault(result.machine_class[mid], []).append(util)
    if len(slowdowns) == 0:
        p50 = p99 = mean_sl = p50w = p99w = 0.0
    else:
        p50 = float(np.percentile(slowdowns, 50))
        p99 = float(np.percentile(slowdowns, 99))
        mean_sl = float(slowdowns.mean())
        p50w = float(np.percentile(waits, 50))
        p99w = float(np.percentile(waits, 99))
    return FleetOutcome(
        arrivals=result.arrivals,
        placed=result.placed,
        completed=len(result.completions),
        pending_left=result.pending_left,
        ticks=result.ticks,
        solver_calls=result.solver_calls,
        entries_scored=result.entries_scored,
        end_time=float(result.end_time),
        p50_slowdown=p50,
        p99_slowdown=p99,
        mean_slowdown=mean_sl,
        p50_wait_s=p50w,
        p99_wait_s=p99w,
        mean_util=float(utils.mean()),
        min_util=float(utils.min()),
        max_util=float(utils.max()),
        util_by_class=tuple(
            sorted((name, float(np.mean(us))) for name, us in by_class.items())
        ),
        requeues=result.requeues,
        stranded=result.stranded,
        admission_rejections=result.admission_rejections,
        completions_lost=result.completions_lost,
        lost_work_frac=(
            float(result.lost_work_bytes / result.arrived_work_bytes)
            if result.arrived_work_bytes > 0
            else 0.0
        ),
        slo_violation_rate=(
            float(result.slo_violations / len(result.completions))
            if result.completions
            else 0.0
        ),
        availability=float(result.availability),
        goodput=(
            float(result.completed_work_bytes / result.arrived_work_bytes)
            if result.arrived_work_bytes > 0
            else 1.0
        ),
        memo_hits=result.memo_hits,
    )


def _run_fleet_cold(spec: FleetSpec) -> FleetOutcome:
    fleet = build_fleet(spec.mix)
    trace = build_trace(spec.trace)
    scheduler = FleetScheduler(
        fleet, trace, spec.scheduler_config(), seed=spec.seed, faults=spec.faults
    )
    return outcome_from_result(scheduler.run(spec.max_time))


def run_fleet_spec(
    spec: FleetSpec, *, store: Optional[ResultStore] = None
) -> FleetOutcome:
    """Run one :class:`FleetSpec`, store-first (same contract as
    :func:`repro.experiments.common.run_spec`)."""
    if store is None:
        store = get_default_store()
    if store is None:
        return _run_fleet_cold(spec)
    fp = fleet_fingerprint(spec)
    payload = store.get(fp)
    if payload is not None:
        try:
            return FleetOutcome.from_payload(payload)
        except (TypeError, ValueError, KeyError, AttributeError):
            store.stats.hits -= 1
            store.stats.misses += 1
            store.stats.corrupt += 1
    outcome = _run_fleet_cold(spec)
    store.put(fp, outcome.to_payload())
    return outcome


def run_fleet_specs(
    specs, *, jobs: Optional[int] = None
) -> List[FleetOutcome]:
    """Fan a list of fleet specs out over worker processes."""
    return fan_out(run_fleet_spec, list(specs), jobs=jobs, label="fleet")


# --------------------------------------------------------------------- #
# The `bwap-repro fleet` experiment
# --------------------------------------------------------------------- #


@dataclass
class FleetReport:
    """Rendered cells of the fleet experiment."""

    rows: List[Tuple[str, FleetSpec, FleetOutcome]]

    def render(self) -> str:
        headers = [
            "cell",
            "backend",
            "machines",
            "arrivals",
            "placed",
            "P50 slow",
            "P99 slow",
            "P50 wait",
            "P99 wait",
            "mean util",
            "entries",
        ]
        table_rows = []
        for label, spec, out in self.rows:
            table_rows.append(
                [
                    label,
                    spec.backend,
                    sum(c for _n, c in spec.mix),
                    out.arrivals,
                    out.placed,
                    out.p50_slowdown,
                    out.p99_slowdown,
                    out.p50_wait_s,
                    out.p99_wait_s,
                    out.mean_util,
                    out.entries_scored,
                ]
            )
        parts = [
            format_table(
                headers,
                table_rows,
                title="Fleet scheduling (slowdown = turnaround / ideal time)",
            )
        ]
        for label, _spec, out in self.rows:
            util = "  ".join(f"{n}={u:.3f}" for n, u in out.util_by_class)
            parts.append(f"  {label}: utilisation by class: {util}")
        return "\n".join(parts)


def run_fleet(jobs: Optional[int] = None) -> FleetReport:
    """Poisson + bursty flow-backend fleets, plus one full-simulator cell.

    Wall-clock scheduler throughput goes to stderr (stdout stays
    bitwise-deterministic and store-replayable).
    """
    import os

    quick = os.environ.get("BWAP_BENCH_QUICK", "") not in ("", "0")
    mix = (("A", 4), ("B", 4), ("dual", 4), ("sym4", 4))
    arrivals = 60 if quick else 300
    cells = [
        (
            "poisson/flow",
            FleetSpec(
                mix=mix,
                trace=TraceSpec(kind="poisson", rate_per_s=1.0, arrivals=arrivals),
            ),
        ),
        (
            "bursty/flow",
            FleetSpec(
                mix=mix,
                trace=TraceSpec(kind="bursty", rate_per_s=1.0, arrivals=arrivals),
            ),
        ),
        (
            "poisson/inc",
            FleetSpec(
                mix=mix,
                trace=TraceSpec(kind="poisson", rate_per_s=1.0, arrivals=arrivals),
                scoring="incremental",
            ),
        ),
        (
            "poisson/sim",
            FleetSpec(
                mix=(("A", 1), ("B", 1)),
                trace=TraceSpec(
                    kind="poisson",
                    rate_per_s=0.05,
                    arrivals=4 if quick else 12,
                    seed=3,
                ),
                backend="sim",
            ),
        ),
    ]
    t0 = time.perf_counter()
    outcomes = run_fleet_specs([spec for _label, spec in cells], jobs=jobs)
    wall = time.perf_counter() - t0
    total = sum(out.arrivals for out in outcomes)
    # Wall-clock throughput depends on the host (and on store hits), so it
    # never enters the deterministic report body.
    print(
        f"fleet: {total} arrivals in {wall:.2f}s wall "
        f"({total / wall:.0f} arrivals/s incl. store hits)",
        file=sys.stderr,
    )
    for (label, _spec), out in zip(cells, outcomes):
        solves_per_arrival = out.solver_calls / out.arrivals if out.arrivals else 0.0
        print(
            f"fleet[{label}]: {out.entries_scored} candidates scored, "
            f"{out.memo_hits} memo hits, "
            f"{solves_per_arrival:.2f} solves/arrival",
            file=sys.stderr,
        )
    return FleetReport(
        rows=[
            (label, spec, out)
            for (label, spec), out in zip(cells, outcomes)
        ]
    )
