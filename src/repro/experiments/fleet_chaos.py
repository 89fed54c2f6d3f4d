"""Fleet chaos matrix — fault intensity x recovery policy under SLOs.

Sweeps graded scalings of one seeded :func:`repro.fleet.faults.chaos_plan`
(machine crashes, flappers, permanent failures, brown-outs, lossy
admission, lost completions) against the scheduler's recovery policies
(``none`` / ``requeue`` / ``requeue+checkpoint``) on a heterogeneous
fleet, reporting completion counts, P50/P99 slowdown, SLO-violation
rate, goodput, and availability per cell.

Two invariants are asserted on every run:

* **Zero-fault identity** — a live injector over a null
  (zero-intensity) plan, which takes every fault hook, produces
  placements, completions, and utilisation *byte-identical* to a run
  with no fault plan at all.
* **Recovery invariance at zero intensity** — with nothing to recover
  from, every recovery policy summarises identically.

Each cell is an independent :class:`FleetSpec`, so the matrix fans out
over worker processes and persists in the result store; the whole
report renders deterministically from the run seeds.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.experiments.fleet import FleetOutcome, FleetSpec, run_fleet_specs
from repro.experiments.report import format_table
from repro.fleet.cluster import build_fleet
from repro.fleet.faults import FleetFaultInjector, FleetFaultPlan, chaos_plan
from repro.fleet.scheduler import RECOVERIES, FleetScheduler
from repro.workloads import TraceSpec, build_trace


def _quick_mode() -> bool:
    return bool(os.environ.get("BWAP_BENCH_QUICK"))


def assert_zero_fault_identity(
    mix: Tuple[Tuple[str, int], ...],
    trace_spec: TraceSpec,
    plan: FleetFaultPlan,
    *,
    seed: int = 42,
    max_time: float = 1_000_000.0,
) -> None:
    """Assert a null-scaled ``plan`` changes nothing.

    Compares the full :class:`~repro.fleet.scheduler.FleetResult` surface
    that admission decisions flow through — placements, completions
    (every field, exact float equality), utilisation, end time, solver
    accounting — between ``faults=None`` and a live injector over
    ``plan.scaled(0)``. The injector is kept although its plan is null,
    so the second run takes every fault hook of the scheduler: a hook
    that leaks into a fault-free run shows here.
    """
    trace = build_trace(trace_spec)
    scaled = plan.scaled(0.0)
    if not scaled.is_null:
        raise AssertionError("plan.scaled(0) must be a null plan")
    base, nulled = (
        FleetScheduler(build_fleet(mix), trace, seed=seed, faults=faults).run(max_time)
        for faults in (None, FleetFaultInjector(scaled))
    )
    for field_name in (
        "placements",
        "completions",
        "utilization",
        "end_time",
        "ticks",
        "solver_calls",
        "entries_scored",
        "memo_hits",
        "requeues",
        "stranded",
        "availability",
    ):
        a = getattr(base, field_name)
        b = getattr(nulled, field_name)
        if field_name in ("placements", "completions"):
            a, b = list(a), list(b)
        if a != b:
            raise AssertionError(
                f"zero-fault identity broken: {field_name} {a!r} != {b!r}"
            )


@dataclass
class FleetChaosReport:
    """Rendered cells of the chaos matrix."""

    #: ``(intensity, recovery, spec, outcome)`` in grid order.
    rows: List[Tuple[float, str, FleetSpec, FleetOutcome]]
    arrivals: int
    num_machines: int

    def cell(self, intensity: float, recovery: str) -> FleetOutcome:
        for cell_intensity, cell_recovery, _spec, out in self.rows:
            if cell_intensity == intensity and cell_recovery == recovery:
                return out
        raise KeyError((intensity, recovery))

    def render(self) -> str:
        headers = [
            "intensity",
            "recovery",
            "done",
            "requeue",
            "strand",
            "reject",
            "lost",
            "P50 slow",
            "P99 slow",
            "SLO viol",
            "goodput",
            "avail",
            "lost work",
        ]
        table_rows = []
        for intensity, recovery, _spec, out in self.rows:
            table_rows.append(
                [
                    f"{intensity:.1f}",
                    recovery,
                    f"{out.completed}/{out.arrivals}",
                    out.requeues,
                    out.stranded,
                    out.admission_rejections,
                    out.completions_lost,
                    out.p50_slowdown,
                    out.p99_slowdown,
                    f"{out.slo_violation_rate:.3f}",
                    f"{out.goodput:.3f}",
                    f"{out.availability:.4f}",
                    f"{out.lost_work_frac:.3f}",
                ]
            )
        top = max(intensity for intensity, _r, _s, _o in self.rows)
        none_done = self.cell(top, "none").completed
        ckpt = self.cell(top, "requeue+checkpoint")
        summary = (
            f"at intensity {top:.1f}: requeue+checkpoint completes "
            f"{ckpt.completed}/{ckpt.arrivals} "
            f"(goodput {ckpt.goodput:.3f}) vs {none_done}/{ckpt.arrivals} "
            f"with no recovery"
        )
        table = format_table(
            headers,
            table_rows,
            title=(
                f"Fleet chaos matrix ({self.num_machines} machines, "
                f"{self.arrivals} arrivals; SLO = finish within "
                f"slo_slowdown x ideal time of arrival)"
            ),
        )
        return f"{table}\n{summary}"


def run_fleet_chaos(
    jobs: Optional[int] = None, quick: Optional[bool] = None
) -> FleetChaosReport:
    """Run the chaos matrix (fault intensity x recovery policy).

    ``quick`` shrinks the grid (8 machines, 40 arrivals, two
    intensities) for CI smoke runs; defaults to ``BWAP_BENCH_QUICK``.
    """
    if quick is None:
        quick = _quick_mode()
    if quick:
        mix: Tuple[Tuple[str, int], ...] = (
            ("A", 2),
            ("B", 2),
            ("dual", 2),
            ("sym4", 2),
        )
        arrivals = 40
        intensities: Tuple[float, ...] = (0.0, 1.0)
    else:
        mix = (("A", 16), ("B", 16), ("dual", 16), ("sym4", 16))
        arrivals = 240
        intensities = (0.0, 0.5, 1.0)
    num_machines = sum(count for _name, count in mix)
    trace = TraceSpec(kind="poisson", rate_per_s=1.0, arrivals=arrivals, seed=11)
    # Crashes and brown-outs land inside the span the trace keeps the
    # fleet busy (arrivals at ~1/s plus drain).
    plan = chaos_plan(num_machines, horizon_s=1.5 * arrivals, seed=23)

    # The gating invariant first, on a small fleet.
    assert_zero_fault_identity(
        (("A", 2), ("B", 2)),
        TraceSpec(kind="poisson", rate_per_s=0.5, arrivals=24, seed=11),
        plan,
    )

    specs: List[FleetSpec] = []
    grid: List[Tuple[float, str]] = []
    for intensity in intensities:
        scaled = plan.scaled(intensity)
        for recovery in RECOVERIES:
            specs.append(
                FleetSpec(
                    mix=mix,
                    trace=trace,
                    faults=None if scaled.is_null else scaled,
                    recovery=recovery,
                )
            )
            grid.append((intensity, recovery))

    t0 = time.perf_counter()
    outcomes = run_fleet_specs(specs, jobs=jobs)
    wall = time.perf_counter() - t0
    print(
        f"fleet-chaos: {len(specs)} cells in {wall:.2f}s wall "
        f"(incl. store hits)",
        file=sys.stderr,
    )
    scored = sum(out.entries_scored for out in outcomes)
    hits = sum(out.memo_hits for out in outcomes)
    solves = sum(out.solver_calls for out in outcomes)
    total_arrivals = sum(out.arrivals for out in outcomes)
    print(
        f"fleet-chaos: {scored} candidates scored, {hits} memo hits, "
        f"{solves / max(total_arrivals, 1):.2f} solves/arrival",
        file=sys.stderr,
    )

    # With nothing injected, the recovery knob must not matter.
    zero_cells = [
        out for (intensity, _r), out in zip(grid, outcomes) if intensity == 0.0
    ]
    for out in zero_cells[1:]:
        if out != zero_cells[0]:
            raise AssertionError(
                "zero-intensity cells differ across recovery policies"
            )

    return FleetChaosReport(
        rows=[
            (intensity, recovery, spec, out)
            for (intensity, recovery), spec, out in zip(grid, specs, outcomes)
        ],
        arrivals=arrivals,
        num_machines=num_machines,
    )
