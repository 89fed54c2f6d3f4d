"""Fault matrix — plain vs hardened DWP tuning under injected adversity.

The robustness question the paper leaves open: the DWP climb trusts a
noisy stall signal and best-effort migration, so what happens when both
misbehave? This study crosses graded fault intensities (scaled copies of
:data:`repro.faults.DEFAULT_FAULT_PLAN`, several fault seeds each) with
the Table-I benchmarks and the two tuner builds — the paper's plain climb
and the hardened variant (:data:`repro.core.HARDENED_PROFILE`: EWMA
smoothing, hysteresis, stop patience, retry and degradation).

Per cell the report gives the convergence rate (final DWP within one step
of the *fault-free* optimum), the mean DWP error, wasted migration pages
(pages whose move the injector failed), and retry/degradation counts.
There is no rollback column: the climb has no watchdog, since every step
it accepts lowers the stall (see :mod:`repro.core.hardening`). The
acceptance bar: at full intensity the hardened tuner stays within one
step on at least 4 of the 5 benchmarks while the plain tuner
demonstrably diverges on at least one.

Every scenario is an independent :class:`ScenarioSpec`, so the whole
matrix fans out over worker processes (``--jobs`` / ``BWAP_JOBS``).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import BWAPConfig, HARDENED_PROFILE, HardeningConfig
from repro.experiments.common import RunOutcome, ScenarioSpec, run_specs
from repro.experiments.report import format_table
from repro.faults import DEFAULT_FAULT_PLAN, FaultPlan
from repro.workloads import paper_benchmarks

#: Work per benchmark, sized so the climb completes several decisions
#: before the app finishes even at the hardened profile's doubled
#: measurement wall time (the Table-I calibration sizes finish in ~10 s,
#: before a smoothed tuner's first decision).
_WORK_BYTES = 800e9

#: The two tuner builds each fault cell compares.
TUNER_VARIANTS: Tuple[Tuple[str, Optional[HardeningConfig]], ...] = (
    ("plain", None),
    ("hardened", HARDENED_PROFILE),
)


@dataclass(frozen=True)
class FaultCell:
    """Aggregated outcomes of one (benchmark, intensity, variant) cell."""

    benchmark: str
    intensity: float
    variant: str
    outcomes: Tuple[RunOutcome, ...]

    def dwp_errors(self, opt_dwp: float) -> List[float]:
        return [
            abs((o.final_dwp if o.final_dwp is not None else 0.0) - opt_dwp)
            for o in self.outcomes
        ]

    def converged(self, opt_dwp: float, step: float) -> int:
        """How many fault seeds landed within one DWP step of the
        fault-free optimum."""
        return sum(1 for e in self.dwp_errors(opt_dwp) if e <= step + 1e-9)

    @property
    def wasted_pages(self) -> int:
        return sum(o.pages_failed for o in self.outcomes)

    @property
    def retries(self) -> int:
        return sum(o.migration_retries for o in self.outcomes)

    @property
    def degraded_runs(self) -> int:
        return sum(1 for o in self.outcomes if o.degraded)


@dataclass
class FaultMatrixResult:
    """The full sweep plus the fault-free reference optima."""

    #: benchmark -> fault-free plain-tuner DWP (the reference optimum).
    opt_dwp: Dict[str, float]
    #: (benchmark, intensity, variant) -> aggregated cell.
    cells: Dict[Tuple[str, float, str], FaultCell]
    step: float
    fault_seeds: Tuple[int, ...]

    def cell(self, benchmark: str, intensity: float, variant: str) -> FaultCell:
        return self.cells[(benchmark, intensity, variant)]

    def _benchmarks(self) -> List[str]:
        return list(self.opt_dwp)

    def _intensities(self) -> List[float]:
        return sorted({k[1] for k in self.cells})

    def benchmarks_within_one_step(self, variant: str, intensity: float) -> int:
        """Benchmarks where *every* fault seed converged for ``variant``."""
        n = len(self.fault_seeds)
        return sum(
            1
            for b in self._benchmarks()
            if self.cell(b, intensity, variant).converged(self.opt_dwp[b], self.step)
            == n
        )

    def benchmarks_diverged(self, variant: str, intensity: float) -> List[str]:
        """Benchmarks where at least one fault seed ended off by > 1 step."""
        n = len(self.fault_seeds)
        return [
            b
            for b in self._benchmarks()
            if self.cell(b, intensity, variant).converged(self.opt_dwp[b], self.step)
            < n
        ]

    def render(self) -> str:
        rows: List[list] = []
        n = len(self.fault_seeds)
        for b in self._benchmarks():
            opt = self.opt_dwp[b]
            for intensity in self._intensities():
                for variant, _ in TUNER_VARIANTS:
                    c = self.cell(b, intensity, variant)
                    errs = c.dwp_errors(opt)
                    rows.append(
                        [
                            b,
                            f"{intensity:.1f}",
                            variant,
                            f"{c.converged(opt, self.step)}/{n}",
                            f"{max(errs):.2f}",
                            f"{sum(errs) / len(errs):.2f}",
                            c.wasted_pages,
                            c.retries,
                            c.degraded_runs,
                        ]
                    )
        top = max(self._intensities())
        hardened_ok = self.benchmarks_within_one_step("hardened", top)
        plain_bad = self.benchmarks_diverged("plain", top)
        summary = (
            f"at intensity {top:.1f}: hardened within 1 step on "
            f"{hardened_ok}/{len(self.opt_dwp)} benchmarks; plain diverges on "
            f"{', '.join(plain_bad) if plain_bad else 'none'}"
        )
        table = format_table(
            [
                "bench",
                "intensity",
                "tuner",
                "conv",
                "max |dDWP|",
                "mean |dDWP|",
                "wasted pages",
                "retries",
                "degraded",
            ],
            rows,
            title=(
                "Fault matrix (machine A, 2 workers, "
                f"{n} fault seed{'s' if n != 1 else ''}/cell; conv = final DWP "
                f"within one step ({self.step:.2f}) of the fault-free optimum)"
            ),
        )
        return f"{table}\n{summary}"


def _quick_mode() -> bool:
    return bool(os.environ.get("BWAP_BENCH_QUICK"))


def run_fault_matrix(
    *,
    intensities: Sequence[float] = (0.5, 1.0),
    fault_seeds: Sequence[int] = (0, 1, 2),
    plan: FaultPlan = DEFAULT_FAULT_PLAN,
    machine_name: str = "A",
    num_workers: int = 2,
    seed: int = 7,
    jobs: Optional[int] = None,
    quick: Optional[bool] = None,
) -> FaultMatrixResult:
    """Run the fault matrix.

    Parameters
    ----------
    intensities:
        Scaling factors applied to ``plan`` (see :meth:`FaultPlan.scaled`).
    fault_seeds:
        Fault-plan seeds per cell; the scenario seed stays fixed so plain
        and hardened tuners face the identical simulated machine.
    quick:
        Reduced grid (2 benchmarks, 1 intensity, 1 fault seed) for CI
        smoke runs; defaults to the ``BWAP_BENCH_QUICK`` environment
        variable.
    """
    if quick is None:
        quick = _quick_mode()
    benchmarks = [
        dataclasses.replace(wl, work_bytes=_WORK_BYTES) for wl in paper_benchmarks()
    ]
    if quick:
        benchmarks = [wl for wl in benchmarks if wl.name in ("SC", "OC")]
        intensities = tuple(intensities)[-1:]
        fault_seeds = tuple(fault_seeds)[:1]
    intensities = tuple(float(i) for i in intensities)
    fault_seeds = tuple(int(s) for s in fault_seeds)

    def spec(wl, hardening: Optional[HardeningConfig], fault_plan: Optional[FaultPlan]):
        return ScenarioSpec(
            machine=machine_name,
            workload=wl,
            num_workers=num_workers,
            policy="bwap",
            bwap_config=BWAPConfig(hardening=hardening),
            seed=seed,
            fault_plan=fault_plan,
        )

    # Fault-free references first (the plain tuner's undisturbed optimum),
    # then the full grid — one flat spec list, one parallel fan-out.
    specs: List[ScenarioSpec] = [spec(wl, None, None) for wl in benchmarks]
    grid: List[Tuple[str, float, str]] = []
    for wl in benchmarks:
        for intensity in intensities:
            scaled = plan.scaled(intensity)
            for variant, hardening in TUNER_VARIANTS:
                for fs in fault_seeds:
                    specs.append(
                        spec(wl, hardening, dataclasses.replace(scaled, seed=fs))
                    )
                grid.append((wl.name, intensity, variant))

    outcomes = run_specs(specs, jobs=jobs)

    opt_dwp = {
        wl.name: (o.final_dwp if o.final_dwp is not None else 0.0)
        for wl, o in zip(benchmarks, outcomes[: len(benchmarks)])
    }
    cells: Dict[Tuple[str, float, str], FaultCell] = {}
    cursor = len(benchmarks)
    for bench, intensity, variant in grid:
        chunk = tuple(outcomes[cursor : cursor + len(fault_seeds)])
        cursor += len(fault_seeds)
        cells[(bench, intensity, variant)] = FaultCell(
            benchmark=bench, intensity=intensity, variant=variant, outcomes=chunk
        )

    step = BWAPConfig().step
    return FaultMatrixResult(
        opt_dwp=opt_dwp, cells=cells, step=step, fault_seeds=fault_seeds
    )
