"""Epoch-based execution simulator.

Advances one or more applications through simulated time. Each epoch the
simulator (1) collects every application's current traffic (demand + mix
from its page placement), (2) solves the machine-wide bandwidth allocation,
(3) converts per-worker achieved rates and loaded latencies into slowdowns
and stall rates, (4) credits progress, and (5) gives attached tuners a
chance to observe counters and re-place pages (whose migration cost is
charged back to the application as stall time).

Static scenarios fast-forward between events, so policy-comparison
experiments are cheap; adaptive scenarios (DWP tuner, autonuma) run at the
configured epoch granularity. Every epoch runs through the array-native
epoch kernel (:mod:`repro.engine.kernel`), which replays contention
solves from a :class:`~repro.memsim.contention.SolverCache` and strides
over stretches of epochs where every tuner is provably dormant. The
scalar per-consumer loop it must match bitwise is kept as the reference
in ``tests/oracle/epoch_reference.py``.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.engine.app import Application
from repro.faults import (
    FaultInjector,
    FaultPlan,
    MigrationDisposition,
    as_injector,
)
from repro.engine.kernel import EpochKernel
from repro.memsim.contention import Allocation, SolverCache
from repro.memsim.controller import DEFAULT_MC_MODEL, MCModel
from repro.memsim.migration import MigrationEngine, MigrationStats
from repro.memsim.pages import UNALLOCATED, AddressSpace
from repro.perf.counters import CounterBank, MeasurementConfig, StallSample
from repro.perf.latency import DEFAULT_LATENCY_MODEL, LatencyModel
from repro.perf.profiler import TrafficSample
from repro.topology.machine import Machine

#: Guard against infinite loops in pathological configurations.
_MAX_EPOCHS = 2_000_000

#: A tuner's page write: rewrites an address space and returns the pages
#: it moved (see :meth:`Simulator.migrate_placement`).
PageWrite = Callable[[AddressSpace], int]


class Tuner(abc.ABC):
    """On-line placement tuner attached to a simulation.

    BWAP's DWP tuner (and its co-scheduled variant) implement this
    interface in :mod:`repro.core`.
    """

    @abc.abstractmethod
    def on_start(self, sim: "Simulator") -> None:
        """Called once before the first epoch."""

    @abc.abstractmethod
    def on_epoch(self, sim: "Simulator") -> None:
        """Called after counters are updated each epoch."""

    def is_settled(self) -> bool:
        """True once the tuner will make no further placement changes."""
        return False

    def next_wake_epoch(self, sim: "Simulator") -> Optional[int]:
        """Earliest epoch number at which this tuner may act again.

        ``sim.epoch`` numbers the next epoch to execute. Returning
        ``sim.epoch`` means "may act immediately" — the safe default for
        tuners that don't implement the hint. A larger value promises that
        every :meth:`on_epoch` call strictly before that epoch is a pure
        no-op: no tuner-state change, no placement change, no counter or
        RNG access. ``None`` promises the tuner never acts again. The
        epoch kernel uses this to advance whole dormant stretches in one
        exact multi-epoch stride; an over-optimistic hint breaks the
        simulator's bitwise-exactness contract, so implementations must
        derive it from the same arithmetic that gates ``on_epoch`` (see
        :func:`wake_epoch_at`).
        """
        return sim.epoch


def wake_epoch_at(sim: "Simulator", deadline: float, horizon: int = 1_000_000) -> int:
    """Epoch number at which a time-gated tuner first acts.

    For tuners whose ``on_epoch`` is a pure no-op while
    ``sim.now < deadline``: replays the simulator's own clock accumulation
    (``now += epoch_s`` per epoch — same floats, same order, no closed-form
    division that could round the other way) and returns the first epoch
    whose post-step time reaches ``deadline``. Assumes full-length epochs;
    if the simulator actually takes shorter (clamped) steps the tuner only
    stays dormant longer, so the hint errs dormant-side — never optimistic.
    """
    t = sim.now
    dt = sim.epoch_s
    epoch = sim.epoch
    cap = epoch + horizon
    while epoch < cap:
        t = t + dt
        if t >= deadline:
            break
        epoch += 1
    return epoch


@dataclass
class AppTelemetry:
    """Accumulated per-application observations."""

    traffic: List[TrafficSample] = field(default_factory=list)
    stall_time_product: float = 0.0
    throughput_time_product: float = 0.0
    active_time: float = 0.0

    def record_traffic(
        self,
        duration_s: float,
        read_gbps: float,
        write_gbps: float,
        private_fraction: float,
    ) -> None:
        """Append one epoch's traffic observation.

        An epoch whose rates are bit-identical to the previous sample's
        extends that sample's duration instead of appending — bounding
        telemetry memory by the number of distinct-traffic stretches rather
        than the epoch count. Aggregates over the list
        (:meth:`AccessProfiler.characterise`) are those of one sample per
        epoch: only consecutive equal-rate samples merge, so every
        time-weighted sum groups the identical terms.
        """
        if self.traffic:
            last = self.traffic[-1]
            if last.same_rates(read_gbps, write_gbps, private_fraction):
                self.traffic[-1] = last.extended(duration_s)
                return
        self.traffic.append(
            TrafficSample(
                duration_s=duration_s,
                read_gbps=read_gbps,
                write_gbps=write_gbps,
                private_fraction=private_fraction,
            )
        )

    @property
    def mean_stall_fraction(self) -> float:
        """Time-weighted average stall fraction over the app's lifetime."""
        if self.active_time == 0:
            return 0.0
        return self.stall_time_product / self.active_time

    @property
    def mean_throughput_gbps(self) -> float:
        """Time-weighted average achieved traffic rate."""
        if self.active_time == 0:
            return 0.0
        return self.throughput_time_product / self.active_time


@dataclass
class SimResult:
    """Outcome of a simulation run."""

    sim_time: float
    execution_times: Dict[str, float]
    telemetry: Dict[str, AppTelemetry]
    migration: Dict[str, MigrationStats]
    final_allocation: Optional[Allocation]

    def execution_time(self, app_id: str) -> float:
        """Execution time of one application (raises if it never finished)."""
        t = self.execution_times.get(app_id)
        if t is None:
            raise KeyError(f"application {app_id!r} did not finish")
        return t


class Simulator:
    """Co-schedules applications on one machine and advances time."""

    def __init__(
        self,
        machine: Machine,
        *,
        mc_model: MCModel = DEFAULT_MC_MODEL,
        latency_model: LatencyModel = DEFAULT_LATENCY_MODEL,
        counters: Optional[CounterBank] = None,
        migration: Optional[MigrationEngine] = None,
        epoch_s: float = 0.25,
        seed: int = 1234,
        faults: Optional["FaultPlan | FaultInjector"] = None,
    ):
        # Comparisons are written so that NaN fails them.
        if not 0 < epoch_s < math.inf:
            raise ValueError(f"epoch length must be positive and finite, got {epoch_s}")
        # The epoch kernel vectorises the stock LatencyModel's arithmetic.
        if type(latency_model) is not LatencyModel:
            raise TypeError(
                "latency_model must be a repro.perf.latency.LatencyModel, "
                f"not a subclass ({type(latency_model).__name__})"
            )
        self.machine = machine
        self.mc_model = mc_model
        self.latency_model = latency_model
        self.counters = counters if counters is not None else CounterBank(seed=seed)
        self.migration = migration if migration is not None else MigrationEngine()
        #: Fault injector (None on a fault-free run — every hook below is
        #: gated on it, so the fault-free paths are bit-for-bit identical
        #: to a simulator built without the ``faults`` argument).
        self.faults: Optional[FaultInjector] = as_injector(faults)
        if self.faults is not None and self.faults.perturbs_counters:
            self.counters.fault_hook = self.faults.perturb_reading
        self.epoch_s = epoch_s
        self.now = 0.0
        self._apps: Dict[str, Application] = {}
        self._tuners: List[Tuner] = []
        self._telemetry: Dict[str, AppTelemetry] = {}
        #: Replays previous contention solves when the consumer set is
        #: bit-for-bit unchanged (settled tuners, static phases). The solve
        #: is pure, so cached epochs are exact — not an approximation.
        self.solver_cache = SolverCache(maxsize=128)
        #: Number of epochs executed so far; also the number of the next
        #: epoch to execute. A multi-epoch stride advances it by k at once.
        self.epoch = 0
        #: Per-app worker clock frequency, resolved once at attach time.
        self._app_freq: Dict[str, Optional[float]] = {}
        self._kernel = EpochKernel(self)
        #: True once :meth:`start` has run; tuners attached afterwards get
        #: their ``on_start`` immediately (fleet machines admit apps and
        #: tuners mid-flight).
        self._started = False
        self._tuners_started = 0

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #

    def add_app(self, app: Application) -> Application:
        """Register an application (its start time is the current sim time)."""
        if app.app_id in self._apps:
            raise ValueError(f"duplicate application id {app.app_id!r}")
        if app.machine is not self.machine:
            raise ValueError(f"application {app.app_id!r} was built for another machine")
        app.start_time = self.now
        self._apps[app.app_id] = app
        self._telemetry[app.app_id] = AppTelemetry()
        self._app_freq[app.app_id] = self._scan_worker_frequency(app)
        return app

    def add_tuner(self, tuner: Tuner) -> Tuner:
        """Attach an on-line tuner.

        On a started simulator (incremental stepping via :meth:`step_to`)
        the tuner's ``on_start`` hook fires immediately, exactly as it
        would have at :meth:`start` time.
        """
        self._tuners.append(tuner)
        if self._started:
            self.start()
        return tuner

    def app(self, app_id: str) -> Application:
        """Look up a registered application."""
        try:
            return self._apps[app_id]
        except KeyError:
            raise KeyError(f"no application {app_id!r} in simulator") from None

    def remove_app(self, app_id: str) -> Application:
        """Detach an application (and its tuners) from the simulator.

        The fleet layer evicts residents when their machine crashes, and
        forgets completed apps whose completion report was lost so the
        same ``app_id`` can be re-admitted later. The epoch kernel's
        workspace re-checks the live app set every step, so removal is
        safe mid-flight; the app object itself (placement, remaining
        work) is returned untouched for progress accounting.
        """
        app = self.app(app_id)
        del self._apps[app_id]
        self._telemetry.pop(app_id, None)
        self._app_freq.pop(app_id, None)
        keep = [t for t in self._tuners if getattr(t, "app", None) is not app]
        removed_started = sum(
            1
            for i, t in enumerate(self._tuners)
            if i < self._tuners_started and t not in keep
        )
        self._tuners_started -= removed_started
        self._tuners = keep
        return app

    @property
    def apps(self) -> Tuple[Application, ...]:
        """All registered applications."""
        return tuple(self._apps.values())

    # ------------------------------------------------------------------ #
    # Tuner services
    # ------------------------------------------------------------------ #

    def sample_stall_stats(
        self, app_id: str, config: MeasurementConfig = MeasurementConfig()
    ) -> StallSample:
        """Noisy trimmed-mean stall measurement plus its dispersion (the
        tuners' only signal); see :meth:`CounterBank.sample_stall_stats`."""
        return self.counters.sample_stall_stats(app_id, config)

    def charge_migration(self, app: Application, pages_moved: int) -> float:
        """Account a page-migration batch and stall the app for its cost."""
        cost = self.migration.record(
            app.app_id, pages_moved, page_size=app.space.page_size
        )
        app.charge_penalty(cost)
        return cost

    def migrate_placement(
        self, app: Application, write: PageWrite
    ) -> MigrationDisposition:
        """Apply a tuner's page write to an app, subject to migration faults.

        ``write`` rewrites the app's address space (a weighted interleave,
        or the split tuner's per-segment placement) and returns the pages
        it moved. This is the one place a tuner's write is applied,
        faulted and charged. Fault-free (no plan, or no migration faults
        in it) the write runs and its moves are charged. Under a fault
        plan the batch may bounce wholesale (EBUSY: every moved page is
        reverted, nothing charged) or lose individual pages (the failed
        subset reverts to its old nodes; only surviving pages are charged).
        Newly backed pages are allocations, not migrations — they always
        stick, mirroring ``mbind`` setting policy even when the move part
        of the call fails. A bounced batch is replayed by passing the same
        ``write`` again.
        """
        space = app.space
        injector = self.faults
        faulty = (
            injector is not None
            and injector.plan.migration is not None
            and not injector.plan.migration.is_null
        )
        if not faulty:
            moved = write(space)
            if moved:
                self.charge_migration(app, moved)
            return MigrationDisposition(requested=moved, rejected=False, pages_failed=0)

        before = space.page_nodes().copy()
        write(space)
        after = space.page_nodes()
        moved_idx = np.nonzero((after != before) & (before != UNALLOCATED))[0]
        requested = len(moved_idx)
        disposition = injector.migration_disposition(requested)
        if disposition.rejected:
            space.assign_pages(moved_idx, before[moved_idx])
            self.migration.record_rejection(app.app_id)
            return disposition
        if disposition.pages_failed:
            failed_idx = injector.choose_failed_pages(
                moved_idx, disposition.pages_failed
            )
            space.assign_pages(failed_idx, before[failed_idx])
            self.migration.record_failed(app.app_id, len(failed_idx))
        if disposition.pages_ok:
            self.charge_migration(app, disposition.pages_ok)
        return disposition

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Idempotently start the simulation: fire pending ``on_start`` hooks.

        :meth:`run` calls this itself; incremental drivers (the fleet
        layer) call it once and then advance via :meth:`step_to`. Tuners
        attached after the first call get their hook at attach time, so
        every tuner sees exactly one ``on_start`` either way.
        """
        self._started = True
        while self._tuners_started < len(self._tuners):
            tuner = self._tuners[self._tuners_started]
            self._tuners_started += 1
            tuner.on_start(self)

    def step_to(self, deadline: float) -> None:
        """Advance epochs until all non-looping apps finish or ``deadline``.

        This is :meth:`run`'s loop exposed for incremental use: one long
        ``run(max_time)`` and a chain of ``step_to`` calls visit the same
        stopping conditions, and a ``step_to`` chain whose boundaries fall
        where the loop pauses anyway (an idle machine between arrivals) is
        bitwise-identical to the single long run. A deadline landing
        mid-epoch clamps that epoch's time step, exactly as ``run``'s own
        deadline does. With no applications registered the call is a no-op
        (the fleet clock, not this simulator, owns idle time).
        """
        if not self._started:
            raise RuntimeError("call start() before step_to()")
        for _ in range(_MAX_EPOCHS):
            if not self._apps or self._all_done():
                break
            if self.now >= deadline:
                break
            self._kernel.step(deadline)
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"simulation exceeded {_MAX_EPOCHS} epochs")

    def snapshot(self) -> SimResult:
        """The current :class:`SimResult` view (what :meth:`run` returns)."""
        return SimResult(
            sim_time=self.now,
            execution_times={
                aid: app.execution_time
                for aid, app in self._apps.items()
                if app.execution_time is not None
            },
            telemetry=dict(self._telemetry),
            migration={aid: self.migration.stats(aid) for aid in self._apps},
            final_allocation=self._kernel.final_allocation(),
        )

    def run(self, max_time: float = 36000.0) -> SimResult:
        """Advance until every non-looping app finishes (or ``max_time``)."""
        if not max_time > 0:  # NaN included
            raise ValueError(f"max_time must be positive, got {max_time}")
        if not self._apps:
            raise RuntimeError("no applications registered")
        self.start()
        self.step_to(self.now + max_time)
        return self.snapshot()

    def _all_done(self) -> bool:
        trackable = [a for a in self._apps.values() if not a.looping]
        return bool(trackable) and all(a.finished for a in trackable)

    def _scan_worker_frequency(self, app: Application) -> Optional[float]:
        """First cored worker node's clock, or None if there is none.

        Worker sets may include memory-only nodes (CXL/NVM expanders), so
        the first worker node is not guaranteed to have cores — use the
        first one that does.
        """
        for w in app.worker_nodes:
            cores = self.machine.node(w).cores
            if cores:
                return cores[0].frequency_ghz
        return None

    def _worker_frequency_ghz(self, app: Application) -> float:
        """Clock frequency used to convert stall fractions to cycle rates.

        Resolved once per application at attach time (machines are
        immutable) instead of re-scanning the worker nodes every epoch.
        """
        try:
            freq = self._app_freq[app.app_id]
        except KeyError:
            freq = self._scan_worker_frequency(app)
        if freq is None:
            raise ValueError(
                f"application {app.app_id!r} has no worker node with cores; "
                f"workers={app.worker_nodes}"
            )
        return freq
