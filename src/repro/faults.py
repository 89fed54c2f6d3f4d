"""Fault-injection substrate: seeded, deterministic adversity for the sim.

The paper's tuner hill-climbs on a hardware stall signal and adapts the
placement through best-effort page migration (Sections III-B, IV-A). Both
channels misbehave on real machines: counters are noisy and spiky,
``move_pages``/``mbind`` fail transiently or move only part of a batch,
interconnect links degrade under thermal or congestion events, and the
workload itself shifts phase. A :class:`FaultPlan` describes that adversity
declaratively; a :class:`FaultInjector` realises it with per-subsystem RNG
streams so every epoch stays deterministic given the plan seed — two runs
with equal plans and scenario seeds are bitwise identical, and a plan with
every intensity at zero injects nothing at all.

The injector is consulted from four hook points:

* :meth:`FaultInjector.perturb_reading` — extra Gaussian/spike noise on
  each counter read (:class:`repro.perf.counters.CounterBank`).
* :meth:`FaultInjector.migration_disposition` — per-batch verdict for a
  page-migration attempt (:meth:`repro.engine.sim.Simulator.migrate_placement`):
  transient EBUSY-style rejection, partial-batch abort, independent
  per-page failures.
* :meth:`FaultInjector.capacity_scale` — time-windowed link capacity
  multipliers applied to the contention solve
  (:func:`repro.memsim.contention.solve`).
* :meth:`FaultInjector.demand_scale` — time-windowed workload phase shocks
  scaling an application's bandwidth demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


def _check_window(start_s: float, end_s: float) -> None:
    if not (start_s >= 0) or not end_s > start_s:
        raise ValueError(f"need 0 <= start_s < end_s, got [{start_s}, {end_s})")


def _check_prob(name: str, v: float) -> None:
    if not (isinstance(v, (int, float)) and math.isfinite(v) and 0 <= v < 1):
        raise ValueError(f"{name} must be a finite value in [0, 1), got {v!r}")


@dataclass(frozen=True)
class CounterNoiseFault:
    """Extra measurement noise on top of the counter bank's baseline.

    Attributes
    ----------
    extra_noise_std:
        Additional relative Gaussian standard deviation per read.
    spike_prob:
        Probability that a read is inflated by up to ``spike_scale``x —
        interference bursts the trimmed mean may or may not absorb.
    spike_scale:
        Maximum multiplicative inflation of a spiked read.
    """

    extra_noise_std: float = 0.0
    spike_prob: float = 0.0
    spike_scale: float = 1.0

    def __post_init__(self) -> None:
        # Comparisons are written so that NaN fails them.
        if not 0 <= self.extra_noise_std < math.inf:
            raise ValueError(
                "extra_noise_std must be non-negative and finite, "
                f"got {self.extra_noise_std}"
            )
        _check_prob("spike_prob", self.spike_prob)
        if not 1 <= self.spike_scale < math.inf:
            raise ValueError(
                f"spike_scale must be finite and >= 1, got {self.spike_scale}"
            )

    @property
    def is_null(self) -> bool:
        return self.extra_noise_std == 0 and self.spike_prob == 0


@dataclass(frozen=True)
class MigrationFaultSpec:
    """Failure modes of a page-migration batch.

    Attributes
    ----------
    page_failure_prob:
        Independent probability that a page in the batch fails to migrate
        and stays on its old node (pinned, racing unmap, allocation failure
        on the target — the kernel's ``move_pages`` reports these per
        page).
    transient_reject_prob:
        Probability that the whole call bounces EBUSY-style: nothing
        moves; the caller may retry.
    partial_abort_prob:
        Probability that the batch aborts partway: a uniform-random prefix
        commits, the tail stays put.
    """

    page_failure_prob: float = 0.0
    transient_reject_prob: float = 0.0
    partial_abort_prob: float = 0.0

    def __post_init__(self) -> None:
        for name in ("page_failure_prob", "transient_reject_prob", "partial_abort_prob"):
            _check_prob(name, getattr(self, name))

    @property
    def is_null(self) -> bool:
        return (
            self.page_failure_prob == 0
            and self.transient_reject_prob == 0
            and self.partial_abort_prob == 0
        )


@dataclass(frozen=True)
class LinkFault:
    """Time-windowed degradation of one directed interconnect link.

    During ``[start_s, end_s)`` the link ``src -> dst`` carries only
    ``capacity_scale`` of its nominal bandwidth. A flap is a short window
    with a tiny scale; a brown-out is a long window at, say, 0.5.
    """

    src: int
    dst: int
    capacity_scale: float
    start_s: float = 0.0
    end_s: float = math.inf

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"link fault endpoints must differ, got node {self.src}")
        if not 0 < self.capacity_scale <= 1:
            raise ValueError(
                f"capacity_scale must be in (0, 1], got {self.capacity_scale}"
            )
        _check_window(self.start_s, self.end_s)

    def active_at(self, now: float) -> bool:
        return self.start_s <= now < self.end_s


@dataclass(frozen=True)
class PhaseShock:
    """Time-windowed multiplier on an application's bandwidth demand.

    Models a workload phase change the adaptive tuner must survive:
    ``demand_scale > 1`` is a burst, ``< 1`` a lull. ``app_id=None``
    applies to every application.
    """

    demand_scale: float
    start_s: float = 0.0
    end_s: float = math.inf
    app_id: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0 < self.demand_scale < math.inf:
            raise ValueError(
                f"demand_scale must be positive and finite, got {self.demand_scale}"
            )
        _check_window(self.start_s, self.end_s)

    def active_at(self, now: float, app_id: str) -> bool:
        if self.app_id is not None and self.app_id != app_id:
            return False
        return self.start_s <= now < self.end_s


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded description of the adversity to inject.

    The plan is declarative and picklable, so it ships across process
    boundaries (the experiment fan-out) unchanged; each worker builds its
    own :class:`FaultInjector` and reproduces the same fault sequence.
    """

    seed: int = 0
    counter_noise: Optional[CounterNoiseFault] = None
    migration: Optional[MigrationFaultSpec] = None
    link_faults: Tuple[LinkFault, ...] = ()
    phase_shocks: Tuple[PhaseShock, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "link_faults", tuple(self.link_faults))
        object.__setattr__(self, "phase_shocks", tuple(self.phase_shocks))

    @property
    def is_null(self) -> bool:
        """True when the plan injects nothing (all intensities zero)."""
        return (
            (self.counter_noise is None or self.counter_noise.is_null)
            and (self.migration is None or self.migration.is_null)
            and not self.link_faults
            and not self.phase_shocks
        )

    def scaled(self, intensity: float) -> "FaultPlan":
        """A copy with every stochastic intensity multiplied by ``intensity``.

        ``intensity`` must be a finite value in ``[0, 1]``: the plan's own
        probabilities are the full-intensity adversity, and scaling past
        them (or by NaN, which every comparison silently lets through) has
        no defined meaning. Link/phase windows keep their timing but move
        their multipliers toward 1 proportionally. Used by the fault-matrix
        sweep to grade adversity levels from one template.
        """
        if not (
            isinstance(intensity, (int, float))
            and math.isfinite(intensity)
            and 0 <= intensity <= 1
        ):
            raise ValueError(
                f"intensity must be a finite value in [0, 1], got {intensity!r}"
            )

        def clip(p: float) -> float:
            return min(0.999, p * intensity)

        noise = None
        if self.counter_noise is not None:
            noise = CounterNoiseFault(
                extra_noise_std=self.counter_noise.extra_noise_std * intensity,
                spike_prob=clip(self.counter_noise.spike_prob),
                spike_scale=1.0
                + (self.counter_noise.spike_scale - 1.0) * intensity,
            )
        migration = None
        if self.migration is not None:
            migration = MigrationFaultSpec(
                page_failure_prob=clip(self.migration.page_failure_prob),
                transient_reject_prob=clip(self.migration.transient_reject_prob),
                partial_abort_prob=clip(self.migration.partial_abort_prob),
            )
        links = tuple(
            LinkFault(
                src=lf.src,
                dst=lf.dst,
                capacity_scale=max(
                    1e-3, 1.0 - (1.0 - lf.capacity_scale) * intensity
                ),
                start_s=lf.start_s,
                end_s=lf.end_s,
            )
            for lf in self.link_faults
        )
        shocks = tuple(
            PhaseShock(
                demand_scale=max(1e-3, 1.0 + (ps.demand_scale - 1.0) * intensity),
                start_s=ps.start_s,
                end_s=ps.end_s,
                app_id=ps.app_id,
            )
            for ps in self.phase_shocks
        )
        return FaultPlan(
            seed=self.seed,
            counter_noise=noise,
            migration=migration,
            link_faults=links,
            phase_shocks=shocks,
        )


#: The acceptance scenario of the robustness study: moderate counter noise
#: plus a 5% per-page migration failure rate and occasional EBUSY bounces.
DEFAULT_FAULT_PLAN = FaultPlan(
    counter_noise=CounterNoiseFault(
        extra_noise_std=0.10, spike_prob=0.08, spike_scale=2.5
    ),
    migration=MigrationFaultSpec(
        page_failure_prob=0.05, transient_reject_prob=0.05
    ),
)


@dataclass(frozen=True)
class MigrationDisposition:
    """Verdict for one migration batch of ``requested`` pages.

    ``rejected`` means the whole call bounced (EBUSY): nothing moved,
    retry later. Otherwise ``pages_failed`` of the requested pages stay on
    their old nodes (partial-batch abort folded in).
    """

    requested: int
    rejected: bool
    pages_failed: int

    @property
    def pages_ok(self) -> int:
        return 0 if self.rejected else self.requested - self.pages_failed


class FaultInjector:
    """Stateful realisation of a :class:`FaultPlan`.

    One injector belongs to one simulation run. Each subsystem draws from
    its own RNG stream (spawned from the plan seed), so e.g. the number of
    counter reads taken never shifts the migration fault sequence — fault
    realisations stay comparable across tuner variants.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        root = np.random.default_rng(plan.seed)
        streams = root.spawn(3)
        self._rng_counters = streams[0]
        self._rng_migration = streams[1]
        self._rng_misc = streams[2]
        # Memoised capacity-scale lookups: the active-window key changes
        # rarely (window edges), the per-epoch query is hot.
        self._scale_memo: Optional[Tuple[Tuple, Optional[np.ndarray]]] = None

    # ------------------------------------------------------------------ #
    # Counter noise
    # ------------------------------------------------------------------ #

    @property
    def perturbs_counters(self) -> bool:
        cn = self.plan.counter_noise
        return cn is not None and not cn.is_null

    def perturb_reading(self, value: float) -> float:
        """Inject extra noise into one counter read (hook for CounterBank)."""
        cn = self.plan.counter_noise
        if cn is None or cn.is_null:
            return value
        factor = 1.0
        if cn.extra_noise_std > 0:
            factor += self._rng_counters.normal(0.0, cn.extra_noise_std)
        if cn.spike_prob > 0 and self._rng_counters.random() < cn.spike_prob:
            factor *= 1.0 + self._rng_counters.random() * (cn.spike_scale - 1.0)
        return max(0.0, value * factor)

    # ------------------------------------------------------------------ #
    # Migration faults
    # ------------------------------------------------------------------ #

    def migration_disposition(self, requested: int) -> MigrationDisposition:
        """Decide the fate of a migration batch of ``requested`` pages."""
        if requested < 0:
            raise ValueError(f"requested must be non-negative, got {requested}")
        mf = self.plan.migration
        if mf is None or mf.is_null or requested == 0:
            return MigrationDisposition(requested, rejected=False, pages_failed=0)
        rng = self._rng_migration
        if mf.transient_reject_prob > 0 and rng.random() < mf.transient_reject_prob:
            return MigrationDisposition(requested, rejected=True, pages_failed=0)
        failed = 0
        if mf.partial_abort_prob > 0 and rng.random() < mf.partial_abort_prob:
            # A uniform-random prefix commits; the tail fails wholesale.
            committed = int(rng.integers(0, requested))
            failed = requested - committed
        remaining = requested - failed
        if mf.page_failure_prob > 0 and remaining > 0:
            failed += int(rng.binomial(remaining, mf.page_failure_prob))
        return MigrationDisposition(requested, rejected=False, pages_failed=failed)

    def choose_failed_pages(self, moved_indices: np.ndarray, count: int) -> np.ndarray:
        """Pick which of the moved pages the failures land on."""
        if count <= 0:
            return np.empty(0, dtype=moved_indices.dtype)
        count = min(count, len(moved_indices))
        return self._rng_migration.choice(moved_indices, size=count, replace=False)

    # ------------------------------------------------------------------ #
    # Link degradation
    # ------------------------------------------------------------------ #

    def capacity_scale_key(self, now: float) -> Optional[Tuple]:
        """Hashable identity of the link scales active at ``now``.

        ``None`` when no fault window is active — callers fold this into
        their solver-cache keys, so cached allocations never leak across a
        degradation edge.
        """
        if not self.plan.link_faults:
            return None
        active = tuple(
            (lf.src, lf.dst, lf.capacity_scale)
            for lf in self.plan.link_faults
            if lf.active_at(now)
        )
        return active or None

    def capacity_scale(self, machine, now: float) -> Optional[np.ndarray]:
        """Per-resource capacity multipliers over the machine's canonical
        resource axis, or ``None`` when no window is active.

        Overlapping windows on the same link compound multiplicatively.
        """
        key = self.capacity_scale_key(now)
        if key is None:
            return None
        if self._scale_memo is not None and self._scale_memo[0] == key:
            return self._scale_memo[1]
        from repro.memsim.contention import machine_tables

        tables = machine_tables(machine)
        scale = np.ones(tables.num_res)
        for src, dst, s in key:
            row = tables.res_index.get(("link", src, dst))
            if row is None:
                raise KeyError(
                    f"link fault targets {src}->{dst}, but machine "
                    f"{machine.name!r} has no such direct link"
                )
            scale[row] *= s
        self._scale_memo = (key, scale)
        return scale

    # ------------------------------------------------------------------ #
    # Time-windowed event edges
    # ------------------------------------------------------------------ #

    def next_event_after(self, now: float) -> Optional[float]:
        """Earliest fault-window edge strictly after ``now`` (or None).

        The simulator caps its static fast-forward at this time so a jump
        between events can never skip a link-degradation or phase-shock
        window entirely.
        """
        edges = [
            t
            for lf in self.plan.link_faults
            for t in (lf.start_s, lf.end_s)
            if math.isfinite(t) and t > now
        ]
        edges.extend(
            t
            for ps in self.plan.phase_shocks
            for t in (ps.start_s, ps.end_s)
            if math.isfinite(t) and t > now
        )
        return min(edges) if edges else None

    def stationary_epochs(self, now: float, dt: float, limit: int) -> int:
        """Epochs of length ``dt`` from ``now`` during which no fault-window
        edge can alter the epoch: every demand/capacity scale is constant
        and the simulator's ``min(dt, edge - t)`` clamp stays inactive.

        Replays the simulator's exact accumulation (``t += dt`` per epoch,
        clamp inactive iff ``edge - t >= dt`` — the same float comparison,
        same operand order), so a stride of this many epochs is
        bit-for-bit what per-epoch stepping would have produced. Capped at
        ``limit``.
        """
        edge = self.next_event_after(now)
        if edge is None:
            return limit
        t = now
        count = 0
        while count < limit:
            if not (edge - t >= dt):
                break
            t = t + dt
            count += 1
        return count

    # ------------------------------------------------------------------ #
    # Phase shocks
    # ------------------------------------------------------------------ #

    def demand_scale(self, app_id: str, now: float) -> float:
        """Demand multiplier for one application at sim time ``now``."""
        scale = 1.0
        for ps in self.plan.phase_shocks:
            if ps.active_at(now, app_id):
                scale *= ps.demand_scale
        return scale


def as_injector(
    faults: "Optional[FaultPlan | FaultInjector]",
) -> Optional[FaultInjector]:
    """Normalise a faults argument: None / null plan -> None, plan ->
    injector, injector -> itself (even over a null plan, so a caller can
    drive a fault-free run through every fault hook)."""
    if faults is None:
        return None
    if isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, FaultPlan):
        return None if faults.is_null else FaultInjector(faults)
    raise TypeError(
        f"faults must be a FaultPlan or FaultInjector, got {type(faults).__name__}"
    )
