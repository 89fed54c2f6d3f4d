"""Fleet-level fault plans: machine crashes, degradation, lossy admission.

The single-machine substrate (:mod:`repro.faults`) injects adversity
*inside* one simulator — noisy counters, bounced migrations, degraded
links. At fleet scale the dominant failure modes live one layer up:
whole machines crash and restart, a machine's interconnect browns out
for a window, the admission path rejects placements transiently, and a
completion report is lost so the work must be redone. A
:class:`FleetFaultPlan` describes all of that declaratively; a
:class:`FleetFaultInjector` realises it deterministically from the plan
seed, with per-subsystem RNG streams so the number of admission draws
never shifts the lost-completion sequence.

Everything is gated the same way as the single-machine plans: a null
plan (or ``None``) builds no injector at all, and every fault hook in
the scheduler is guarded on the injector — so a fault-free fleet run is
byte-for-byte the run the scheduler produced before this module existed.
An injector passed explicitly is kept even over a null plan: that run
goes through every hook, and must still equal the fault-free one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.faults import FaultPlan, LinkFault, _check_prob, _check_window
from repro.topology import Machine


@dataclass(frozen=True)
class MachineCrash:
    """One machine outage window: crash at ``start_s``, restart at ``end_s``.

    ``end_s = inf`` is a permanent failure — the machine never comes
    back. Resident apps are evicted at ``start_s``; what happens to them
    is the scheduler's recovery policy, not the plan's business.
    """

    mid: int
    start_s: float
    end_s: float = math.inf

    def __post_init__(self) -> None:
        if self.mid < 0:
            raise ValueError(f"mid must be non-negative, got {self.mid}")
        _check_window(self.start_s, self.end_s)

    def active_at(self, now: float) -> bool:
        return self.start_s <= now < self.end_s


@dataclass(frozen=True)
class MachineDegradation:
    """Time-windowed brown-out: every interconnect link of one machine
    carries only ``capacity_scale`` of its nominal bandwidth during
    ``[start_s, end_s)``. Overlapping windows compound multiplicatively.
    """

    mid: int
    capacity_scale: float
    start_s: float = 0.0
    end_s: float = math.inf

    def __post_init__(self) -> None:
        if self.mid < 0:
            raise ValueError(f"mid must be non-negative, got {self.mid}")
        if not 0 < self.capacity_scale <= 1:
            raise ValueError(
                f"capacity_scale must be in (0, 1], got {self.capacity_scale}"
            )
        _check_window(self.start_s, self.end_s)

    def active_at(self, now: float) -> bool:
        return self.start_s <= now < self.end_s


@dataclass(frozen=True)
class FleetFaultPlan:
    """A complete, seeded description of fleet-level adversity.

    Declarative and picklable (it folds into :class:`FleetSpec`
    fingerprints), like :class:`repro.faults.FaultPlan` one layer down.

    Attributes
    ----------
    seed:
        Seed of the injector's RNG streams (admission rejections and
        lost completions; crashes and degradations are explicit windows,
        not draws).
    crashes / degradations:
        Explicit outage and brown-out windows, per machine id.
    admission_reject_prob:
        Probability that an accepted placement decision bounces at admit
        time (control-plane timeout); the app stays pending and is
        retried on a later tick.
    lost_completion_prob:
        Probability that a finished app's completion is lost (the result
        never made it out); under a requeueing recovery policy the app
        re-runs from its last checkpoint.
    """

    seed: int = 0
    crashes: Tuple[MachineCrash, ...] = ()
    degradations: Tuple[MachineDegradation, ...] = ()
    admission_reject_prob: float = 0.0
    lost_completion_prob: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "degradations", tuple(self.degradations))
        _check_prob("admission_reject_prob", self.admission_reject_prob)
        _check_prob("lost_completion_prob", self.lost_completion_prob)

    @property
    def is_null(self) -> bool:
        """True when the plan injects nothing at all."""
        return (
            not self.crashes
            and not self.degradations
            and self.admission_reject_prob == 0
            and self.lost_completion_prob == 0
        )

    def max_mid(self) -> int:
        """Largest machine id the plan targets (-1 for an untargeted plan)."""
        mids = [c.mid for c in self.crashes] + [d.mid for d in self.degradations]
        return max(mids) if mids else -1

    def scaled(self, intensity: float) -> "FleetFaultPlan":
        """A copy graded to ``intensity`` in ``[0, 1]``.

        Probabilities scale linearly; degradation multipliers move toward
        1 proportionally; the first ``round(len(crashes) * intensity)``
        crash windows (plan order) are kept. ``scaled(0)`` is null,
        ``scaled(1)`` is the plan itself.
        """
        if not (
            isinstance(intensity, (int, float))
            and math.isfinite(intensity)
            and 0 <= intensity <= 1
        ):
            raise ValueError(
                f"intensity must be a finite value in [0, 1], got {intensity!r}"
            )
        keep = int(round(len(self.crashes) * intensity))
        degradations = ()
        if intensity > 0:
            degradations = tuple(
                MachineDegradation(
                    mid=d.mid,
                    capacity_scale=1.0 - (1.0 - d.capacity_scale) * intensity,
                    start_s=d.start_s,
                    end_s=d.end_s,
                )
                for d in self.degradations
            )
        return FleetFaultPlan(
            seed=self.seed,
            crashes=self.crashes[:keep],
            degradations=degradations,
            admission_reject_prob=self.admission_reject_prob * intensity,
            lost_completion_prob=self.lost_completion_prob * intensity,
        )


def chaos_plan(
    num_machines: int,
    horizon_s: float,
    *,
    seed: int = 0,
    crash_frac: float = 0.25,
    flap_frac: float = 0.06,
    permanent_frac: float = 0.15,
    degrade_frac: float = 0.3,
    admission_reject_prob: float = 0.05,
    lost_completion_prob: float = 0.04,
) -> FleetFaultPlan:
    """Synthesise a seeded chaos plan for a fleet of ``num_machines``.

    Per machine (in mid order, one RNG): with ``crash_frac`` probability
    one outage window somewhere in the first ~70% of the horizon
    (``permanent_frac`` of those never restart); with ``flap_frac``
    probability a flapping pair of short back-to-back outages; with
    ``degrade_frac`` probability one brown-out window at a scale drawn
    from [0.3, 0.8]. Fully deterministic in ``seed``.
    """
    if num_machines <= 0:
        raise ValueError(f"num_machines must be positive, got {num_machines}")
    if horizon_s <= 0:
        raise ValueError(f"horizon_s must be positive, got {horizon_s}")
    rng = np.random.default_rng(seed)
    crashes: List[MachineCrash] = []
    degradations: List[MachineDegradation] = []
    for mid in range(num_machines):
        if rng.random() < flap_frac:
            start = float(rng.uniform(0.05, 0.5) * horizon_s)
            outage = float(rng.uniform(0.01, 0.03) * horizon_s)
            gap = float(rng.uniform(0.02, 0.05) * horizon_s)
            crashes.append(MachineCrash(mid, start, start + outage))
            second = start + outage + gap
            crashes.append(MachineCrash(mid, second, second + outage))
        elif rng.random() < crash_frac:
            start = float(rng.uniform(0.05, 0.7) * horizon_s)
            if rng.random() < permanent_frac:
                crashes.append(MachineCrash(mid, start))
            else:
                outage = float(rng.uniform(0.03, 0.12) * horizon_s)
                crashes.append(MachineCrash(mid, start, start + outage))
        if rng.random() < degrade_frac:
            start = float(rng.uniform(0.0, 0.6) * horizon_s)
            length = float(rng.uniform(0.1, 0.4) * horizon_s)
            scale = float(rng.uniform(0.3, 0.8))
            degradations.append(
                MachineDegradation(mid, scale, start, start + length)
            )
    crashes.sort(key=lambda c: (c.start_s, c.mid))
    return FleetFaultPlan(
        seed=seed,
        crashes=tuple(crashes),
        degradations=tuple(degradations),
        admission_reject_prob=admission_reject_prob,
        lost_completion_prob=lost_completion_prob,
    )


class HealthTracker:
    """Circuit-breaker admission filter against flapping machines.

    Every crash opens the breaker until ``restart + cooldown_s *
    2**(crashes - 1)``: a machine that keeps crashing is held out
    exponentially longer after each restart, so the scheduler stops
    feeding work to a flapper. ``cooldown_s = 0`` disables the breaker
    (crashed machines are still excluded while down). :attr:`blocked_until`
    holds each machine's breaker expiry (``-inf`` while never blocked).
    """

    def __init__(self, cooldown_s: float, num_machines: int):
        if cooldown_s < 0:
            raise ValueError(f"cooldown_s must be non-negative, got {cooldown_s}")
        self.cooldown_s = cooldown_s
        self._crashes = np.zeros(num_machines, dtype=np.int64)
        self.blocked_until = np.full(num_machines, -math.inf)

    def record_crash(self, mid: int, restart_s: float) -> None:
        self._crashes[mid] += 1
        if self.cooldown_s > 0 and math.isfinite(restart_s):
            n = int(self._crashes[mid])
            self.blocked_until[mid] = restart_s + self.cooldown_s * 2.0 ** (n - 1)

    def crash_count(self, mid: int) -> int:
        return int(self._crashes[mid])

    def allows(self, mid: int, now: float) -> bool:
        return bool(now >= self.blocked_until[mid])


#: Uniform draws a :class:`_Draws` stream takes from its generator at once.
_DRAW_BLOCK = 256


class _Draws:
    """One RNG stream's uniform draws, served from a refilled block:
    ``Generator.random(k)`` yields exactly the values of ``k`` scalar
    ``random()`` calls, so the verdict sequence is the scalar one."""

    __slots__ = ("_rng", "_block", "_i")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._block: List[float] = []
        self._i = 0

    def next(self) -> float:
        i = self._i
        if i == len(self._block):
            self._block = self._rng.random(_DRAW_BLOCK).tolist()
            i = 0
        self._i = i + 1
        return self._block[i]


class FleetFaultInjector:
    """Stateful realisation of a :class:`FleetFaultPlan`.

    Window queries (crashes, degradations, edges) are pure functions of
    the plan; only the admission-rejection and lost-completion draws are
    stateful, each on its own RNG stream spawned from the plan seed.
    Draws happen in scheduler decision order, which any scheduler that
    takes the same decisions shares — so fault realisations never
    diverge between the scheduler and its exhaustive reference.
    """

    def __init__(self, plan: FleetFaultPlan):
        self.plan = plan
        streams = np.random.default_rng(plan.seed).spawn(2)
        self._admission_draws = _Draws(streams[0])
        self._completion_draws = _Draws(streams[1])
        self._crashes_by_mid: Dict[int, List[MachineCrash]] = {}
        for c in plan.crashes:
            self._crashes_by_mid.setdefault(c.mid, []).append(c)
        self._degr_by_mid: Dict[int, List[MachineDegradation]] = {}
        for d in plan.degradations:
            self._degr_by_mid.setdefault(d.mid, []).append(d)
        #: All finite window edges, ascending (the scheduler clamps its
        #: clock advances here so no backend integrates across an edge).
        edges = set()
        for c in plan.crashes:
            edges.add(c.start_s)
            if math.isfinite(c.end_s):
                edges.add(c.end_s)
        for d in plan.degradations:
            edges.add(d.start_s)
            if math.isfinite(d.end_s):
                edges.add(d.end_s)
        self._edges: List[float] = sorted(edges)
        #: Per-machine memo of the capacity-scale array for the currently
        #: active degradation-window set (the per-tick query is hot).
        self._scale_memo: Dict[int, Tuple[Tuple[float, ...], np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    # Crash windows
    # ------------------------------------------------------------------ #

    def crashed_at(self, mid: int, now: float) -> bool:
        return any(c.active_at(now) for c in self._crashes_by_mid.get(mid, ()))

    def crash_starts_in(
        self, t0: float, t1: float
    ) -> List[Tuple[float, int, float]]:
        """Crash onsets with ``t0 < start_s <= t1``, as ``(start, mid,
        end)`` sorted by ``(start, mid)`` — the scheduler's eviction
        processing order."""
        hits = [
            (c.start_s, c.mid, c.end_s)
            for c in self.plan.crashes
            if t0 < c.start_s <= t1
        ]
        hits.sort()
        return hits

    def downtime_in(self, mid: int, end_s: float) -> float:
        """Seconds machine ``mid`` spent crashed within ``[0, end_s]``."""
        total = 0.0
        for c in self._crashes_by_mid.get(mid, ()):
            total += max(0.0, min(c.end_s, end_s) - min(c.start_s, end_s))
        return total

    # ------------------------------------------------------------------ #
    # Degradation windows
    # ------------------------------------------------------------------ #

    def degradation_scale(self, mid: int, now: float) -> float:
        """Compound link-capacity multiplier of ``mid`` at ``now`` (1.0
        when no window is active)."""
        scale = 1.0
        for d in self._degr_by_mid.get(mid, ()):
            if d.active_at(now):
                scale *= d.capacity_scale
        return scale

    def scale_key_for(self, mid: int, now: float) -> Optional[Tuple[float, ...]]:
        """Hashable identity of ``mid``'s active degradation-window set at
        ``now`` (``None`` when healthy) — the same key
        :meth:`capacity_scale_for` memoises on, so two ticks with equal
        keys see bitwise-identical capacity-scale arrays. The incremental
        scheduler folds it into its score-memo keys."""
        degrs = self._degr_by_mid.get(mid)
        if not degrs:
            return None
        key = tuple(d.capacity_scale for d in degrs if d.active_at(now))
        return key or None

    def capacity_scale_for(
        self, mid: int, machine: Machine, now: float
    ) -> Optional[np.ndarray]:
        """Per-resource multipliers over ``machine``'s canonical resource
        axis (every direct link scaled; MCs and ingress untouched), or
        ``None`` when ``mid`` has no active brown-out."""
        degrs = self._degr_by_mid.get(mid)
        if not degrs:
            return None
        key = tuple(d.capacity_scale for d in degrs if d.active_at(now))
        if not key:
            return None
        memo = self._scale_memo.get(mid)
        if memo is not None and memo[0] == key:
            return memo[1]
        from repro.memsim.contention import machine_tables

        tables = machine_tables(machine)
        scale = np.ones(tables.num_res)
        compound = 1.0
        for s in key:
            compound *= s
        for row, res in enumerate(tables.res_keys):
            if res[0] == "link":
                scale[row] = compound
        self._scale_memo[mid] = (key, scale)
        return scale

    def sim_fault_plan(self, mid: int, machine: Machine) -> Optional[FaultPlan]:
        """The plan's brown-outs for ``mid`` as a single-machine
        :class:`~repro.faults.FaultPlan` of :class:`LinkFault` windows —
        what a :class:`SimBackend`'s internal simulator consumes, so the
        full-fidelity backend degrades exactly where the fluid one does.
        """
        degrs = self._degr_by_mid.get(mid)
        if not degrs:
            return None
        from repro.memsim.contention import machine_tables

        links = [
            res for res in machine_tables(machine).res_keys if res[0] == "link"
        ]
        faults = tuple(
            LinkFault(
                src=src,
                dst=dst,
                capacity_scale=d.capacity_scale,
                start_s=d.start_s,
                end_s=d.end_s,
            )
            for d in degrs
            for (_kind, src, dst) in links
        )
        return FaultPlan(seed=self.plan.seed, link_faults=faults)

    # ------------------------------------------------------------------ #
    # Edges and draws
    # ------------------------------------------------------------------ #

    def next_edge_after(self, now: float) -> Optional[float]:
        """Earliest crash/degradation window edge strictly after ``now``."""
        import bisect

        i = bisect.bisect_right(self._edges, now)
        return self._edges[i] if i < len(self._edges) else None

    def admission_rejected(self) -> bool:
        """Draw one admission-rejection verdict (decision order)."""
        p = self.plan.admission_reject_prob
        return p > 0 and self._admission_draws.next() < p

    def completion_lost(self) -> bool:
        """Draw one lost-completion verdict (completion order)."""
        p = self.plan.lost_completion_prob
        return p > 0 and self._completion_draws.next() < p


def as_fleet_injector(
    faults: "Optional[FleetFaultPlan | FleetFaultInjector]",
    *,
    num_machines: Optional[int] = None,
) -> Optional[FleetFaultInjector]:
    """Normalise a fleet-faults argument: ``None`` / null plan -> ``None``,
    plan -> injector, injector -> itself (even over a null plan, so a
    caller can drive a fault-free run through every fault hook). With
    ``num_machines`` given, plans targeting machine ids outside the fleet
    are rejected."""
    if faults is None:
        return None
    if isinstance(faults, FleetFaultInjector):
        plan = faults.plan
        out: Optional[FleetFaultInjector] = faults
    elif isinstance(faults, FleetFaultPlan):
        if faults.is_null:
            return None
        plan = faults
        out = FleetFaultInjector(faults)
    else:
        raise TypeError(
            "faults must be a FleetFaultPlan or FleetFaultInjector, "
            f"got {type(faults).__name__}"
        )
    if num_machines is not None and plan.max_mid() >= num_machines:
        raise ValueError(
            f"fault plan targets machine {plan.max_mid()}, but the fleet "
            f"has only {num_machines} machines"
        )
    return out
