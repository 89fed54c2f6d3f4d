"""BWAP facade: the ``bw-interleaved`` policy and ``BWAP-init`` entry point.

Wires the two components together the way the paper's library does: the
application is deployed, calls :func:`bwap_init` once its shared structures
exist, and from then on the library owns page placement — initial canonical
placement plus on-line DWP adaptation — transparently.

:func:`deploy_app` is the one deployment path for a measured application
under a named policy (the paper's baselines or BWAP), shared by the
single-machine experiments and the fleet's simulator backend;
:func:`outcome_for_app` folds its results into a :class:`RunOutcome`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.canonical import CanonicalTuner
from repro.core.dwp import CoScheduledDWPTuner, DWPTuner, combine_weights
from repro.core.hardening import HardeningConfig
from repro.engine.app import Application
from repro.engine.sim import Simulator
from repro.memsim import (
    AutoNUMA,
    CarrefourLike,
    FirstTouch,
    UniformAll,
    UniformWorkers,
    WeightedInterleave,
)
from repro.perf.counters import MeasurementConfig
from repro.workloads import WorkloadSpec

#: Policy labels in the paper's legend order.
BASELINE_POLICIES: Tuple[str, ...] = (
    "first-touch",
    "uniform-workers",
    "uniform-all",
    "autonuma",
)
ALL_POLICIES: Tuple[str, ...] = BASELINE_POLICIES + ("bwap-uniform", "bwap")


@dataclass(frozen=True)
class BWAPConfig:
    """Tunables of the BWAP library (paper defaults from Section IV).

    Attributes
    ----------
    step:
        DWP increment per iteration (x = 10%).
    measurement:
        Stall-sampling parameters (n = 20, c = 5, t = 0.2 s).
    mode:
        Weighted-interleave back end: ``"user"`` (portable Algorithm 1,
        the paper's default for the evaluation) or ``"kernel"``.
    use_canonical:
        When False, start from the uniform-all distribution instead of the
        canonical one — the paper's *BWAP-uniform* ablation.
    warmup_s:
        Settle time after each migration before measuring.
    tolerance:
        Relative stall improvement required to keep climbing.
    hardening:
        Fault defences armed in the DWP tuner (EWMA smoothing, hysteresis,
        migration retry, stop patience, graceful degradation — see
        :mod:`repro.core.hardening`). ``None`` keeps the paper's plain
        climb.
    warm_start:
        Fixed starting DWP in [0, 1]: the tuner jumps there in one
        placement move at ``BWAP-init`` and hill-climbs only to polish
        (``None`` keeps the paper's climb from DWP = 0). Deliberately a
        plain float — not a predictor object — so the config stays
        picklable and canonically fingerprintable inside a
        :class:`~repro.experiments.common.ScenarioSpec`; callers holding
        a :class:`repro.learn.WarmStartPredictor` resolve the prediction
        first (:meth:`~repro.learn.WarmStartPredictor.predict`) or pass
        the predictor straight to :class:`~repro.core.dwp.DWPTuner`.
    """

    step: float = 0.10
    measurement: MeasurementConfig = field(default_factory=MeasurementConfig)
    mode: str = "user"
    use_canonical: bool = True
    warmup_s: float = 0.5
    tolerance: float = 0.02
    hardening: Optional[HardeningConfig] = None
    warm_start: Optional[float] = None

    def __post_init__(self) -> None:
        if self.warm_start is not None and not 0.0 <= self.warm_start <= 1.0:
            raise ValueError(
                f"warm_start must be in [0, 1] or None, got {self.warm_start}"
            )


def canonical_or_uniform(
    app: Application,
    canonical_tuner: Optional[CanonicalTuner],
    config: BWAPConfig,
) -> np.ndarray:
    """The starting weight distribution BWAP departs from."""
    n = app.machine.num_nodes
    if not config.use_canonical:
        return np.full(n, 1.0 / n)
    if canonical_tuner is None:
        canonical_tuner = CanonicalTuner(app.machine)
    return canonical_tuner.weights(app.worker_nodes)


def bwap_init(
    sim: Simulator,
    app: Application,
    *,
    canonical_tuner: Optional[CanonicalTuner] = None,
    config: BWAPConfig = BWAPConfig(),
    high_priority_app_id: Optional[str] = None,
) -> DWPTuner:
    """The paper's ``BWAP-init``: activate BWAP for an application.

    Must be called after the application allocated its shared structures
    (here: after construction, before ``sim.run``). Returns the attached
    DWP tuner, whose trajectory and final DWP the experiments inspect.

    Parameters
    ----------
    high_priority_app_id:
        When given, uses the co-scheduled 2-stage variant guided first by
        that application's stall rate (Section III-B3).
    """
    if app.policy is not None:
        raise ValueError(
            f"application {app.app_id!r} already has a placement policy; "
            "BWAP owns placement — construct the app with policy=None"
        )
    canonical = canonical_or_uniform(app, canonical_tuner, config)
    common = dict(
        step=config.step,
        config=config.measurement,
        mode=config.mode,
        warmup_s=config.warmup_s,
        tolerance=config.tolerance,
        warm_start=config.warm_start,
        hardening=config.hardening,
    )
    if high_priority_app_id is not None:
        tuner: DWPTuner = CoScheduledDWPTuner(
            app, canonical, high_priority_app_id, **common
        )
    else:
        tuner = DWPTuner(app, canonical, **common)
    sim.add_tuner(tuner)
    return tuner


@dataclass(frozen=True)
class RunOutcome:
    """Everything an experiment needs from one scenario run.

    The trailing fault/hardening fields stay at their zero defaults on
    fault-free runs with unarmed tuners, so pre-existing consumers are
    unaffected.
    """

    exec_time_s: float
    mean_stall: float
    throughput_gbps: float
    pages_moved: int
    final_dwp: Optional[float] = None
    tuner_iterations: Optional[int] = None
    pages_failed: int = 0
    migration_rejections: int = 0
    migration_retries: int = 0
    degraded: bool = False

    def speedup_over(self, baseline: "RunOutcome") -> float:
        """Speedup of this run relative to a baseline run."""
        return baseline.exec_time_s / self.exec_time_s

    def to_payload(self) -> Dict[str, object]:
        """JSON-safe dict for the result store.

        Every field is a Python scalar (float/int/bool/None); JSON
        round-trips those exactly (floats serialise via ``repr``), so a
        store-served outcome is bit-for-bit the recomputed one. Numpy
        scalars are converted to the equal-valued Python scalar (json
        refuses them outright).
        """

        def scalar(v):
            if v is None or isinstance(v, bool):
                return v
            if isinstance(v, (int, np.integer)):
                return int(v)
            if isinstance(v, (float, np.floating)):
                return float(v)
            raise TypeError(f"non-scalar outcome field {v!r}")

        return {
            f.name: scalar(getattr(self, f.name)) for f in dataclasses.fields(self)
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "RunOutcome":
        """Rebuild an outcome from :meth:`to_payload`; raises on a payload
        whose keys do not match this schema (the store treats that as a
        corrupt entry and recomputes)."""
        names = {f.name for f in dataclasses.fields(cls)}
        if set(payload) != names:
            raise ValueError(
                f"outcome payload keys {sorted(payload)} != schema {sorted(names)}"
            )
        return cls(**payload)


def _make_policy(name: str, static_weights: Optional[np.ndarray]):
    if name == "first-touch":
        return FirstTouch()
    if name == "uniform-workers":
        return UniformWorkers()
    if name == "uniform-all":
        return UniformAll()
    if name == "autonuma":
        return AutoNUMA()
    if name == "carrefour":
        return CarrefourLike()
    if name == "weighted":
        if static_weights is None:
            raise ValueError("policy 'weighted' requires static_weights")
        return WeightedInterleave(static_weights)
    if name in ("bwap", "bwap-uniform"):
        return None  # the tuner owns placement
    raise KeyError(f"unknown policy {name!r}; known: {ALL_POLICIES + ('weighted',)}")


def deploy_app(
    sim: Simulator,
    app_id: str,
    workload: WorkloadSpec,
    workers: Sequence[int],
    policy: str,
    *,
    canonical: CanonicalTuner,
    num_threads: Optional[int] = None,
    static_weights: Optional[np.ndarray] = None,
    static_dwp: Optional[float] = None,
    bwap_config: Optional[BWAPConfig] = None,
    high_priority_app_id: Optional[str] = None,
):
    """Deploy one measured application under a named policy.

    Adds the :class:`Application` (and, for ``bwap``/``bwap-uniform``, its
    DWP tuner) to ``sim`` and returns ``(app, tuner)``. The experiments'
    ``run_scenario`` deploys through it, and so do the fleet's
    simulator-backed machines for every arriving app — the
    1-machine-fleet reduction property rests on it.
    """
    if policy == "bwap-static":
        if static_dwp is None:
            raise ValueError("policy 'bwap-static' requires static_dwp")
        weights = combine_weights(canonical.weights(workers), workers, static_dwp)
        app_policy = WeightedInterleave(weights)
    else:
        app_policy = _make_policy(policy, static_weights)

    app = sim.add_app(
        Application(
            app_id,
            workload,
            sim.machine,
            tuple(workers),
            num_threads=num_threads,
            policy=app_policy,
        )
    )

    tuner = None
    if policy in ("bwap", "bwap-uniform"):
        config = bwap_config or BWAPConfig(use_canonical=(policy == "bwap"))
        if config.use_canonical != (policy == "bwap"):
            config = dataclasses.replace(config, use_canonical=(policy == "bwap"))
        tuner = bwap_init(
            sim,
            app,
            canonical_tuner=canonical,
            config=config,
            high_priority_app_id=high_priority_app_id,
        )
    return app, tuner


def outcome_for_app(result, app_id: str, tuner) -> RunOutcome:
    """Fold one app's results out of a ``SimResult`` into a :class:`RunOutcome`."""
    tele = result.telemetry[app_id]
    migration = result.migration[app_id]
    return RunOutcome(
        exec_time_s=result.execution_time(app_id),
        mean_stall=tele.mean_stall_fraction,
        throughput_gbps=tele.mean_throughput_gbps,
        pages_moved=migration.pages_moved,
        final_dwp=None if tuner is None else tuner.final_dwp,
        tuner_iterations=None if tuner is None else tuner.iterations,
        pages_failed=migration.pages_failed,
        migration_rejections=migration.rejected_calls,
        migration_retries=migration.retries,
        degraded=False if tuner is None else tuner.degraded,
    )
