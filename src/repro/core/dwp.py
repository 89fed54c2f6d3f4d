"""The DWP tuner (paper Section III-B): on-line 1-D weight adaptation.

The *data-to-worker proximity* factor collapses the N-dimensional weight
tuning problem to one dimension: DWP = 0 keeps the canonical distribution,
DWP = 1 moves all pages onto the worker nodes; in between, mass shifts from
the non-worker to the worker set while the canonical *relative* weights
within each set are preserved (the legitimacy of this reduction is
Observation 3 of Section II).

The tuner hill-climbs DWP on the measured stall rate: place pages at
DWP = 0 when the application calls ``BWAP-init``, then repeatedly measure
(n samples of t seconds, trimmed by c — Section III-B1), increase DWP by a
constant step while the stall rate keeps decreasing, and stop at the first
non-improvement. Each increase is enforced by incremental page migration —
a *narrowing* re-interleave, the direction ``mbind`` supports.

The same climb carries the fault defences of :mod:`repro.core.hardening`
(migration retry, smoothed measurement, stop patience, graceful
degradation) as steps armed by its ``hardening`` config; unarmed, they
leave the paper's search untouched. Every page write the climb makes is a
:data:`~repro.engine.sim.PageWrite` built by :meth:`DWPTuner._write` and
applied through :meth:`~repro.engine.sim.Simulator.migrate_placement`, so
migration faults and retries reach every variant that overrides it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.hardening import NO_DEFENCES, HardeningConfig
from repro.core.interleave import apply_weighted_placement
from repro.engine.app import Application
from repro.engine.sim import PageWrite, Simulator, Tuner, wake_epoch_at
from repro.perf.counters import MeasurementConfig


def combine_weights(
    canonical: Sequence[float], worker_nodes: Sequence[int], dwp: float
) -> np.ndarray:
    """Blend canonical weights with a data-to-worker-proximity factor.

    Worker mass grows from its canonical value (DWP = 0) to 1 (DWP = 1);
    within the worker and non-worker sets the canonical proportions are
    kept (Section III-B: "retaining the canonical weight relations").
    """
    c = np.asarray(canonical, dtype=float)
    if not np.isfinite(c).all() or (c < 0).any() or c.sum() <= 0:
        raise ValueError(
            "canonical weights must be finite and non-negative with positive "
            f"sum, got {c.tolist()}"
        )
    c = c / c.sum()
    if not 0.0 <= dwp <= 1.0:
        raise ValueError(f"DWP must be in [0, 1], got {dwp}")
    workers = sorted(set(worker_nodes))
    if not workers:
        raise ValueError("worker_nodes must not be empty")
    for w in workers:
        if not 0 <= w < len(c):
            raise ValueError(f"worker node {w} outside weight vector of {len(c)}")

    mask = np.zeros(len(c), dtype=bool)
    mask[workers] = True
    m0 = float(c[mask].sum())
    if m0 <= 0:
        raise ValueError("canonical weights place nothing on the worker nodes")
    target_mass = m0 + dwp * (1.0 - m0)

    out = np.zeros_like(c)
    out[mask] = c[mask] / m0 * target_mass
    rest = 1.0 - m0
    if rest > 1e-12:
        out[~mask] = c[~mask] / rest * (1.0 - target_mass)
    return out


class DWPProbeSession:
    """Memoised DWP-ladder prober for one fixed deployment.

    Wraps one batched analytic evaluator plus a per-DWP score memo, so
    re-entering with a narrower (or overlapping) DWP range — the
    warm-start polish pattern, and the oracle labeller's coarse-then-
    refine sweep — only evaluates the candidates the memo has not seen.
    Memoised scores are bitwise-identical to a fresh
    :func:`dwp_probe_curve` call: batch rows are independent in
    ``evaluate_many`` (every cross-consumer reduction runs over fixed
    machine axes), so scoring a subset in a smaller batch reproduces the
    full-batch values exactly.
    """

    def __init__(
        self,
        machine,
        workload,
        worker_nodes: Sequence[int],
        canonical: Sequence[float],
        *,
        mc_model=None,
        num_threads: Optional[int] = None,
    ):
        from repro.core.search import make_analytic_evaluator
        from repro.memsim.controller import DEFAULT_MC_MODEL

        self.machine = machine
        self.workload = workload
        self.workers = tuple(worker_nodes)
        self.canonical = np.asarray(canonical, dtype=float)
        self._evaluator = make_analytic_evaluator(
            machine,
            workload,
            self.workers,
            mc_model=DEFAULT_MC_MODEL if mc_model is None else mc_model,
            num_threads=num_threads,
        )
        self._memo: Dict[float, float] = {}
        #: Evaluator rows actually scored (memo hits excluded).
        self.evaluations = 0

    @property
    def memo_size(self) -> int:
        """Distinct DWP values scored so far."""
        return len(self._memo)

    def probe(self, dwp_values: Sequence[float]) -> np.ndarray:
        """Analytic execution time at each DWP value, memo-backed."""
        dwps = [float(d) for d in dwp_values]
        if not dwps:
            raise ValueError("dwp_values must not be empty")
        fresh: List[float] = []
        queued = set()
        for d in dwps:
            if d not in self._memo and d not in queued:
                queued.add(d)
                fresh.append(d)
        if fresh:
            weight_matrix = np.stack(
                [combine_weights(self.canonical, self.workers, d) for d in fresh]
            )
            values = self._evaluator.evaluate_many(weight_matrix)
            for d, v in zip(fresh, values):
                self._memo[d] = float(v)
            self.evaluations += len(fresh)
        return np.array([self._memo[d] for d in dwps])

    def best(self, dwp_values: Sequence[float]) -> Tuple[float, float]:
        """``(dwp, time)`` minimising the probed ladder (first minimum
        wins, matching ``np.argmin``)."""
        dwps = [float(d) for d in dwp_values]
        times = self.probe(dwps)
        i = int(np.argmin(times))
        return dwps[i], float(times[i])


def dwp_probe_curve(
    machine,
    workload,
    worker_nodes: Sequence[int],
    canonical: Sequence[float],
    dwp_values: Sequence[float],
    *,
    mc_model=None,
    num_threads: Optional[int] = None,
    session: Optional[DWPProbeSession] = None,
) -> np.ndarray:
    """Analytic execution time at each DWP value, in one batched pass.

    The offline counterpart of the online climb: blend the canonical
    weights with every candidate DWP (:func:`combine_weights`) and score
    the whole ladder as one weight matrix through the batched analytic
    evaluator. One vectorised contention solve per filling round covers
    all DWP values, so probing a full curve costs barely more than a
    single point — this is what the DWP ablation experiments sweep.

    Pass a :class:`DWPProbeSession` (``session=``) to re-enter the same
    deployment with further — typically narrower — DWP ranges without
    re-scoring candidates the session's memo already holds; the other
    deployment arguments are then ignored in favour of the session's.
    """
    if session is None:
        session = DWPProbeSession(
            machine,
            workload,
            worker_nodes,
            canonical,
            mc_model=mc_model,
            num_threads=num_threads,
        )
    return session.probe(dwp_values)


@dataclass(frozen=True)
class DWPStep:
    """One decision point in the tuner's trajectory."""

    time_s: float
    dwp: float
    stall_rate: float
    accepted: bool


class _Phase(enum.Enum):
    WAIT_MEASURE = "wait-measure"
    DONE = "done"


class DWPTuner(Tuner):
    """Stand-alone DWP hill climbing for one application.

    Parameters
    ----------
    app:
        Target application. It should be created with ``policy=None`` so
        the tuner owns placement (paper: the app links the library and
        calls ``BWAP-init`` after allocating its shared structures).
    canonical_weights:
        Canonical distribution for the app's worker set. Pass the uniform
        distribution to obtain the paper's *BWAP-uniform* ablation.
    step:
        DWP increment per iteration (paper: x = 10%).
    config:
        Stall-measurement parameters (paper: n = 20, c = 5, t = 0.2 s).
    mode:
        Weighted-interleave back end: ``"user"`` (Algorithm 1) or
        ``"kernel"``.
    warmup_s:
        Settling time after a placement change before measuring.
    tolerance:
        Relative stall-rate improvement below which the climb stops.
    warm_start:
        Optional starting DWP for the climb: a float in [0, 1], or a
        predictor — any object with a ``predict_dwp(app, canonical)``
        method (see :class:`repro.learn.WarmStartPredictor`) or a plain
        callable ``f(app, canonical) -> float``. At ``BWAP-init`` the
        tuner then jumps straight to that DWP in one placement move and
        hill-climbs only to polish; ``None`` (the default) keeps the
        paper's climb from DWP = 0, bit-for-bit.
    hardening:
        Fault defences (:class:`~repro.core.hardening.HardeningConfig`):
        EWMA smoothing, hysteresis, migration retry, stop patience and
        graceful degradation. ``None`` arms none of them
        (:data:`~repro.core.hardening.NO_DEFENCES`): the paper's plain
        climb.
    """

    def __init__(
        self,
        app: Application,
        canonical_weights: Sequence[float],
        *,
        step: float = 0.10,
        config: MeasurementConfig = MeasurementConfig(),
        mode: str = "user",
        warmup_s: float = 0.5,
        tolerance: float = 0.0,
        warm_start=None,
        hardening: Optional[HardeningConfig] = None,
    ):
        # Comparisons are written so that NaN fails them.
        if not 0 < step <= 1:
            raise ValueError(f"step must be in (0, 1], got {step}")
        if not 0 <= warmup_s < math.inf:
            raise ValueError(f"warmup must be non-negative and finite, got {warmup_s}")
        if not 0 <= tolerance < math.inf:
            raise ValueError(
                f"tolerance must be non-negative and finite, got {tolerance}"
            )
        if isinstance(warm_start, (int, float)) and not 0.0 <= float(warm_start) <= 1.0:
            raise ValueError(f"warm_start must be in [0, 1], got {warm_start}")
        self.app = app
        self.canonical = np.asarray(canonical_weights, dtype=float)
        self.step = step
        self.config = config
        self.mode = mode
        self.warmup_s = warmup_s
        self.tolerance = tolerance
        self.warm_start = warm_start
        self.hardening = NO_DEFENCES if hardening is None else hardening
        #: The DWP the warm start actually jumped to (None without one).
        self.warm_started_dwp: Optional[float] = None

        self.dwp = 0.0
        self.trajectory: List[DWPStep] = []
        self._phase = _Phase.WAIT_MEASURE
        self._next_action = 0.0
        self._prev_stall: Optional[float] = None

        #: True once the tuner gave up and fell back to uniform-workers.
        self.degraded = False
        #: Migration-batch replays actually issued.
        self.migration_retries = 0
        self._cv_strikes = 0
        self._no_improve_streak = 0
        #: (write, attempts-so-far) of a bounced batch awaiting replay.
        self._pending_retry: Optional[Tuple[PageWrite, int]] = None

    # ------------------------------------------------------------------ #
    # Tuner interface
    # ------------------------------------------------------------------ #

    def _resolve_warm_start(self) -> float:
        """The starting DWP a ``warm_start`` argument denotes."""
        value = self.warm_start
        if not isinstance(value, (int, float)):
            predict = getattr(value, "predict_dwp", None)
            value = (
                predict(self.app, self.canonical)
                if predict is not None
                else value(self.app, self.canonical)
            )
        value = float(value)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"warm start predicted DWP {value} outside [0, 1]")
        return value

    def on_start(self, sim: Simulator) -> None:
        """BWAP-init: place pages at the canonical distribution (DWP = 0),
        or — with a warm start — jump to the predicted DWP in one move."""
        if self.warm_start is not None:
            self.dwp = self._resolve_warm_start()
            self.warm_started_dwp = self.dwp
        self._apply(sim, self.dwp)
        self._schedule(sim)

    def on_epoch(self, sim: Simulator) -> None:
        if not self._ready(sim):
            return
        stall = self._measure(sim, self.app.app_id)
        # The first decision records the baseline and always tries the
        # first increase.
        first = self._prev_stall is None
        improved = first or stall < self._prev_stall * (
            1.0 - self.tolerance - self.hardening.hysteresis
        )
        self.trajectory.append(DWPStep(sim.now, self.dwp, stall, accepted=improved))
        if not self._defend(sim, improved):
            return
        if first or (improved and self.dwp < 1.0 - 1e-9):
            self._prev_stall = stall
            self._raise_dwp(sim)
        else:
            # Local optimum found (or the scale is exhausted). The reverse
            # migration is unsupported by mbind, so we keep the current DWP
            # — at most one step past the optimum (paper Section IV-B).
            self._phase = _Phase.DONE

    def is_settled(self) -> bool:
        return self._phase is _Phase.DONE

    def next_wake_epoch(self, sim: Simulator) -> Optional[int]:
        """Stride hint: this tuner is a pure no-op until ``_next_action``.

        Every decision point of both climbs passes :meth:`_ready`, which
        returns before touching any state, counter or RNG while
        ``sim.now < self._next_action``. Every defence acts inside a
        decision point, and retry backoffs reschedule through
        ``_next_action``. The only wrinkle is a finished app: the *next*
        call flips the phase to DONE, a real state change, so it must run
        as a regular epoch.
        """
        if self._phase is _Phase.DONE:
            return None
        if self.app.finished:
            return sim.epoch
        return wake_epoch_at(sim, self._next_action)

    @property
    def final_dwp(self) -> float:
        """The DWP the tuner settled on (meaningful once settled)."""
        return self.dwp

    @property
    def iterations(self) -> int:
        """Number of decision points taken so far."""
        return len(self.trajectory)

    # ------------------------------------------------------------------ #
    # Steps of the climb
    # ------------------------------------------------------------------ #

    def _ready(self, sim: Simulator) -> bool:
        """The gate of every decision point: True when this epoch measures.

        A finished app ends the search; a migration batch awaiting retry
        is replayed instead of measuring, and the decision waits for its
        outcome to settle (or, if it bounced again, for the next backoff).
        """
        if self._phase is _Phase.DONE:
            return False
        if self.app.finished:
            self._phase = _Phase.DONE
            return False
        if sim.now < self._next_action:
            return False
        if self._pending_retry is None:
            return True
        write, attempts = self._pending_retry
        self.migration_retries += 1
        sim.migration.record_retry(self.app.app_id)
        disposition = sim.migrate_placement(self.app, write)
        h = self.hardening
        if disposition.rejected and attempts + 1 < h.max_retries:
            self._pending_retry = (write, attempts + 1)
            self._next_action = sim.now + h.retry_backoff_s * (2 ** (attempts + 1))
        else:
            # Either the batch went through or the retry budget is spent —
            # measure whatever placement reality left us with.
            self._pending_retry = None
            self._schedule(sim)
        return False

    def _measure(self, sim: Simulator, app_id: str) -> float:
        """One decision's stall signal for ``app_id``: ``ewma_samples``
        trimmed-mean rounds blended exponentially, each round counting a
        low-SNR strike when its coefficient of variation is too high."""
        h = self.hardening
        smoothed: Optional[float] = None
        for _ in range(h.ewma_samples):
            sample = sim.sample_stall_stats(app_id, self.config)
            if smoothed is None:
                smoothed = sample.mean
            else:
                smoothed = h.ewma_alpha * sample.mean + (1 - h.ewma_alpha) * smoothed
            if sample.cv > h.snr_cv_threshold:
                self._cv_strikes += 1
            else:
                self._cv_strikes = 0
        assert smoothed is not None
        return smoothed

    def _defend(self, sim: Simulator, improved: bool) -> bool:
        """Run the defences on a recorded decision; False when one took
        over this decision point (degradation, stop patience)."""
        h = self.hardening
        if h.snr_strikes and self._cv_strikes >= h.snr_strikes:
            self._degrade(sim)
            return False
        if not improved:
            self._no_improve_streak += 1
            if self._no_improve_streak < h.stop_patience and self.dwp < 1.0 - 1e-9:
                # One spiked window must not end the climb: hold the DWP
                # and re-measure before conceding the local optimum.
                self._schedule(sim)
                return False
            return True
        self._no_improve_streak = 0
        return True

    def _schedule(self, sim: Simulator) -> None:
        """Next decision: after the warm-up and one decision's rounds."""
        self._next_action = (
            sim.now
            + self.warmup_s
            + self.config.wall_time_s * self.hardening.ewma_samples
        )

    def _raise_dwp(self, sim: Simulator) -> None:
        self.dwp = min(1.0, self.dwp + self.step)
        self._apply(sim, self.dwp)
        self._schedule(sim)

    def _apply(self, sim: Simulator, dwp: float) -> None:
        """Migrate to the placement of ``dwp``; a batch the fault layer
        bounces is queued for replay at the next decision point (when
        retries are armed)."""
        write = self._write(dwp)
        disposition = sim.migrate_placement(self.app, write)
        if (
            disposition.rejected
            and self.hardening.max_retries > 0
            and self._pending_retry is None
        ):
            self._pending_retry = (write, 0)

    def _write(self, dwp: float) -> PageWrite:
        """The page write that places the app at ``dwp``: the canonical
        weights shifted by ``dwp``, interleaved over every segment."""
        return self._interleave(
            combine_weights(self.canonical, self.app.worker_nodes, dwp)
        )

    def _interleave(self, weights: np.ndarray) -> PageWrite:
        """The page write that interleaves every segment by ``weights``."""
        mode = self.mode
        return lambda space: apply_weighted_placement(
            space, weights, mode=mode
        ).pages_moved

    def _degrade(self, sim: Simulator) -> None:
        """Fall back to uniform-workers: the noise floor has swallowed the
        gradient, so hold the safe static distribution instead of walking."""
        weights = np.zeros(self.app.machine.num_nodes)
        for w in self.app.worker_nodes:
            weights[w] = 1.0 / len(self.app.worker_nodes)
        sim.migrate_placement(self.app, self._interleave(weights))
        self.degraded = True
        self._phase = _Phase.DONE


class CoScheduledDWPTuner(DWPTuner):
    """The 2-stage co-scheduled variant (paper Section III-B3).

    Stage 1 is guided by the *high-priority* application A: B's DWP is
    raised while A's stall rate keeps dropping (B's pages are leaving A's
    nodes). Once A stabilises, the reached DWP is a lower bound, and
    stage 2 proceeds as the ordinary climb guided by B's own stall rate.
    Both stages measure through the same (possibly smoothed) path; the
    defences act in stage 2, whose SNR state starts afresh.

    Parameters are as in :class:`DWPTuner`, plus:

    high_priority_app_id:
        The co-located application whose performance must not degrade.
    stability_tolerance:
        Relative improvement of A's stall below which stage 1 ends.
    min_abs_improvement:
        Minimum *absolute* improvement of A's stall fraction (stalled
        cycles per cycle) for stage 1 to continue. A barely-stalled
        high-priority app (like Swaptions) shows large relative but
        negligible absolute changes; without this floor, stage 1 would
        chase noise-level gains and drive B's DWP far past the point where
        A has genuinely stabilised.
    """

    def __init__(
        self,
        app: Application,
        canonical_weights: Sequence[float],
        high_priority_app_id: str,
        *,
        stability_tolerance: float = 0.02,
        min_abs_improvement: float = 0.005,
        **kwargs,
    ):
        super().__init__(app, canonical_weights, **kwargs)
        if not 0 <= stability_tolerance < math.inf:
            raise ValueError(
                "stability_tolerance must be non-negative and finite, "
                f"got {stability_tolerance}"
            )
        if not 0 <= min_abs_improvement < math.inf:
            raise ValueError(
                "min_abs_improvement must be non-negative and finite, "
                f"got {min_abs_improvement}"
            )
        self.high_priority_app_id = high_priority_app_id
        self.stability_tolerance = stability_tolerance
        self.min_abs_improvement = min_abs_improvement
        self._stage = 1
        self._prev_a_stall: Optional[float] = None

    def on_epoch(self, sim: Simulator) -> None:
        if self._stage == 2:
            super().on_epoch(sim)
            return
        if not self._ready(sim):
            return

        a_stall = self._measure(sim, self.high_priority_app_id)
        if self._prev_a_stall is None:
            self._prev_a_stall = a_stall
            self.trajectory.append(DWPStep(sim.now, self.dwp, a_stall, accepted=True))
            self._raise_dwp(sim)
            return
        # Stage 1 continues only while A improves both relatively and by a
        # non-trivial absolute amount of stalled cycles.
        a_app = sim.app(self.high_priority_app_id)
        freq_hz = (
            sim.machine.node(a_app.worker_nodes[0]).cores[0].frequency_ghz * 1e9
        )
        gain = self._prev_a_stall - a_stall
        improving = (
            a_stall < self._prev_a_stall * (1.0 - self.stability_tolerance)
            and gain > self.min_abs_improvement * freq_hz
        )
        self.trajectory.append(DWPStep(sim.now, self.dwp, a_stall, accepted=improving))
        if improving and self.dwp < 1.0 - 1e-9:
            self._prev_a_stall = a_stall
            self._raise_dwp(sim)
        else:
            # A has stabilised: the current DWP is the lower bound; hand
            # over to the ordinary search driven by B's stall rate, with
            # the SNR state flushed so A's history cannot bias B's search.
            self._stage = 2
            self._prev_stall = None
            self._next_action = sim.now  # measure B immediately
            self._cv_strikes = 0

    @property
    def stage(self) -> int:
        """Current stage (1 = guided by A, 2 = guided by B)."""
        return self._stage
