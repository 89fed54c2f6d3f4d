"""The DWP tuner as two class families: the reference for the merged tuner.

The plain climb (:class:`DWPTuner`, :class:`CoScheduledDWPTuner`) runs its
control flow through hook methods; :class:`_HardenedMixin` overrides those
hooks to arm the fault defences, giving :class:`HardenedDWPTuner` and
:class:`HardenedCoScheduledDWPTuner`. The production
:class:`repro.core.dwp.DWPTuner` folds the defences into one climb driven
by its ``hardening`` config and must reproduce these classes bitwise:
trajectory, final DWP, defence counters, migration statistics and
execution time.

The mixin keeps the rollback watchdog the production tuner no longer has,
armed by its own ``watchdog_k``/``watchdog_margin`` arguments: with it
armed, the two must still agree bitwise, which shows the watchdog never
acts (every accepted stall beats the previous accepted one, so it is
always a new best).
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dwp import DWPStep, combine_weights
from repro.core.hardening import HardeningConfig
from repro.core.interleave import apply_weighted_placement
from repro.engine.app import Application
from repro.engine.sim import Simulator, Tuner, wake_epoch_at
from repro.memsim.pages import UNALLOCATED
from repro.perf.counters import MeasurementConfig


class _Phase(enum.Enum):
    WAIT_MEASURE = "wait-measure"
    DONE = "done"


def interleave_write(weights: np.ndarray, mode: str):
    """The page write of a weighted interleave over every segment."""
    return lambda space: apply_weighted_placement(space, weights, mode=mode).pages_moved


class DWPTuner(Tuner):
    """The plain hill climb on the stall rate, with hook methods."""

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
    ):
        self.app = app
        self.canonical = np.asarray(canonical_weights, dtype=float)
        self.step = step
        self.config = config
        self.mode = mode
        self.warmup_s = warmup_s
        self.tolerance = tolerance
        self.warm_start = warm_start
        self.warm_started_dwp: Optional[float] = None

        self.dwp = 0.0
        self.trajectory: List[DWPStep] = []
        self._phase = _Phase.WAIT_MEASURE
        self._next_action = 0.0
        self._prev_stall: Optional[float] = None

    def on_start(self, sim: Simulator) -> None:
        if self.warm_start is not None:
            self.dwp = float(self.warm_start)
            self.warm_started_dwp = self.dwp
        self._apply(sim, self.dwp)
        self._next_action = sim.now + self.warmup_s + self._measurement_wall_s()

    def on_epoch(self, sim: Simulator) -> None:
        if self._phase is _Phase.DONE:
            return
        if sim.now < self._next_action or self.app.finished:
            if self.app.finished:
                self._phase = _Phase.DONE
            return
        if not self._pre_measure(sim):
            return

        stall = self._measure(sim)
        if self._prev_stall is None:
            self.trajectory.append(DWPStep(sim.now, self.dwp, stall, accepted=True))
            if not self._post_decision(sim, stall, improved=True):
                return
            self._prev_stall = stall
            self._raise_dwp(sim)
            return

        improved = stall < self._prev_stall * self._accept_factor()
        self.trajectory.append(DWPStep(sim.now, self.dwp, stall, accepted=improved))
        if not self._post_decision(sim, stall, improved):
            return
        if improved and self.dwp < 1.0 - 1e-9:
            self._prev_stall = stall
            self._raise_dwp(sim)
        else:
            self._phase = _Phase.DONE

    def is_settled(self) -> bool:
        return self._phase is _Phase.DONE

    def next_wake_epoch(self, sim: Simulator) -> Optional[int]:
        if self._phase is _Phase.DONE:
            return None
        if self.app.finished:
            return sim.epoch
        return wake_epoch_at(sim, self._next_action)

    @property
    def final_dwp(self) -> float:
        return self.dwp

    # Hooks the hardened variants override.

    def _pre_measure(self, sim: Simulator) -> bool:
        return True

    def _measure(self, sim: Simulator) -> float:
        return self._measure_for(sim, self.app.app_id)

    def _measure_for(self, sim: Simulator, app_id: str) -> float:
        return sim.counters.sample_stall_rate(app_id, self.config)

    def _accept_factor(self) -> float:
        return 1.0 - self.tolerance

    def _post_decision(self, sim: Simulator, stall: float, improved: bool) -> bool:
        return True

    def _measurement_wall_s(self) -> float:
        return self.config.wall_time_s

    def _raise_dwp(self, sim: Simulator) -> None:
        self.dwp = min(1.0, self.dwp + self.step)
        self._apply(sim, self.dwp)
        self._next_action = sim.now + self.warmup_s + self._measurement_wall_s()

    def _apply(self, sim: Simulator, dwp: float) -> None:
        weights = combine_weights(self.canonical, self.app.worker_nodes, dwp)
        self._dispatch_migration(sim, weights)

    def _dispatch_migration(self, sim: Simulator, weights: np.ndarray) -> None:
        sim.migrate_placement(self.app, interleave_write(weights, self.mode))


class CoScheduledDWPTuner(DWPTuner):
    """The 2-stage co-scheduled climb, stage 1 repeating the base gate."""

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
        self.high_priority_app_id = high_priority_app_id
        self.stability_tolerance = stability_tolerance
        self.min_abs_improvement = min_abs_improvement
        self._stage = 1
        self._prev_a_stall: Optional[float] = None

    def on_epoch(self, sim: Simulator) -> None:
        if self._stage == 2:
            super().on_epoch(sim)
            return
        if self._phase is _Phase.DONE:
            return
        if sim.now < self._next_action or self.app.finished:
            if self.app.finished:
                self._phase = _Phase.DONE
            return
        if not self._pre_measure(sim):
            return

        a_stall = self._measure_for(sim, self.high_priority_app_id)
        if self._prev_a_stall is None:
            self._prev_a_stall = a_stall
            self.trajectory.append(DWPStep(sim.now, self.dwp, a_stall, accepted=True))
            self._raise_dwp(sim)
            return
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
            self._stage = 2
            self._prev_stall = None
            self._next_action = sim.now
            self._on_stage_transition(sim)

    def _on_stage_transition(self, sim: Simulator) -> None:
        pass

    @property
    def stage(self) -> int:
        return self._stage


class _HardenedMixin:
    """The fault defences, as overrides of the plain tuner's hooks."""

    def __init__(
        self,
        *args,
        hardening: Optional[HardeningConfig] = None,
        watchdog_k: int = 3,
        watchdog_margin: float = 0.02,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.hardening = hardening if hardening is not None else HardeningConfig()
        self.watchdog_k = watchdog_k
        self.watchdog_margin = watchdog_margin
        self.rollbacks = 0
        self.degraded = False
        self.migration_retries = 0
        self._cv_strikes = 0
        self._best_stall: Optional[float] = None
        self._worse_streak = 0
        self._no_improve_streak = 0
        self._snapshot: Optional[Tuple[np.ndarray, float, float]] = None
        self._pending_retry: Optional[Tuple[np.ndarray, int]] = None

    def _pre_measure(self, sim: Simulator) -> bool:
        if self._pending_retry is None:
            return True
        weights, attempts = self._pending_retry
        self.migration_retries += 1
        sim.migration.record_retry(self.app.app_id)
        disposition = sim.migrate_placement(self.app, interleave_write(weights, self.mode))
        if disposition.rejected and attempts + 1 < self.hardening.max_retries:
            self._pending_retry = (weights, attempts + 1)
            self._next_action = sim.now + self.hardening.retry_backoff_s * (
                2 ** (attempts + 1)
            )
        else:
            self._pending_retry = None
            self._next_action = sim.now + self.warmup_s + self._measurement_wall_s()
        return False

    def _measure_for(self, sim: Simulator, app_id: str) -> float:
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

    def _accept_factor(self) -> float:
        return 1.0 - self.tolerance - self.hardening.hysteresis

    def _measurement_wall_s(self) -> float:
        return self.config.wall_time_s * self.hardening.ewma_samples

    def _post_decision(self, sim: Simulator, stall: float, improved: bool) -> bool:
        h = self.hardening
        if h.snr_strikes and self._cv_strikes >= h.snr_strikes:
            self._degrade(sim)
            return False
        if not improved:
            self._no_improve_streak += 1
            if self._no_improve_streak < h.stop_patience and self.dwp < 1.0 - 1e-9:
                self._next_action = sim.now + self.warmup_s + self._measurement_wall_s()
                return False
            return True
        self._no_improve_streak = 0
        if self._best_stall is None or stall < self._best_stall:
            self._best_stall = stall
            self._worse_streak = 0
            self._snapshot = (
                self.app.space.page_nodes().copy(),
                self.dwp,
                stall,
            )
        elif stall > self._best_stall * (1.0 + self.watchdog_margin):
            self._worse_streak += 1
            if self.watchdog_k and self._worse_streak >= self.watchdog_k:
                self._roll_back(sim)
                return False
        else:
            self._worse_streak = 0
        return True

    def _dispatch_migration(self, sim: Simulator, weights: np.ndarray) -> None:
        disposition = sim.migrate_placement(self.app, interleave_write(weights, self.mode))
        if (
            disposition.rejected
            and self.hardening.max_retries > 0
            and self._pending_retry is None
        ):
            self._pending_retry = (weights, 0)
            self._next_action = sim.now + self.hardening.retry_backoff_s

    def _on_stage_transition(self, sim: Simulator) -> None:
        self._cv_strikes = 0
        self._best_stall = None
        self._worse_streak = 0

    def _roll_back(self, sim: Simulator) -> None:
        assert self._snapshot is not None
        pages, dwp, _stall = self._snapshot
        mask = pages != UNALLOCATED
        indices = np.nonzero(mask)[0]
        moved = self.app.space.assign_pages(indices, pages[mask])
        if moved:
            sim.charge_migration(self.app, moved)
        self.dwp = dwp
        self.rollbacks += 1
        self._phase = _Phase.DONE

    def _degrade(self, sim: Simulator) -> None:
        n = self.app.machine.num_nodes
        weights = np.zeros(n)
        for w in self.app.worker_nodes:
            weights[w] = 1.0 / len(self.app.worker_nodes)
        sim.migrate_placement(self.app, interleave_write(weights, self.mode))
        self.degraded = True
        self._phase = _Phase.DONE


class HardenedDWPTuner(_HardenedMixin, DWPTuner):
    """The plain climb with the defences armed."""


class HardenedCoScheduledDWPTuner(_HardenedMixin, CoScheduledDWPTuner):
    """The co-scheduled climb with the defences armed."""
