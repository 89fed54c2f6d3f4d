"""Adaptive BWAP: dynamic re-tuning across execution phases (paper §VI).

Two future-work items from the paper's conclusion are implemented here:

* **Automatic triggering.** The paper expects the programmer to call
  ``BWAP-init`` once the program enters its stable phase, and suggests
  instead watching "the periodic variation of the MAPI metric and only
  trigger the DWP tuner when such variation is below a given threshold".
  :class:`AdaptiveBWAP` does exactly that: it monitors throughput-derived
  MAPI and launches the DWP search once the variation settles.
* **Dynamic adjustment.** "Extend BWAP to dynamically adjust its weight
  distribution throughout the application's execution time, in order to
  obtain improved performance for applications whose access patterns
  change over time." After the search settles, the tuner keeps watching
  the stall rate; a sustained shift beyond a threshold restarts the climb
  from DWP = 0.

Re-starting requires *widening* re-interleaves (mass moving back off the
workers), which the user-level ``mbind`` path cannot perform (paper
Section III-B2); the adaptive variant therefore defaults to the
kernel-level back end.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dwp import DWPTuner
from repro.core.hardening import HardeningConfig
from repro.engine.app import Application
from repro.engine.sim import Simulator, Tuner, wake_epoch_at
from repro.perf.counters import MeasurementConfig


class AdaptiveState(enum.Enum):
    """Lifecycle of the adaptive tuner."""

    WAITING_FOR_STABILITY = "waiting"
    TUNING = "tuning"
    MONITORING = "monitoring"


@dataclass(frozen=True)
class AdaptiveConfig:
    """Thresholds of the adaptive wrapper.

    Attributes
    ----------
    stability_window:
        Consecutive MAPI observations that must agree (relative spread
        below ``stability_threshold``) before the DWP search starts.
    stability_threshold:
        Maximum relative spread counted as "stable".
    drift_threshold:
        Relative stall-rate change (vs the value at settle time) that
        counts as a phase change.
    drift_floor_fraction:
        Absolute stall-fraction change that counts as a phase change even
        when the settled baseline is (near) zero — an application whose
        tuned phase never stalled would otherwise never trigger re-tuning
        when a stalling phase begins.
    drift_confirmations:
        Consecutive drifted observations required before re-tuning (a
        single spike must not trigger a full search).
    check_interval_s:
        Wall time between monitoring observations.
    """

    stability_window: int = 3
    stability_threshold: float = 0.10
    drift_threshold: float = 0.25
    drift_floor_fraction: float = 0.02
    drift_confirmations: int = 2
    check_interval_s: float = 2.0

    def __post_init__(self) -> None:
        # Comparisons are written so that NaN fails them.
        for name, low in (("stability_window", 2), ("drift_confirmations", 1)):
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ValueError(f"{name} must be an int >= {low}, got {value!r}")
        for name in (
            "stability_threshold",
            "drift_threshold",
            "drift_floor_fraction",
            "check_interval_s",
        ):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")


class AdaptiveBWAP(Tuner):
    """Self-triggering, re-tuning BWAP for phase-changing applications.

    Parameters
    ----------
    app:
        Target application (constructed with ``policy=None``; until the
        first stable phase is detected its pages are first-touched by the
        init thread, like an untuned run).
    canonical_weights:
        Canonical distribution for the app's worker set.
    config:
        Adaptive thresholds.
    measurement / step / warmup_s / tolerance:
        Forwarded to the inner :class:`DWPTuner` search.
    hardening:
        Fault defences armed in every inner search (see
        :class:`DWPTuner`); ``None`` keeps the plain climb.
    warm_start:
        Forwarded to every inner search (float or predictor, see
        :class:`DWPTuner`): each triggered search then jumps to the
        predicted DWP in one placement move and only polishes from there.
        Because the adaptive variant runs the kernel back end, a re-tune
        after a phase change re-predicts and can jump *down* as well.
    """

    def __init__(
        self,
        app: Application,
        canonical_weights: Sequence[float],
        *,
        config: AdaptiveConfig = AdaptiveConfig(),
        measurement: MeasurementConfig = MeasurementConfig(),
        step: float = 0.10,
        warmup_s: float = 0.5,
        tolerance: float = 0.02,
        hardening: Optional[HardeningConfig] = None,
        warm_start=None,
    ):
        self.app = app
        self.canonical = np.asarray(canonical_weights, dtype=float)
        self.config = config
        self.hardening = hardening
        self.warm_start = warm_start
        self._tuner_kwargs = dict(
            config=measurement,
            step=step,
            warmup_s=warmup_s,
            tolerance=tolerance,
            warm_start=warm_start,
            hardening=hardening,
            # Re-tuning needs widening migrations: kernel back end only.
            mode="kernel",
        )
        self.state = AdaptiveState.WAITING_FOR_STABILITY
        self.searches_started = 0
        self.retunes = 0
        self._inner: Optional[DWPTuner] = None
        self._mapi_history: List[float] = []
        self._next_check = 0.0
        self._settled_stall: Optional[float] = None
        self._drift_count = 0

    # ------------------------------------------------------------------ #
    # Tuner interface
    # ------------------------------------------------------------------ #

    def on_start(self, sim: Simulator) -> None:
        # Until the first stable phase is detected, the app runs untuned:
        # its pages land where an ordinary Linux run would put them.
        from repro.memsim.policies import FirstTouch

        FirstTouch().place(self.app.space, self.app.ctx)
        self._next_check = sim.now + self.config.check_interval_s

    def on_epoch(self, sim: Simulator) -> None:
        if self.app.finished:
            return
        if self.state is AdaptiveState.TUNING:
            assert self._inner is not None
            self._inner.on_epoch(sim)
            if self._inner.is_settled():
                self.state = AdaptiveState.MONITORING
                self._settled_stall = sim.counters.true_stall_rate(self.app.app_id)
                self._drift_count = 0
                self._next_check = sim.now + self.config.check_interval_s
            return

        if sim.now < self._next_check:
            return
        self._next_check = sim.now + self.config.check_interval_s

        if self.state is AdaptiveState.WAITING_FOR_STABILITY:
            self._observe_stability(sim)
        elif self.state is AdaptiveState.MONITORING:
            self._observe_drift(sim)

    def is_settled(self) -> bool:
        # Never settled: even after the search converges, the monitor stays
        # armed for phase changes, so the simulation must keep stepping at
        # epoch granularity rather than fast-forwarding to completion.
        return False

    def next_wake_epoch(self, sim: Simulator) -> Optional[int]:
        """Stride hint mirroring :meth:`on_epoch`'s gates exactly.

        A finished app never acts again; while TUNING the inner climb's
        own hint applies (the settled check after its no-op call reads but
        never writes state); WAITING/MONITORING sleep until
        ``_next_check``. The epoch kernel may therefore stride over the
        monitor's dormant windows without perturbing a single observation.
        """
        if self.app.finished:
            return None
        if self.state is AdaptiveState.TUNING:
            assert self._inner is not None
            if self._inner.is_settled():
                return sim.epoch
            wake = self._inner.next_wake_epoch(sim)
            return sim.epoch if wake is None else wake
        return wake_epoch_at(sim, self._next_check)

    @property
    def final_dwp(self) -> Optional[float]:
        """The most recent search's DWP (None before the first search)."""
        return None if self._inner is None else self._inner.final_dwp

    def analytic_probe(
        self, dwp_values: Sequence[float] = tuple(i / 10 for i in range(11))
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only analytic DWP curve for the app's deployment.

        Scores the whole candidate DWP ladder in one batched evaluation
        (see :func:`repro.core.dwp.dwp_probe_curve`) without touching the
        live simulation — a cheap preview of where the online climb should
        settle, and a diagnostic for why a re-tune moved. Returns the
        probed DWP values and the predicted execution time at each.
        """
        from repro.core.dwp import dwp_probe_curve

        dwps = np.asarray([float(d) for d in dwp_values])
        times = dwp_probe_curve(
            self.app.machine,
            self.app.workload,
            self.app.worker_nodes,
            self.canonical,
            dwps,
            num_threads=self.app.num_threads,
        )
        return dwps, times

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _observe_stability(self, sim: Simulator) -> None:
        from repro.core.classify import measured_mapi

        self._mapi_history.append(measured_mapi(self.app, sim.counters))
        window = self._mapi_history[-self.config.stability_window :]
        if len(window) < self.config.stability_window:
            return
        mean = float(np.mean(window))
        if mean <= 0:
            return
        spread = (max(window) - min(window)) / mean
        if spread <= self.config.stability_threshold:
            self._start_search(sim)

    def _observe_drift(self, sim: Simulator) -> None:
        current = sim.counters.true_stall_rate(self.app.app_id)
        baseline = self._settled_stall if self._settled_stall is not None else 0.0
        # Drift when the stall rate moved by drift_threshold relative to
        # the settled baseline, or — for a near-zero baseline — by an
        # absolute floor expressed as a fraction of total cycles.
        freq_hz = (
            self.app.machine.node(self.app.worker_nodes[0]).cores[0].frequency_ghz
            * 1e9
        )
        floor = self.config.drift_floor_fraction * freq_hz
        drifted = abs(current - baseline) > max(
            self.config.drift_threshold * baseline, floor
        )
        if drifted:
            self._drift_count += 1
            if self._drift_count >= self.config.drift_confirmations:
                self.retunes += 1
                self._start_search(sim)
        else:
            self._drift_count = 0

    def _start_search(self, sim: Simulator) -> None:
        self._inner = DWPTuner(self.app, self.canonical, **self._tuner_kwargs)
        self._inner.on_start(sim)
        self.searches_started += 1
        self.state = AdaptiveState.TUNING
