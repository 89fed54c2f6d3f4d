"""Simulated hardware performance counters.

BWAP reads stalled-cycle counters through a portable library (likwid [19])
and applies a noise-robust measurement procedure: collect ``n`` samples
over ``t``-second windows, sort them, and discard the first and last ``c``
to filter outliers (Section III-B1). Real counters are noisy, so our
simulated counter bank injects multiplicative Gaussian noise — without it
the trimming machinery would be dead code and the tuner's robustness
untested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class MeasurementConfig:
    """The DWP tuner's sampling parameters (paper Section IV: n=20, c=5,
    t=0.2 s)."""

    n: int = 20
    c: int = 5
    t: float = 0.2

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.c < 0 or 2 * self.c >= self.n:
            raise ValueError(f"need 0 <= 2c < n, got n={self.n}, c={self.c}")
        if self.t <= 0:
            raise ValueError(f"window length must be positive, got {self.t}")

    @property
    def wall_time_s(self) -> float:
        """Wall-clock time one measurement round takes."""
        return self.n * self.t


@dataclass(frozen=True)
class StallSample:
    """One measurement round with its dispersion.

    ``mean`` is the paper's trimmed mean — bitwise identical to what
    :meth:`CounterBank.sample_stall_rate` returns for the same RNG state.
    ``cv`` is the coefficient of variation of the trimmed samples, the
    signal-to-noise estimate the DWP tuner's degradation defence uses to
    decide whether the climb is winnable at all.
    """

    mean: float
    cv: float


@dataclass
class _AppCounters:
    """Latest true counter values for one application."""

    stall_rate: float = 0.0
    throughput_gbps: float = 0.0
    per_node_stall: Dict[int, float] = field(default_factory=dict)


class CounterBank:
    """Holds the latest true counter values and serves noisy reads.

    Parameters
    ----------
    noise_std:
        Relative standard deviation of a single counter read.
    outlier_prob / outlier_scale:
        With probability ``outlier_prob`` a read is inflated by up to
        ``outlier_scale``x — modelling interference spikes that the
        trimmed-mean procedure exists to reject.
    seed:
        RNG seed (reads are reproducible).
    fault_hook:
        Optional extra perturbation applied to every noisy read (set by
        the simulator when a fault plan injects counter noise; see
        :meth:`repro.faults.FaultInjector.perturb_reading`). ``None``
        leaves the read path bit-for-bit unchanged.
    """

    def __init__(
        self,
        noise_std: float = 0.03,
        outlier_prob: float = 0.05,
        outlier_scale: float = 1.6,
        seed: int = 1234,
        fault_hook: Optional[Callable[[float], float]] = None,
    ):
        if noise_std < 0:
            raise ValueError(f"noise_std must be non-negative, got {noise_std}")
        if not 0 <= outlier_prob < 1:
            raise ValueError(f"outlier_prob must be in [0, 1), got {outlier_prob}")
        if outlier_scale < 1:
            raise ValueError(f"outlier_scale must be >= 1, got {outlier_scale}")
        self.noise_std = noise_std
        self.outlier_prob = outlier_prob
        self.outlier_scale = outlier_scale
        self._rng = np.random.default_rng(seed)
        self._apps: Dict[str, _AppCounters] = {}
        self.fault_hook = fault_hook

    # ------------------------------------------------------------------ #
    # Updates from the simulator
    # ------------------------------------------------------------------ #

    def update(
        self,
        app_id: str,
        stall_rate: float,
        throughput_gbps: float,
        per_node_stall: Optional[Dict[int, float]] = None,
    ) -> None:
        """Set the current true counter values for an application."""
        if stall_rate < 0 or throughput_gbps < 0:
            raise ValueError("counter values must be non-negative")
        self._apps[app_id] = _AppCounters(
            stall_rate=stall_rate,
            throughput_gbps=throughput_gbps,
            per_node_stall=dict(per_node_stall or {}),
        )

    def update_many(
        self,
        updates: Iterable[Tuple[str, float, float, Optional[Dict[int, float]]]],
    ) -> None:
        """Set current true counters for many applications in one call.

        ``updates`` yields ``(app_id, stall_rate, throughput_gbps,
        per_node_stall)`` tuples. Equivalent to calling :meth:`update` per
        entry — the simulator's epoch kernel publishes every application's
        counters for an epoch at once.
        """
        for app_id, stall_rate, throughput_gbps, per_node_stall in updates:
            if stall_rate < 0 or throughput_gbps < 0:
                raise ValueError("counter values must be non-negative")
            self._apps[app_id] = _AppCounters(
                stall_rate=stall_rate,
                throughput_gbps=throughput_gbps,
                per_node_stall=dict(per_node_stall or {}),
            )

    def true_stall_rate(self, app_id: str) -> float:
        """Noise-free stall rate (for tests and analysis, not for tuners)."""
        return self._counters(app_id).stall_rate

    def true_throughput(self, app_id: str) -> float:
        """Noise-free aggregate throughput (GB/s)."""
        return self._counters(app_id).throughput_gbps

    # ------------------------------------------------------------------ #
    # Noisy reads (what tuners use)
    # ------------------------------------------------------------------ #

    def read_stall_rate(self, app_id: str) -> float:
        """One noisy stall-rate sample."""
        return self._noisy(self._counters(app_id).stall_rate)

    def read_throughput(self, app_id: str) -> float:
        """One noisy throughput sample (GB/s)."""
        return self._noisy(self._counters(app_id).throughput_gbps)

    def sample_stall_rate(
        self, app_id: str, config: MeasurementConfig = MeasurementConfig()
    ) -> float:
        """The paper's robust measurement: n reads, trim c at each end, mean."""
        return self.sample_stall_stats(app_id, config).mean

    def sample_stall_stats(
        self, app_id: str, config: MeasurementConfig = MeasurementConfig()
    ) -> StallSample:
        """One measurement round with its dispersion.

        Consumes exactly the same RNG draws as :meth:`sample_stall_rate`
        (the mean is bitwise identical); additionally reports the trimmed
        samples' coefficient of variation so the DWP tuner can estimate
        the signal-to-noise ratio without extra reads.
        """
        samples = np.array([self.read_stall_rate(app_id) for _ in range(config.n)])
        samples.sort()
        trimmed = samples[config.c : config.n - config.c]
        mean = float(trimmed.mean())
        cv = float(trimmed.std() / mean) if mean > 0 else 0.0
        return StallSample(mean=mean, cv=cv)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _counters(self, app_id: str) -> _AppCounters:
        try:
            return self._apps[app_id]
        except KeyError:
            raise KeyError(f"no counters recorded for application {app_id!r}") from None

    def _noisy(self, value: float) -> float:
        noise = 1.0 + self._rng.normal(0.0, self.noise_std)
        if self._rng.random() < self.outlier_prob:
            noise *= 1.0 + self._rng.random() * (self.outlier_scale - 1.0)
        out = max(0.0, value * noise)
        if self.fault_hook is not None:
            out = self.fault_hook(out)
        return out
