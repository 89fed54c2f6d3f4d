"""Trace-driven arrival streams for the fleet scheduler.

A fleet run is driven by a stream of application arrivals. The generators
here produce the three canonical cluster-trace shapes — homogeneous
Poisson, diurnal (sinusoidally rate-modulated non-homogeneous Poisson),
and bursty (a two-state Markov-modulated Poisson process) — as dense NumPy
arrays, so a trace of millions of arrivals materialises in milliseconds
and costs a few dozen bytes per arrival.

Everything is deterministic: a :class:`TraceSpec` is a frozen dataclass of
primitives (so it folds into the content-addressed result-store
fingerprint), and :func:`build_trace` derives every sample from one seeded
generator. The non-homogeneous generators use exact time-rescaling — draw
unit-rate exponential arrivals and invert the cumulative rate function
``Lambda(t)`` — rather than thinning, so the arrival count is exactly the
requested ``arrivals`` and no rejection loop perturbs determinism.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

import numpy as np

from repro.workloads.base import WorkloadSpec
from repro.workloads.generator import workload_sweep
from repro.workloads.suites import paper_benchmarks

#: Trace kinds understood by :func:`build_trace`.
TRACE_KINDS = ("poisson", "diurnal", "bursty")


@dataclass(frozen=True)
class TraceSpec:
    """Declarative description of one arrival trace.

    Attributes
    ----------
    kind:
        ``"poisson"``, ``"diurnal"``, or ``"bursty"``.
    rate_per_s:
        Long-run mean arrival rate (arrivals per simulated second). The
        diurnal and bursty processes modulate around this mean.
    arrivals:
        Exact number of arrivals to generate.
    seed:
        Seed of the single generator all samples are drawn from.
    catalog:
        ``"paper"`` draws workloads from the paper's benchmark suite;
        ``"synthetic"`` from :func:`repro.workloads.workload_sweep`
        (``catalog_size`` entries, seeded by ``seed``).
    work_scale:
        ``(lo, hi)`` uniform multiplier applied to each arrival's
        ``work_bytes`` — spreads job sizes so a trace is not five
        identical durations repeated.
    period_s / amplitude:
        Diurnal modulation: ``rate(t) = mean * (1 + amplitude *
        sin(2 pi t / period_s))``; ``amplitude`` must stay below 1 so the
        rate is always positive.
    burst_factor / burst_fraction / mean_burst_s:
        Bursty modulation: the process alternates between a quiet and a
        burst state (exponential sojourns, mean burst length
        ``mean_burst_s``, long-run fraction of time in burst
        ``burst_fraction``); the burst-state rate is ``burst_factor``
        times the quiet-state rate, scaled so the long-run mean is
        ``rate_per_s``.
    """

    kind: str = "poisson"
    rate_per_s: float = 0.5
    arrivals: int = 100
    seed: int = 7
    catalog: str = "paper"
    catalog_size: int = 8
    work_scale: Tuple[float, float] = (0.05, 0.5)
    period_s: float = 2000.0
    amplitude: float = 0.8
    burst_factor: float = 8.0
    burst_fraction: float = 0.1
    mean_burst_s: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in TRACE_KINDS:
            raise ValueError(f"unknown trace kind {self.kind!r}; use {TRACE_KINDS}")
        if self.rate_per_s <= 0:
            raise ValueError(f"rate_per_s must be positive, got {self.rate_per_s}")
        if self.arrivals < 0:
            raise ValueError(f"arrivals must be non-negative, got {self.arrivals}")
        if self.catalog not in ("paper", "synthetic"):
            raise ValueError(f"unknown catalog {self.catalog!r}")
        if self.catalog == "synthetic" and self.catalog_size <= 0:
            raise ValueError(f"catalog_size must be positive, got {self.catalog_size}")
        lo, hi = self.work_scale
        if not 0 < lo <= hi:
            raise ValueError(f"work_scale must satisfy 0 < lo <= hi, got {self.work_scale}")
        if self.period_s <= 0:
            raise ValueError(f"period_s must be positive, got {self.period_s}")
        if not 0 <= self.amplitude < 1:
            raise ValueError(f"amplitude must be in [0, 1), got {self.amplitude}")
        if self.burst_factor < 1:
            raise ValueError(f"burst_factor must be >= 1, got {self.burst_factor}")
        if not 0 < self.burst_fraction < 1:
            raise ValueError(
                f"burst_fraction must be in (0, 1), got {self.burst_fraction}"
            )
        if self.mean_burst_s <= 0:
            raise ValueError(f"mean_burst_s must be positive, got {self.mean_burst_s}")


class ArrivalTrace:
    """Materialised arrival stream: dense arrays plus a workload catalog.

    ``times`` is non-decreasing; ``kind_idx[i]`` indexes ``catalog`` and
    ``work_scale[i]`` multiplies that workload's ``work_bytes``. Workload
    objects are built lazily (:meth:`workload`) so a million-arrival trace
    stays a few dense arrays; the fleet admits the catalog entry itself
    with :meth:`work_bytes`. The arrays are validated once, here.
    """

    __slots__ = ("spec", "times", "kind_idx", "work_scale", "catalog")

    def __init__(
        self,
        spec: TraceSpec,
        times: np.ndarray,
        kind_idx: np.ndarray,
        work_scale: np.ndarray,
        catalog: Tuple[WorkloadSpec, ...],
    ):
        times, kind_idx, work_scale = (np.asarray(a) for a in (times, kind_idx, work_scale))
        n = len(times) if times.ndim == 1 else -1
        if not kind_idx.ndim == work_scale.ndim == 1 or not len(kind_idx) == len(work_scale) == n:
            raise ValueError("times, kind_idx and work_scale must be 1-D and of equal length")
        if not np.isfinite(times).all() or (np.diff(times) < 0).any():
            raise ValueError("arrival times must be finite and non-decreasing")
        if n and not (
            np.issubdtype(kind_idx.dtype, np.integer)
            and 0 <= kind_idx.min() <= kind_idx.max() < len(catalog)
        ):
            raise ValueError(f"kind_idx must be integers indexing the {len(catalog)}-entry catalog")
        if not ((work_scale > 0) & np.isfinite(work_scale)).all():  # NaN fails too
            raise ValueError("work_scale must be finite and positive")
        self.spec = spec
        self.times = times
        self.kind_idx = kind_idx
        self.work_scale = work_scale
        self.catalog = catalog

    def __len__(self) -> int:
        return len(self.times)

    def app_id(self, i: int) -> str:
        """Fleet-unique application id of arrival ``i``."""
        return f"job{i}"

    def work_bytes(self, i: int) -> float:
        """Work of arrival ``i``: its catalog entry's, times its scale."""
        return self.catalog[int(self.kind_idx[i])].work_bytes * float(self.work_scale[i])

    def work_bytes_of(self, idx) -> np.ndarray:
        """:meth:`work_bytes` of the arrivals ``idx`` (an index array or a
        slice) as one array, the same floats."""
        base = np.array([wl.work_bytes for wl in self.catalog])
        return base[self.kind_idx[idx]] * self.work_scale[idx]

    def workload(self, i: int) -> WorkloadSpec:
        """The (work-scaled) workload of arrival ``i``."""
        base = self.catalog[int(self.kind_idx[i])]
        return replace(base, work_bytes=self.work_bytes(i))


def _poisson_times(rng: np.random.Generator, rate: float, n: int) -> np.ndarray:
    """Homogeneous Poisson arrival times: cumulative exponential gaps."""
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


def _diurnal_times(rng: np.random.Generator, spec: TraceSpec, n: int) -> np.ndarray:
    """Sinusoidally modulated Poisson via exact time-rescaling.

    Unit-rate arrivals ``U`` are mapped through the inverse of
    ``Lambda(t) = mean * (t - (amplitude * period / 2 pi)
    * (cos(2 pi t / period) - 1))``, evaluated by monotone interpolation
    over a grid fine enough (256 points per period) that the grid error is
    far below the epoch granularity anything downstream resolves.
    """
    unit = np.cumsum(rng.exponential(1.0, size=n))
    if n == 0:
        return unit
    mean, period, amp = spec.rate_per_s, spec.period_s, spec.amplitude
    # Lambda is within mean * amp * period / (2 pi) of mean * t, so this
    # horizon is guaranteed to cover the last unit-rate arrival.
    t_max = unit[-1] / mean + period
    grid_n = max(1024, int(256 * t_max / period))
    grid_n = min(grid_n, 4_000_000)  # cap grid memory for extreme traces
    grid = np.linspace(0.0, t_max, grid_n)
    omega = 2.0 * np.pi / period
    big_lambda = mean * (grid - (amp / omega) * (np.cos(omega * grid) - 1.0))
    return np.interp(unit, big_lambda, grid)


def _bursty_times(rng: np.random.Generator, spec: TraceSpec, n: int) -> np.ndarray:
    """Two-state Markov-modulated Poisson via exact time-rescaling.

    The rate function is piecewise-constant over exponential quiet/burst
    sojourns, so ``Lambda`` is piecewise-linear and ``np.interp`` over the
    sojourn boundaries inverts it exactly — no grid error.
    """
    unit = np.cumsum(rng.exponential(1.0, size=n))
    if n == 0:
        return unit
    f = spec.burst_fraction
    mean_burst = spec.mean_burst_s
    mean_quiet = mean_burst * (1.0 - f) / f
    # Long-run mean rate: quiet_rate * (1 - f) + burst_rate * f = rate_per_s.
    quiet_rate = spec.rate_per_s / ((1.0 - f) + spec.burst_factor * f)
    burst_rate = quiet_rate * spec.burst_factor

    knots_t: List[np.ndarray] = [np.zeros(1)]
    knots_l: List[np.ndarray] = [np.zeros(1)]
    t_end = 0.0
    l_end = 0.0
    target = unit[-1]
    # Draw sojourns in vectorised chunks until Lambda covers the last
    # unit-rate arrival. Chunk size scales with the expected need so the
    # loop runs O(1) iterations for any trace length; the cap bounds a
    # single allocation when tiny sojourns make the expectation explode
    # (e.g. mean_burst_s of microseconds) — the loop stays exact, it just
    # takes more iterations.
    expect_pairs = max(16, int(target / (quiet_rate * mean_quiet + burst_rate * mean_burst)) + 1)
    expect_pairs = min(expect_pairs, 1_000_000)
    while l_end <= target:
        quiet = rng.exponential(mean_quiet, size=expect_pairs)
        burst = rng.exponential(mean_burst, size=expect_pairs)
        durations = np.empty(2 * expect_pairs)
        durations[0::2] = quiet
        durations[1::2] = burst
        rates = np.empty(2 * expect_pairs)
        rates[0::2] = quiet_rate
        rates[1::2] = burst_rate
        t_knots = t_end + np.cumsum(durations)
        l_knots = l_end + np.cumsum(durations * rates)
        knots_t.append(t_knots)
        knots_l.append(l_knots)
        t_end = float(t_knots[-1])
        l_end = float(l_knots[-1])
    big_t = np.concatenate(knots_t)
    big_l = np.concatenate(knots_l)
    return np.interp(unit, big_l, big_t)


def trace_catalog(spec: TraceSpec) -> Tuple[WorkloadSpec, ...]:
    """The workload catalog a trace draws from."""
    if spec.catalog == "paper":
        return tuple(paper_benchmarks())
    return tuple(workload_sweep(spec.catalog_size, seed=spec.seed))


def build_trace(spec: TraceSpec) -> ArrivalTrace:
    """Materialise a :class:`TraceSpec` into a dense :class:`ArrivalTrace`."""
    rng = np.random.default_rng(spec.seed)
    n = spec.arrivals
    if spec.kind == "poisson":
        times = _poisson_times(rng, spec.rate_per_s, n)
    elif spec.kind == "diurnal":
        times = _diurnal_times(rng, spec, n)
    else:
        times = _bursty_times(rng, spec, n)
    catalog = trace_catalog(spec)
    kind_idx = rng.integers(0, len(catalog), size=n)
    lo, hi = spec.work_scale
    work_scale = rng.uniform(lo, hi, size=n)
    return ArrivalTrace(spec, times, kind_idx, work_scale, catalog)
