"""Memory-access characterisation (the paper's NumaMMA [15] stand-in).

Table I of the paper characterises each benchmark by its read/write
bandwidth demand and its split between thread-private and shared accesses,
measured while the benchmark runs on one full worker node. This module
aggregates per-epoch traffic samples emitted by the execution engine into
exactly those four quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.units import GB, MB

#: Stable field order of :meth:`AccessCharacterisation.features`. Appending
#: new features is allowed (consumers index by name through this tuple);
#: reordering or removing fields requires a model-checkpoint version bump
#: in :mod:`repro.learn.model`.
CHARACTERISATION_FEATURE_NAMES: Tuple[str, ...] = (
    "reads_mbps",
    "writes_mbps",
    "total_mbps",
    "write_ratio",
    "private_fraction",
)


@dataclass(frozen=True)
class TrafficSample:
    """Observed traffic of one application over one simulation stretch.

    The simulator coalesces consecutive epochs with bit-identical rates
    into one run-length sample
    (see :meth:`same_rates` / :meth:`extended`), so ``duration_s`` spans
    however many epochs the rates held.
    """

    duration_s: float
    read_gbps: float
    write_gbps: float
    private_fraction: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"duration must be positive, got {self.duration_s}")
        if self.read_gbps < 0 or self.write_gbps < 0:
            raise ValueError("rates must be non-negative")
        if not 0 <= self.private_fraction <= 1:
            raise ValueError(
                f"private_fraction must be in [0, 1], got {self.private_fraction}"
            )

    def same_rates(
        self, read_gbps: float, write_gbps: float, private_fraction: float
    ) -> bool:
        """True when another stretch's rates are bit-for-bit this sample's.

        Exact (``==``) on purpose: a run may only absorb epochs whose
        telemetry is identical, so splitting the run back out would
        reproduce the original per-epoch samples exactly.
        """
        return (
            self.read_gbps == read_gbps
            and self.write_gbps == write_gbps
            and self.private_fraction == private_fraction
        )

    def extended(self, extra_s: float) -> "TrafficSample":
        """This sample lengthened by ``extra_s`` seconds at the same rates."""
        return replace(self, duration_s=self.duration_s + extra_s)


@dataclass(frozen=True)
class AccessCharacterisation:
    """One row of Table I."""

    name: str
    reads_mbps: float
    writes_mbps: float
    private_pct: float
    shared_pct: float

    def as_row(self) -> tuple:
        """Tuple in the paper's column order."""
        return (self.name, self.reads_mbps, self.writes_mbps, self.private_pct, self.shared_pct)

    def features(self) -> np.ndarray:
        """Counter-feature vector for learned DWP prediction.

        A float64 vector whose fields are named, in order, by
        :data:`CHARACTERISATION_FEATURE_NAMES`:

        ``reads_mbps`` / ``writes_mbps``
            Table I's bandwidth demands (MB/s).
        ``total_mbps``
            Their sum — the overall demand the placement must serve.
        ``write_ratio``
            Writes as a fraction of total traffic (0 when idle).
        ``private_fraction``
            Thread-private share of accesses in [0, 1].

        The order and semantics are stable: models serialise the names
        next to their coefficients and refuse a mismatched vector.
        """
        total = self.reads_mbps + self.writes_mbps
        return np.array(
            [
                self.reads_mbps,
                self.writes_mbps,
                total,
                self.writes_mbps / total if total > 0 else 0.0,
                self.private_pct / 100.0,
            ],
            dtype=np.float64,
        )


class AccessProfiler:
    """Accumulates :class:`TrafficSample` records for one application.

    :meth:`characterise` (and therefore
    :meth:`AccessCharacterisation.features`) is cached per window: samples
    are append-only, so the aggregate is memoised under the sample count
    and repeated featurisation of the same window costs a dict-free
    comparison, not a re-aggregation. Recording a new sample invalidates
    the cache automatically.
    """

    def __init__(self, name: str):
        self.name = name
        self._samples: List[TrafficSample] = []
        self._cached: Optional[Tuple[int, AccessCharacterisation]] = None

    def record(self, sample: TrafficSample) -> None:
        """Add one epoch's observation."""
        self._samples.append(sample)

    def extend(self, samples: Iterable[TrafficSample]) -> None:
        """Add many observations."""
        for s in samples:
            self.record(s)

    @property
    def num_samples(self) -> int:
        """Number of recorded epochs."""
        return len(self._samples)

    def features(self) -> np.ndarray:
        """Feature vector of the current window (cached with
        :meth:`characterise`); see
        :meth:`AccessCharacterisation.features`."""
        return self.characterise().features()

    def characterise(self) -> AccessCharacterisation:
        """Time-weighted aggregate in Table I's units (MB/s and %)."""
        if not self._samples:
            raise ValueError(f"no samples recorded for {self.name!r}")
        if self._cached is not None and self._cached[0] == len(self._samples):
            return self._cached[1]
        total_t = sum(s.duration_s for s in self._samples)
        read_bytes = sum(s.read_gbps * GB * s.duration_s for s in self._samples)
        write_bytes = sum(s.write_gbps * GB * s.duration_s for s in self._samples)
        traffic_weighted_private = sum(
            (s.read_gbps + s.write_gbps) * s.duration_s * s.private_fraction
            for s in self._samples
        )
        total_traffic = sum(
            (s.read_gbps + s.write_gbps) * s.duration_s for s in self._samples
        )
        private = traffic_weighted_private / total_traffic if total_traffic > 0 else 0.0
        char = AccessCharacterisation(
            name=self.name,
            reads_mbps=read_bytes / total_t / MB,
            writes_mbps=write_bytes / total_t / MB,
            private_pct=100.0 * private,
            shared_pct=100.0 * (1.0 - private),
        )
        self._cached = (len(self._samples), char)
        return char
