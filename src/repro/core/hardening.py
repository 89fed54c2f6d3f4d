"""Fault defences of the DWP tuner: their configuration.

The paper's hill climb (Section III-B) trusts two fragile channels: the
trimmed-mean stall measurement and best-effort page migration. Under the
fault plans of :mod:`repro.faults` both betray it — spiky counters flip
accept decisions, rejected or partial migrations silently desynchronise the
believed DWP from the actual placement. :class:`~repro.core.dwp.DWPTuner`
takes a :class:`HardeningConfig` that arms defences which keep the
identical search when nothing goes wrong and only engage on evidence of
trouble:

* **EWMA smoothing** — take ``ewma_samples`` measurement rounds per
  decision and blend them exponentially, trading wall time for variance.
* **Hysteresis** — require an extra relative margin before accepting a
  climb step, so noise-level "improvements" don't drive the DWP upward.
* **Retry with backoff** — a migration batch that bounces EBUSY-style is
  replayed after a backoff, up to a bounded number of attempts.
* **Graceful degradation** — when the measured coefficient of variation
  says the signal-to-noise ratio makes the search unwinnable, give up and
  fall back to the uniform-workers distribution instead of wandering.

There is no rollback watchdog: the climb accepts a step only while the
stall keeps falling, so every accepted stall is a new best and no
accepted step can sit above a last-known-good one.

With the default :class:`HardeningConfig` (one measurement round, zero
hysteresis) and no faults injected, every defence is provably inert and
the climb's decisions are bitwise-identical to the unarmed one
(:data:`NO_DEFENCES`) — the property the zero-fault regression test pins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class HardeningConfig:
    """Knobs of the DWP tuner's fault defences.

    The defaults arm only the *reactive* defences (retry, degradation) —
    mechanisms that never fire on a healthy run — and keep the measurement
    path of the unarmed climb, so the two agree bitwise in the absence of
    faults.

    Attributes
    ----------
    ewma_samples:
        Measurement rounds taken per decision. 1 reproduces the plain
        tuner's single trimmed-mean sample exactly.
    ewma_alpha:
        Weight of the newest round in the exponential blend (ignored when
        ``ewma_samples`` is 1).
    hysteresis:
        Extra relative improvement demanded before accepting a climb step,
        on top of the tuner's tolerance.
    stop_patience:
        Consecutive non-improved decisions required before the climb
        settles. 1 reproduces the plain tuner's stop-at-first rule; higher
        values re-measure the same DWP before giving up, so one spiked
        window cannot end the search early.
    max_retries:
        Bounded replays of a transiently rejected migration batch
        (0 disables retrying).
    retry_backoff_s:
        Base of the replay backoff. The first replay runs at the next
        decision point; a replay that bounces again waits
        ``retry_backoff_s * 2**k`` before replay ``k + 1``.
    snr_cv_threshold:
        Trimmed-sample coefficient of variation above which a measurement
        round is a low-SNR strike.
    snr_strikes:
        Consecutive strikes before degrading to uniform-workers
        (0 disables degradation).
    """

    ewma_samples: int = 1
    ewma_alpha: float = 0.5
    hysteresis: float = 0.0
    stop_patience: int = 1
    max_retries: int = 3
    retry_backoff_s: float = 0.25
    snr_cv_threshold: float = 0.35
    snr_strikes: int = 4

    def __post_init__(self) -> None:
        # Comparisons are written so that NaN fails them.
        for name, low in (
            ("ewma_samples", 1),
            ("stop_patience", 1),
            ("max_retries", 0),
            ("snr_strikes", 0),
        ):
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ValueError(f"{name} must be an int >= {low}, got {value!r}")
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}")
        if not 0 <= self.hysteresis < math.inf:
            raise ValueError(
                f"hysteresis must be non-negative and finite, got {self.hysteresis}"
            )
        if not 0 < self.retry_backoff_s < math.inf:
            raise ValueError(
                f"retry_backoff_s must be positive and finite, got {self.retry_backoff_s}"
            )
        if not 0 < self.snr_cv_threshold < math.inf:
            raise ValueError(
                "snr_cv_threshold must be positive and finite, "
                f"got {self.snr_cv_threshold}"
            )


#: The unarmed climb (no retry or degradation; one measurement round, no
#: hysteresis, stop at the first non-improvement): what a tuner built with
#: ``hardening=None`` runs — the paper's plain search.
NO_DEFENCES = HardeningConfig(max_retries=0, snr_strikes=0)

#: The profile the fault-matrix experiments run: smoothing and hysteresis
#: engaged on top of the reactive defences.
HARDENED_PROFILE = HardeningConfig(
    ewma_samples=2,
    ewma_alpha=0.5,
    hysteresis=0.02,
    stop_patience=2,
)
