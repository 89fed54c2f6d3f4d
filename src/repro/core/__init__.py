"""BWAP — the paper's contribution.

Canonical tuner (offline, Eq. 2/5 over a profiled bandwidth matrix), DWP
tuner (on-line 1-D hill climbing with incremental migration), the two
weighted-interleave back ends (Algorithm 1 at user level; exact kernel
policy), the co-scheduled 2-stage variant, the ``BWAP-init`` facade, and
the offline N-dimensional search oracle used as ground truth.
"""

from repro.core.canonical import (
    CanonicalTuner,
    minimum_bandwidths,
    weights_from_bandwidths,
)
from repro.core.interleave import (
    PlacementOutcome,
    algorithm1_subranges,
    apply_weighted_kernel,
    apply_weighted_placement,
    apply_weighted_user,
    placement_error,
)
from repro.core.dwp import (
    CoScheduledDWPTuner,
    DWPProbeSession,
    DWPStep,
    DWPTuner,
    combine_weights,
    dwp_probe_curve,
)
from repro.core.hardening import HARDENED_PROFILE, HardeningConfig
from repro.core.bwap import BWAPConfig, bwap_init, canonical_or_uniform
from repro.core.classify import (
    ClassifierConfig,
    MemoryIntensity,
    WorkloadClassifier,
    estimate_mapi,
    measured_mapi,
)
from repro.core.adaptive import AdaptiveBWAP, AdaptiveConfig, AdaptiveState
from repro.core.split import SplitDWPTuner, SplitPlacement, split_bwap_init
from repro.core.search import (
    BatchedAnalyticEvaluator,
    SearchResult,
    hill_climb,
    make_analytic_evaluator,
    make_placement_evaluator,
    search_optimal_placement,
    uniform_workers_start,
)

__all__ = [
    "CanonicalTuner",
    "minimum_bandwidths",
    "weights_from_bandwidths",
    "PlacementOutcome",
    "algorithm1_subranges",
    "apply_weighted_kernel",
    "apply_weighted_placement",
    "apply_weighted_user",
    "placement_error",
    "CoScheduledDWPTuner",
    "DWPProbeSession",
    "DWPStep",
    "DWPTuner",
    "combine_weights",
    "dwp_probe_curve",
    "HARDENED_PROFILE",
    "HardeningConfig",
    "BWAPConfig",
    "bwap_init",
    "canonical_or_uniform",
    "ClassifierConfig",
    "MemoryIntensity",
    "WorkloadClassifier",
    "estimate_mapi",
    "measured_mapi",
    "AdaptiveBWAP",
    "AdaptiveConfig",
    "AdaptiveState",
    "SplitDWPTuner",
    "SplitPlacement",
    "split_bwap_init",
    "BatchedAnalyticEvaluator",
    "SearchResult",
    "hill_climb",
    "make_analytic_evaluator",
    "make_placement_evaluator",
    "search_optimal_placement",
    "uniform_workers_start",
]
