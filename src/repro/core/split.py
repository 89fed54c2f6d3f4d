"""Per-page-class placement: separate distributions for private and shared
pages (paper Section VI).

BWAP's design deliberately places *every* page by one distribution, even
though thread-private pages are only ever read from their owner's node —
the paper analyses the resulting inaccuracy in Section IV-A and proposes,
as future work, "devising different canonical weight distributions and DWP
values" per page class. This module implements that extension:

* shared segments follow the worker-set canonical distribution shifted by
  a shared DWP, exactly as baseline BWAP;
* each thread's private segments follow the canonical distribution of the
  *single-worker* set ``{owner's node}`` (paper Eq. 2) shifted by a
  private DWP — so private pages favour their owner's node but still
  harvest nearby bandwidth instead of saturating the local controller.

:class:`SplitDWPTuner` runs the ordinary on-line search over the shared
DWP while keeping the private placement fixed. It only changes the page
write the climb makes, so its writes go through
:meth:`~repro.engine.sim.Simulator.migrate_placement` like the base
tuner's: migration faults reach them and a bounced batch is replayed.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.canonical import CanonicalTuner
from repro.core.dwp import DWPTuner, combine_weights
from repro.core.interleave import apply_weighted_kernel, apply_weighted_user
from repro.engine.app import Application
from repro.engine.sim import PageWrite, Simulator
from repro.memsim.pages import AddressSpace, SegmentKind
from repro.memsim.policies import PlacementContext, PlacementPolicy, PlacementStats


class SplitPlacement(PlacementPolicy):
    """Static split placement (shared vs private canonical distributions).

    Parameters
    ----------
    canonical_tuner:
        Source of canonical distributions (worker set + per-node sets).
    dwp_shared / dwp_private:
        Data-to-worker proximity per page class. ``dwp_private`` shifts
        each thread's private pages toward the owner's node.
    mode:
        Weighted-interleave back end.
    """

    name = "bwap-split"

    def __init__(
        self,
        canonical_tuner: CanonicalTuner,
        *,
        dwp_shared: float = 0.0,
        dwp_private: float = 0.0,
        mode: str = "user",
    ):
        for v, label in ((dwp_shared, "dwp_shared"), (dwp_private, "dwp_private")):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {v}")
        if mode not in ("user", "kernel"):
            raise ValueError(f"mode must be 'user' or 'kernel', got {mode!r}")
        self.canonical_tuner = canonical_tuner
        self.dwp_shared = dwp_shared
        self.dwp_private = dwp_private
        self.mode = mode
        #: The weighted-interleave back end, applied one segment at a time.
        self.apply_segment = (
            apply_weighted_user if mode == "user" else apply_weighted_kernel
        )

    def shared_weights(self, ctx: PlacementContext) -> np.ndarray:
        """Distribution applied to shared segments."""
        canonical = self.canonical_tuner.weights(ctx.worker_nodes)
        return combine_weights(canonical, ctx.worker_nodes, self.dwp_shared)

    def private_weights(self, owner_node: int) -> np.ndarray:
        """Distribution applied to private segments owned on ``owner_node``.

        Uses the single-worker canonical (Eq. 2 with W = {owner}), which
        concentrates mass near the owner while still spreading enough to
        avoid saturating its controller.
        """
        canonical = self.canonical_tuner.weights((owner_node,))
        return combine_weights(canonical, (owner_node,), self.dwp_private)

    def place(self, space: AddressSpace, ctx: PlacementContext) -> PlacementStats:
        apply = self.apply_segment
        stats = PlacementStats()
        shared_w = self.shared_weights(ctx)
        private_cache: Dict[int, np.ndarray] = {}
        for seg in space.segments:
            if seg.kind is SegmentKind.SHARED:
                out = apply(space, seg, shared_w)
            else:
                owner_node = ctx.node_of_thread(seg.owner_thread)
                if owner_node not in private_cache:
                    private_cache[owner_node] = self.private_weights(owner_node)
                out = apply(space, seg, private_cache[owner_node])
            stats += PlacementStats(out.pages_touched, out.pages_moved)
        return stats


class SplitDWPTuner(DWPTuner):
    """On-line shared-DWP search on top of the split placement.

    The private pages are placed once (per-owner canonical, fixed private
    DWP) and left alone; only the shared segments are re-interleaved as
    the search moves, so the tuner's migrations are cheaper than baseline
    BWAP's on private-heavy applications.
    """

    def __init__(
        self,
        app: Application,
        canonical_tuner: CanonicalTuner,
        *,
        dwp_private: float = 0.0,
        **kwargs,
    ):
        canonical = canonical_tuner.weights(app.worker_nodes)
        super().__init__(app, canonical, **kwargs)
        self.canonical_tuner = canonical_tuner
        self.dwp_private = dwp_private
        self.policy = SplitPlacement(
            canonical_tuner, dwp_private=dwp_private, mode=self.mode
        )
        self._private_placed = False

    def _write(self, dwp: float) -> PageWrite:
        """The shared segments at ``dwp``; the first write also places the
        private segments (a replay of that write places them again)."""
        apply = self.policy.apply_segment
        app = self.app
        private = []
        if not self._private_placed:
            owner = app.ctx.node_of_thread
            private = [
                (seg, self.policy.private_weights(owner(seg.owner_thread)))
                for seg in app.space.segments_of_kind(SegmentKind.PRIVATE)
            ]
            self._private_placed = True
        weights = combine_weights(self.canonical, app.worker_nodes, dwp)

        def write(space: AddressSpace) -> int:
            moved = 0
            for seg, private_weights in private:
                moved += apply(space, seg, private_weights).pages_moved
            for seg in space.segments_of_kind(SegmentKind.SHARED):
                moved += apply(space, seg, weights).pages_moved
            return moved

        return write


def split_bwap_init(
    sim: Simulator,
    app: Application,
    canonical_tuner: Optional[CanonicalTuner] = None,
    *,
    dwp_private: float = 0.0,
    **tuner_kwargs,
) -> SplitDWPTuner:
    """Activate the split-placement BWAP variant for an application."""
    if app.policy is not None:
        raise ValueError(
            f"application {app.app_id!r} already has a placement policy; "
            "the split tuner owns placement — construct the app with policy=None"
        )
    if canonical_tuner is None:
        canonical_tuner = CanonicalTuner(app.machine)
    tuner = SplitDWPTuner(
        app, canonical_tuner, dwp_private=dwp_private, **tuner_kwargs
    )
    sim.add_tuner(tuner)
    return tuner
