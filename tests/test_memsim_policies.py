"""Baseline placement policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.pages import AddressSpace, SegmentKind
from repro.memsim.policies import (
    AutoNUMA,
    FirstTouch,
    PlacementContext,
    PlacementStats,
    UniformAll,
    UniformWorkers,
    WeightedInterleave,
    _cut,
    policy_by_name,
)
from repro.units import PAGE_SIZE
from tests.oracle.baselines import autonuma_step_reference, interleave_place_reference
from tests.oracle.page_counts import check_counts


@pytest.fixture
def ctx():
    """2 worker nodes (0, 1) on a 4-node machine, 2 threads per node."""
    return PlacementContext(
        num_nodes=4, worker_nodes=(0, 1), thread_nodes=(0, 0, 1, 1), init_node=0
    )


@pytest.fixture
def space():
    sp = AddressSpace(4)
    sp.map_segment("shared", 100 * PAGE_SIZE)
    for t in range(4):
        sp.map_segment(f"private-{t}", 20 * PAGE_SIZE, SegmentKind.PRIVATE, owner_thread=t)
    return sp


class TestPlacementContext:
    def test_accessors(self, ctx):
        assert ctx.num_threads == 4
        assert ctx.node_of_thread(2) == 1
        assert ctx.all_nodes() == (0, 1, 2, 3)
        assert ctx.non_worker_nodes() == (2, 3)

    def test_rejects_thread_on_non_worker(self):
        with pytest.raises(ValueError):
            PlacementContext(4, (0,), (0, 1), 0)

    def test_rejects_init_on_non_worker(self):
        with pytest.raises(ValueError):
            PlacementContext(4, (0,), (0,), 1)

    def test_rejects_duplicate_workers(self):
        with pytest.raises(ValueError):
            PlacementContext(4, (0, 0), (0,), 0)

    def test_rejects_out_of_range_worker(self):
        with pytest.raises(ValueError):
            PlacementContext(4, (7,), (7,), 7)


class TestFirstTouch:
    def test_shared_centralises_on_init_node(self, space, ctx):
        FirstTouch().place(space, ctx)
        shared = space.page_nodes(space.segment("shared"))
        assert (shared == 0).all()

    def test_private_lands_on_owner(self, space, ctx):
        FirstTouch().place(space, ctx)
        assert (space.page_nodes(space.segment("private-3")) == 1).all()
        assert (space.page_nodes(space.segment("private-0")) == 0).all()

    def test_stats_count_touched(self, space, ctx):
        stats = FirstTouch().place(space, ctx)
        assert stats.pages_touched == 180
        assert stats.pages_moved == 0

    def test_step_is_noop(self, space, ctx):
        FirstTouch().place(space, ctx)
        before = space.page_nodes().copy()
        FirstTouch().step(space, ctx, epoch=0)
        assert (space.page_nodes() == before).all()


class TestUniformInterleaves:
    def test_uniform_workers_restricted_to_workers(self, space, ctx):
        UniformWorkers().place(space, ctx)
        hist = space.node_histogram()
        assert hist[2] == 0 and hist[3] == 0
        assert abs(hist[0] - hist[1]) <= len(space.segments)

    def test_uniform_all_covers_all_nodes(self, space, ctx):
        UniformAll().place(space, ctx)
        hist = space.node_histogram()
        assert (hist > 0).all()
        assert hist.max() - hist.min() <= len(space.segments)

    def test_uniform_all_also_interleaves_private(self, space, ctx):
        # The paper notes interleaving policies spread private pages too.
        UniformAll().place(space, ctx)
        priv = space.page_nodes(space.segment("private-0"))
        assert len(set(priv)) == 4


class TestWeightedInterleave:
    def test_distribution_matches_weights(self, space, ctx):
        w = np.array([0.4, 0.3, 0.2, 0.1])
        WeightedInterleave(w).place(space, ctx)
        dist = space.placement_distribution()
        assert dist == pytest.approx(w, abs=0.02)

    def test_normalises_weights(self, ctx):
        p = WeightedInterleave([4, 3, 2, 1])
        assert p.weights == pytest.approx([0.4, 0.3, 0.2, 0.1])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightedInterleave([-1, 2])

    def test_rejects_wrong_length(self, space, ctx):
        with pytest.raises(ValueError):
            WeightedInterleave([0.5, 0.5]).place(space, ctx)

    def test_replace_counts_moves(self, space, ctx):
        WeightedInterleave([1, 0, 0, 0]).place(space, ctx)
        stats = WeightedInterleave([0, 1, 0, 0]).place(space, ctx)
        assert stats.pages_moved == 180


class TestAutoNUMA:
    def test_initial_placement_is_first_touch(self, space, ctx):
        AutoNUMA().place(space, ctx)
        assert (space.page_nodes(space.segment("shared")) == 0).all()

    def test_converges_private_to_owner(self, space, ctx):
        pol = AutoNUMA(migration_fraction=1.0, convergence_epochs=1)
        pol.place(space, ctx)
        pol.step(space, ctx, epoch=0)
        assert (space.page_nodes(space.segment("private-2")) == 1).all()

    def test_converges_shared_to_worker_interleave(self, space, ctx):
        pol = AutoNUMA(migration_fraction=1.0, convergence_epochs=1)
        pol.place(space, ctx)
        pol.step(space, ctx, epoch=0)
        hist = space.node_histogram([space.segment("shared")])
        assert hist[2] == 0 and hist[3] == 0
        assert abs(hist[0] - hist[1]) <= 1

    def test_gradual_migration(self, space, ctx):
        pol = AutoNUMA(migration_fraction=0.5, convergence_epochs=10)
        pol.place(space, ctx)
        s1 = pol.step(space, ctx, epoch=0)
        s2 = pol.step(space, ctx, epoch=1)
        assert s1.pages_moved > s2.pages_moved > 0

    def test_stops_after_convergence_epochs(self, space, ctx):
        pol = AutoNUMA(convergence_epochs=2)
        pol.place(space, ctx)
        pol.step(space, ctx, epoch=0)
        pol.step(space, ctx, epoch=1)
        stats = pol.step(space, ctx, epoch=2)
        assert stats.pages_moved == 0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            AutoNUMA(migration_fraction=0.0)
        with pytest.raises(ValueError):
            AutoNUMA(convergence_epochs=0)


class TestRegistry:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("first-touch", FirstTouch),
            ("uniform-workers", UniformWorkers),
            ("uniform-all", UniformAll),
            ("autonuma", AutoNUMA),
        ],
    )
    def test_lookup(self, name, cls):
        assert isinstance(policy_by_name(name), cls)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            policy_by_name("bogus")


class TestPlacementStats:
    def test_addition(self):
        s = PlacementStats(1, 2) + PlacementStats(3, 4)
        assert s.pages_touched == 4 and s.pages_moved == 6


#: The ``ctx`` fixture's deployment, for the hypothesis tests below.
CTX = PlacementContext(num_nodes=4, worker_nodes=(0, 1), thread_nodes=(0, 0, 1, 1), init_node=0)


def _twin_spaces(data, backed=True):
    """Two identical spaces: a shared segment and one private segment per
    thread, of drawn sizes; when ``backed``, first-touched and then
    scrambled by drawn writes."""
    spaces = (AddressSpace(CTX.num_nodes), AddressSpace(CTX.num_nodes))
    shared = data.draw(st.integers(1, 300), label="shared pages")
    private = data.draw(st.integers(1, 40), label="private pages")
    for sp in spaces:
        sp.map_segment("shared", shared * PAGE_SIZE)
        for t in range(CTX.num_threads):
            sp.map_segment(f"private-{t}", private * PAGE_SIZE, SegmentKind.PRIVATE, owner_thread=t)
        if backed:
            FirstTouch().place(sp, CTX)
    total = spaces[0].total_pages
    idx = data.draw(st.lists(st.integers(0, total - 1), unique=True, max_size=60), label="scrambled")
    nodes = data.draw(st.lists(st.integers(0, CTX.num_nodes - 1), min_size=len(idx), max_size=len(idx)))
    for sp in spaces:
        sp.assign_pages(np.array(idx, dtype=int), np.array(nodes, dtype=int))
    return spaces


class TestWholeSpaceWriters:
    """The one-write baselines against one write per segment
    (``tests/oracle/baselines.py``): same page table, same counts."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_interleave_place_matches_per_segment_mbind(self, data):
        policy = data.draw(st.sampled_from([UniformWorkers(), UniformAll()]), label="policy")
        fast, ref = _twin_spaces(data, backed=data.draw(st.booleans(), label="backed"))
        stats = policy.place(fast, CTX)
        want = interleave_place_reference(ref, policy._nodes(CTX))
        assert (stats.pages_touched, stats.pages_moved) == want
        np.testing.assert_array_equal(fast.page_nodes(), ref.page_nodes())
        check_counts(fast)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_autonuma_step_matches_per_segment_moves(self, data):
        fast, ref = _twin_spaces(data)
        fraction = data.draw(st.sampled_from([0.1, 0.5, 0.9, 1.0]), label="fraction")
        pol = AutoNUMA(migration_fraction=fraction, convergence_epochs=8)
        for epoch in range(data.draw(st.integers(1, 4), label="steps")):
            stats = pol.step(fast, CTX, epoch)
            assert stats.pages_moved == autonuma_step_reference(ref, CTX, fraction)
            np.testing.assert_array_equal(fast.page_nodes(), ref.page_nodes())
            check_counts(fast)

    @settings(max_examples=100, deadline=None)
    @given(
        mask=st.lists(st.booleans(), min_size=1, max_size=60).filter(any),
        chunk=st.integers(1, 70),
        data=st.data(),
    )
    def test_cut_scans_chunks(self, mask, chunk, data):
        mask = np.array(mask)
        n = data.draw(st.integers(1, int(mask.sum())), label="n")
        assert _cut(mask, n, chunk) == np.flatnonzero(mask)[n - 1] + 1
