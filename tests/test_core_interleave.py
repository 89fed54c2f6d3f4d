"""Algorithm 1 (user-level weighted interleave) and the kernel back end."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interleave import (
    PlacementOutcome,
    algorithm1_subranges,
    apply_weighted_kernel,
    apply_weighted_placement,
    apply_weighted_user,
    placement_error,
)
from repro.memsim.interleave import weighted_counts
from repro.memsim.pages import AddressSpace, SegmentKind
from repro.units import PAGE_SIZE
from tests.oracle.algorithm1 import (
    apply_weighted_placement_reference,
    apply_weighted_user_reference,
)
from tests.oracle.page_counts import check_counts


def make_space(num_nodes=4, pages=10_000):
    sp = AddressSpace(num_nodes)
    seg = sp.map_segment("s", pages * PAGE_SIZE)
    return sp, seg


class TestAlgorithm1Plan:
    def test_plan_tiles_range_exactly(self):
        plan = algorithm1_subranges(1000, [0.4, 0.3, 0.2, 0.1])
        covered = 0
        for start, length, _nodes in plan:
            assert start == covered
            covered += length
        assert covered == 1000

    def test_nested_node_sets(self):
        # Sub-ranges drop the lightest node one at a time.
        plan = algorithm1_subranges(1000, [0.4, 0.3, 0.2, 0.1])
        sets = [set(nodes) for _, _, nodes in plan if _ is not None]
        sizes = [len(s) for s in sets]
        assert sizes == sorted(sizes, reverse=True)
        for a, b in zip(sets, sets[1:]):
            assert b < a  # strictly nested

    def test_first_subrange_interleaves_all(self):
        plan = algorithm1_subranges(1000, [0.4, 0.3, 0.2, 0.1])
        assert set(plan[0][2]) == {0, 1, 2, 3}

    def test_number_of_mbind_calls_is_at_most_n(self):
        plan = algorithm1_subranges(100_000, [0.37, 0.23, 0.21, 0.19])
        assert len(plan) <= 4 + 1  # N sub-ranges plus a possible rounding tail

    def test_equal_weights_single_subrange(self):
        plan = algorithm1_subranges(1000, [0.25, 0.25, 0.25, 0.25])
        assert len(plan) == 1
        assert plan[0][1] == 1000

    def test_zero_weight_node_excluded(self):
        plan = algorithm1_subranges(1000, [0.5, 0.0, 0.5])
        for _, _, nodes in plan:
            assert 1 not in nodes

    def test_zero_pages(self):
        assert algorithm1_subranges(0, [0.5, 0.5]) == []

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            algorithm1_subranges(10, [-0.5, 1.5])
        with pytest.raises(ValueError):
            algorithm1_subranges(10, [0.0, 0.0])
        with pytest.raises(ValueError):
            algorithm1_subranges(-1, [1.0])


class TestUserLevelPlacement:
    def test_per_node_ratios_match_weights(self):
        sp, seg = make_space(pages=100_000)
        w = np.array([0.4, 0.3, 0.2, 0.1])
        apply_weighted_user(sp, seg, w)
        assert sp.placement_distribution() == pytest.approx(w, abs=0.01)

    def test_few_mbind_calls(self):
        sp, seg = make_space(pages=100_000)
        out = apply_weighted_user(sp, seg, [0.4, 0.3, 0.2, 0.1])
        assert out.mbind_calls <= 5

    def test_narrowing_reapplication_migrates(self):
        # DWP increases shift mass toward node 0; mbind must migrate pages.
        sp, seg = make_space(pages=10_000)
        apply_weighted_user(sp, seg, [0.25, 0.25, 0.25, 0.25])
        out = apply_weighted_user(sp, seg, [0.55, 0.15, 0.15, 0.15])
        assert out.pages_moved > 0
        assert sp.placement_distribution()[0] == pytest.approx(0.55, abs=0.02)

    def test_small_segment_best_effort(self):
        sp, seg = make_space(pages=7)
        apply_weighted_user(sp, seg, [0.5, 0.5, 0.0, 0.0])
        assert sp.node_histogram().sum() == 7


class TestKernelLevelPlacement:
    def test_exact_distribution(self):
        sp, seg = make_space(pages=10_000)
        w = np.array([0.4, 0.3, 0.2, 0.1])
        apply_weighted_kernel(sp, seg, w)
        hist = sp.node_histogram()
        assert list(hist) == [4000, 3000, 2000, 1000]

    def test_single_mbind_call(self):
        sp, seg = make_space()
        out = apply_weighted_kernel(sp, seg, [0.5, 0.5, 0.0, 0.0])
        assert out.mbind_calls == 1

    def test_kernel_no_less_accurate_than_user(self):
        w = np.array([0.37, 0.29, 0.21, 0.13])
        sp_u, seg_u = make_space(pages=50_000)
        apply_weighted_user(sp_u, seg_u, w)
        sp_k, seg_k = make_space(pages=50_000)
        apply_weighted_kernel(sp_k, seg_k, w)
        assert placement_error(sp_k, w) <= placement_error(sp_u, w) + 1e-9

    def test_rejects_bad_weights(self):
        sp, seg = make_space()
        with pytest.raises(ValueError):
            apply_weighted_kernel(sp, seg, [0.0, 0.0, 0.0, 0.0])


class TestWholeSpacePlacement:
    def test_covers_every_segment(self):
        sp = AddressSpace(4)
        sp.map_segment("a", 1000 * PAGE_SIZE)
        sp.map_segment("b", 1000 * PAGE_SIZE, SegmentKind.PRIVATE, owner_thread=0)
        w = np.array([0.4, 0.3, 0.2, 0.1])
        apply_weighted_placement(sp, w, mode="kernel")
        assert sp.placement_distribution() == pytest.approx(w, abs=0.01)

    def test_mode_selection(self):
        sp = AddressSpace(2)
        sp.map_segment("a", 100 * PAGE_SIZE)
        out_u = apply_weighted_placement(sp, [0.5, 0.5], mode="user")
        assert out_u.pages_touched == 100
        with pytest.raises(ValueError):
            apply_weighted_placement(sp, [0.5, 0.5], mode="bogus")

    def test_placement_error_metric(self):
        sp = AddressSpace(2)
        seg = sp.map_segment("a", 100 * PAGE_SIZE)
        apply_weighted_kernel(sp, seg, [1.0, 0.0])
        # All pages on node 0 vs a 50/50 target: TV distance = 0.5.
        assert placement_error(sp, [0.5, 0.5]) == pytest.approx(0.5)


class TestUserLevelAccuracyScaling:
    @pytest.mark.parametrize("pages", [1_000, 10_000, 100_000])
    def test_error_small_at_scale(self, pages):
        # Algorithm 1's inaccuracy must stay small (the paper measures the
        # end-to-end gap vs the kernel policy at <= 3%).
        sp, seg = make_space(pages=pages)
        w = np.array([0.35, 0.28, 0.22, 0.15])
        apply_weighted_user(sp, seg, w)
        assert placement_error(sp, w) < 0.02


class TestAlgorithm1RoundingTail:
    def test_plan_never_exceeds_active_node_count(self):
        # Rounding- and tie-heavy weight vectors must stay within the
        # paper's N-mbind bound (no extra tail sub-range).
        cases = [
            [0.37, 0.23, 0.21, 0.19],
            [0.5, 0.5],
            [0.5, 0.25, 0.25],
            [1 / 3, 1 / 3, 1 / 3],
            [0.7, 0.1, 0.1, 0.1],
            [0.999, 0.001],
        ]
        for weights in cases:
            for pages in (1, 7, 997, 100_000):
                plan = algorithm1_subranges(pages, weights)
                active = sum(1 for w in weights if w > 0)
                assert len(plan) <= active, (weights, pages)
                covered = 0
                for start, length, _nodes in plan:
                    assert start == covered  # contiguous, no overlap
                    assert length > 0
                    covered += length
                assert covered == pages, (weights, pages)

    def test_tie_weights_do_not_double_count(self):
        # Ties make trailing sub-ranges zero-size; the leftover pages must
        # be absorbed by the last active sub-range, not re-issued over the
        # full node set.
        plan = algorithm1_subranges(1001, [0.25, 0.25, 0.25, 0.25])
        assert len(plan) == 1
        assert plan[0] == (0, 1001, (0, 1, 2, 3))


class TestPlacementErrorValidation:
    def test_zero_sum_weights_raise(self):
        sp, seg = make_space()
        apply_weighted_user(sp, seg, [0.5, 0.3, 0.1, 0.1])
        with pytest.raises(ValueError):
            placement_error(sp, [0.0, 0.0, 0.0, 0.0])

    def test_negative_weights_raise(self):
        sp, seg = make_space()
        apply_weighted_user(sp, seg, [0.5, 0.3, 0.1, 0.1])
        with pytest.raises(ValueError):
            placement_error(sp, [0.5, 0.5, -0.5, 0.5])

    def test_valid_weights_unchanged(self):
        sp, seg = make_space()
        apply_weighted_user(sp, seg, [0.4, 0.3, 0.2, 0.1])
        err = placement_error(sp, [0.4, 0.3, 0.2, 0.1])
        assert 0.0 <= err < 0.05


_NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteWeights:
    """Every weight entry point rejects NaN/±inf with a clear ValueError
    (a NaN once made Algorithm 1 place nothing and report success)."""

    @pytest.mark.parametrize("bad", _NON_FINITE)
    def test_algorithm1_subranges(self, bad):
        with pytest.raises(ValueError, match="finite"):
            algorithm1_subranges(100, [bad, 1.0])

    @pytest.mark.parametrize("bad", _NON_FINITE)
    @pytest.mark.parametrize("apply", [apply_weighted_user, apply_weighted_kernel])
    def test_segment_back_ends(self, apply, bad):
        sp, seg = make_space(num_nodes=2, pages=100)
        with pytest.raises(ValueError, match="finite"):
            apply(sp, seg, [bad, 1.0])
        assert sp.allocated_pages() == 0

    @pytest.mark.parametrize("bad", _NON_FINITE)
    @pytest.mark.parametrize("mode", ["user", "kernel"])
    def test_apply_weighted_placement(self, mode, bad):
        sp, _seg = make_space(num_nodes=2, pages=100)
        with pytest.raises(ValueError, match="finite"):
            apply_weighted_placement(sp, [bad, 1.0], mode=mode)
        assert sp.allocated_pages() == 0

    @pytest.mark.parametrize("bad", _NON_FINITE)
    def test_weighted_counts(self, bad):
        with pytest.raises(ValueError, match="finite"):
            weighted_counts(100, [bad, 1.0])

    @pytest.mark.parametrize("bad", _NON_FINITE)
    def test_placement_error(self, bad):
        sp, seg = make_space(num_nodes=2, pages=100)
        apply_weighted_user(sp, seg, [0.5, 0.5])
        with pytest.raises(ValueError, match="finite"):
            placement_error(sp, [bad, 1.0])


#: Weight vectors of the wrong length or shape for a 4-node space.
_MISSHAPEN = {
    "too short": [0.5, 0.5],
    "too long": [0.2, 0.2, 0.2, 0.2, 0.1, 0.1],
    "2-D": [[0.25, 0.25], [0.25, 0.25]],
}


class TestMisshapenWeights:
    """Every weight entry point wants one finite weight per node: a short
    vector once placed everything on the first nodes, a long one raised an
    IndexError, and a 2-D one numpy's ambiguous-truth-value error."""

    @pytest.mark.parametrize("bad", list(_MISSHAPEN.values()), ids=list(_MISSHAPEN))
    @pytest.mark.parametrize("mode", ["user", "kernel"])
    def test_apply_weighted_placement(self, mode, bad):
        sp, _seg = make_space(num_nodes=4, pages=100)
        with pytest.raises(ValueError, match="1-D vector of 4 entries"):
            apply_weighted_placement(sp, bad, mode=mode)
        assert sp.allocated_pages() == 0

    @pytest.mark.parametrize("bad", list(_MISSHAPEN.values()), ids=list(_MISSHAPEN))
    @pytest.mark.parametrize("apply", [apply_weighted_user, apply_weighted_kernel])
    def test_segment_back_ends(self, apply, bad):
        sp, seg = make_space(num_nodes=4, pages=100)
        with pytest.raises(ValueError, match="1-D vector of 4 entries"):
            apply(sp, seg, bad)
        assert sp.allocated_pages() == 0

    @pytest.mark.parametrize("bad", list(_MISSHAPEN.values()), ids=list(_MISSHAPEN))
    def test_placement_error(self, bad):
        sp, seg = make_space(num_nodes=4, pages=100)
        apply_weighted_user(sp, seg, [0.25] * 4)
        with pytest.raises(ValueError, match="1-D vector of 4 entries"):
            placement_error(sp, bad)

    def test_algorithm1_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D vector"):
            algorithm1_subranges(100, _MISSHAPEN["2-D"])


#: Weight draws rich in zeros and ties (ties exercise the tail fold).
_weight = st.one_of(
    st.sampled_from([0.0, 0.1, 0.25, 1 / 3, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
)


def _weights(num_nodes):
    return st.lists(_weight, min_size=num_nodes, max_size=num_nodes).filter(
        lambda w: sum(w) > 0
    )


def _twin_spaces(data, num_nodes):
    """Two identical address spaces with 1..40-page segments, part backed."""
    spaces = (AddressSpace(num_nodes), AddressSpace(num_nodes))
    for i in range(data.draw(st.integers(1, 4), label="segments")):
        pages = data.draw(st.sampled_from([1, 2, 3, 7, 40]), label="pages")
        for sp in spaces:
            sp.map_segment(f"s{i}", pages * PAGE_SIZE)
    total = spaces[0].total_pages
    backed = data.draw(st.lists(st.integers(0, total - 1), unique=True), label="backed")
    nodes = data.draw(
        st.lists(st.integers(0, num_nodes - 1), min_size=len(backed), max_size=len(backed))
    )
    for sp in spaces:
        sp.assign_pages(np.array(backed, dtype=int), np.array(nodes, dtype=int))
    return spaces


class TestAlgorithm1Oracle:
    """The one-write-per-segment writer against the per-sub-range mbinds."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_per_subrange_mbind(self, data):
        num_nodes = data.draw(st.integers(1, 6), label="num_nodes")
        fast, ref = _twin_spaces(data, num_nodes)
        for _ in range(data.draw(st.integers(1, 3), label="rounds")):
            weights = data.draw(_weights(num_nodes), label="weights")
            move = data.draw(st.booleans(), label="move")
            if data.draw(st.booleans(), label="whole space"):
                got = apply_weighted_placement(fast, weights, move=move)
                want = apply_weighted_placement_reference(ref, weights, move=move)
            else:
                i = data.draw(st.integers(0, len(fast.segments) - 1), label="segment")
                got = apply_weighted_user(fast, fast.segments[i], weights, move=move)
                want = apply_weighted_user_reference(ref, ref.segments[i], weights, move=move)
            assert got == want
            assert fast.page_nodes().tobytes() == ref.page_nodes().tobytes()
            check_counts(fast)
            for seg_f, seg_r in zip(fast.segments, ref.segments):
                assert (
                    fast.node_histogram([seg_f]).tobytes()
                    == ref.node_histogram([seg_r]).tobytes()
                )

    def test_one_page_segments_and_tail_fold(self):
        # Tied weights fold the rounding tail into the last sub-range; a
        # one-page segment gets a one-page plan.
        for pages, weights in [(1, [0.5, 0.5]), (1, [0.7, 0.0, 0.3]), (1001, [0.25] * 4)]:
            fast, ref = AddressSpace(len(weights)), AddressSpace(len(weights))
            for sp in (fast, ref):
                sp.map_segment("s", pages * PAGE_SIZE)
            got = apply_weighted_user(fast, fast.segments[0], weights)
            want = apply_weighted_user_reference(ref, ref.segments[0], weights)
            assert got == want and got.pages_touched == pages
            assert fast.page_nodes().tobytes() == ref.page_nodes().tobytes()
            check_counts(fast)

    def test_zero_page_plan_is_empty(self):
        assert algorithm1_subranges(0, [0.25, 0.75]) == []


class TestOneWritePerPlacement:
    """``apply_weighted_placement`` writes the whole space in one rebind and
    must equal one ``mbind`` per sub-range of every segment."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_matches_per_subrange_mbind(self, data):
        num_nodes = data.draw(st.integers(1, 6), label="num_nodes")
        spaces = fast, ref = AddressSpace(num_nodes), AddressSpace(num_nodes)
        sizes = [data.draw(st.integers(1, 300), label="shared pages")]
        sizes += data.draw(
            st.lists(st.sampled_from([1, 2, 5, 16, 37, 64]), max_size=8), label="private pages"
        )
        for sp in spaces:
            sp.map_segment("shared", sizes[0] * PAGE_SIZE, SegmentKind.SHARED)
            for t, pages in enumerate(sizes[1:]):
                sp.map_segment(f"private-{t}", pages * PAGE_SIZE, SegmentKind.PRIVATE, t)
        # Back some segments wholly, some partly, leave the rest unbacked.
        for seg_f, seg_r in zip(*(sp.segments for sp in spaces)):
            how = data.draw(st.sampled_from(["unbacked", "touched", "partly"]), label="backing")
            node = data.draw(st.integers(0, num_nodes - 1), label="node")
            if how == "touched":
                fast.touch(seg_f, node)
                ref.touch(seg_r, node)
            elif how == "partly":
                pages = np.arange(seg_f.start_page, seg_f.end_page, 3)
                for sp in spaces:
                    sp.assign_pages(pages, np.full(len(pages), node))
        for _ in range(data.draw(st.integers(1, 3), label="rounds")):
            weights = data.draw(_weights(num_nodes), label="weights")
            move = data.draw(st.booleans(), label="move")
            versions = fast.version, ref.version
            got = apply_weighted_placement(fast, weights, move=move)
            want = apply_weighted_placement_reference(ref, weights, move=move)
            assert got == want
            assert fast.page_nodes().tobytes() == ref.page_nodes().tobytes()
            # One page-table write: the version moves once, exactly when
            # any of the reference's per-sub-range calls moved it.
            assert fast.version - versions[0] == int(ref.version > versions[1])
            check_counts(fast)
            for seg_f, seg_r in zip(fast.segments, ref.segments):
                assert (
                    fast.node_histogram([seg_f]).tobytes()
                    == ref.node_histogram([seg_r]).tobytes()
                )

    def test_empty_space_is_a_no_op(self):
        sp = AddressSpace(2)
        assert apply_weighted_placement(sp, [0.5, 0.5]) == PlacementOutcome(0, 0, 0)
        assert sp.version == 0
