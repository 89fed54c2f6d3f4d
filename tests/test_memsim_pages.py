"""Address spaces, segments, page tables."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interleave import apply_weighted_placement
from repro.memsim.mbind import MbindFlag, MPol, mbind
from repro.memsim.pages import UNALLOCATED, AddressSpace, Segment, SegmentKind
from repro.units import PAGE_SIZE
from tests.oracle.page_counts import check_counts, fresh_histogram


class TestSegment:
    def test_shared_segment(self):
        s = Segment("heap", start_page=10, num_pages=5, kind=SegmentKind.SHARED)
        assert s.end_page == 15
        assert s.size_bytes == 5 * PAGE_SIZE
        assert s.page_range() == (10, 15)

    def test_private_requires_owner(self):
        with pytest.raises(ValueError):
            Segment("p", 0, 1, SegmentKind.PRIVATE)

    def test_shared_rejects_owner(self):
        with pytest.raises(ValueError):
            Segment("s", 0, 1, SegmentKind.SHARED, owner_thread=0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Segment("s", 0, 0, SegmentKind.SHARED)


class TestAddressSpace:
    def test_map_segment_layout(self):
        sp = AddressSpace(4)
        a = sp.map_segment("a", 3 * PAGE_SIZE)
        b = sp.map_segment("b", PAGE_SIZE + 1)  # rounds to 2 pages
        assert a.start_page == 0 and a.num_pages == 3
        assert b.start_page == 3 and b.num_pages == 2
        assert sp.total_pages == 5

    def test_pages_start_unallocated(self):
        sp = AddressSpace(4)
        seg = sp.map_segment("a", 2 * PAGE_SIZE)
        assert (sp.page_nodes(seg) == UNALLOCATED).all()
        assert sp.allocated_pages() == 0

    def test_segment_lookup(self):
        sp = AddressSpace(4)
        sp.map_segment("x", PAGE_SIZE)
        assert sp.segment("x").name == "x"
        with pytest.raises(KeyError):
            sp.segment("nope")

    def test_segments_of_kind(self):
        sp = AddressSpace(4)
        sp.map_segment("s", PAGE_SIZE)
        sp.map_segment("p", PAGE_SIZE, SegmentKind.PRIVATE, owner_thread=0)
        assert len(sp.segments_of_kind(SegmentKind.SHARED)) == 1
        assert len(sp.segments_of_kind(SegmentKind.PRIVATE)) == 1

    def test_touch_first_touch_semantics(self):
        sp = AddressSpace(4)
        seg = sp.map_segment("a", 4 * PAGE_SIZE)
        assert sp.touch(seg, 2) == 4
        # Second touch allocates nothing and moves nothing.
        assert sp.touch(seg, 1) == 0
        assert (sp.page_nodes(seg) == 2).all()

    def test_touch_rejects_bad_node(self):
        sp = AddressSpace(4)
        seg = sp.map_segment("a", PAGE_SIZE)
        with pytest.raises(ValueError):
            sp.touch(seg, 4)

    def test_set_pages_counts_moves(self):
        sp = AddressSpace(4)
        seg = sp.map_segment("a", 4 * PAGE_SIZE)
        sp.touch(seg, 0)
        moved = sp.set_pages(0, np.array([0, 1, 1, 0], dtype=np.int16))
        assert moved == 2

    def test_set_pages_new_backing_is_not_move(self):
        sp = AddressSpace(4)
        sp.map_segment("a", 3 * PAGE_SIZE)
        moved = sp.set_pages(0, np.array([1, 2, 3], dtype=np.int16))
        assert moved == 0
        assert sp.allocated_pages() == 3

    def test_set_pages_rejects_out_of_range(self):
        sp = AddressSpace(4)
        sp.map_segment("a", 2 * PAGE_SIZE)
        with pytest.raises(ValueError):
            sp.set_pages(1, np.array([0, 0], dtype=np.int16))

    def test_set_pages_rejects_invalid_node(self):
        sp = AddressSpace(4)
        sp.map_segment("a", PAGE_SIZE)
        with pytest.raises(ValueError):
            sp.set_pages(0, np.array([7], dtype=np.int16))

    def test_histogram_and_distribution(self):
        sp = AddressSpace(4)
        seg = sp.map_segment("a", 4 * PAGE_SIZE)
        sp.set_pages(0, np.array([0, 0, 1, 3], dtype=np.int16))
        assert list(sp.node_histogram()) == [2, 1, 0, 1]
        assert sp.placement_distribution() == pytest.approx([0.5, 0.25, 0, 0.25])

    def test_distribution_empty_space(self):
        sp = AddressSpace(4)
        sp.map_segment("a", PAGE_SIZE)
        assert (sp.placement_distribution() == 0).all()

    def test_histogram_per_segment(self):
        sp = AddressSpace(2)
        a = sp.map_segment("a", 2 * PAGE_SIZE)
        b = sp.map_segment("b", 2 * PAGE_SIZE)
        sp.touch(a, 0)
        sp.touch(b, 1)
        assert list(sp.node_histogram([a])) == [2, 0]
        assert list(sp.node_histogram([b])) == [0, 2]

    def test_resident_bytes(self):
        sp = AddressSpace(2)
        seg = sp.map_segment("a", 3 * PAGE_SIZE)
        sp.touch(seg, 1)
        assert list(sp.resident_bytes_per_node()) == [0, 3 * PAGE_SIZE]

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            AddressSpace(0)


class TestSegmentNameUniqueness:
    def test_duplicate_name_rejected(self):
        sp = AddressSpace(4)
        sp.map_segment("heap", PAGE_SIZE)
        with pytest.raises(ValueError, match="already mapped"):
            sp.map_segment("heap", PAGE_SIZE)

    def test_space_unchanged_after_rejected_mapping(self):
        sp = AddressSpace(4)
        sp.map_segment("heap", PAGE_SIZE)
        pages_before, version_before = sp.total_pages, sp.version
        with pytest.raises(ValueError):
            sp.map_segment("heap", 3 * PAGE_SIZE)
        assert sp.total_pages == pages_before
        assert sp.version == version_before
        assert len(sp.segments) == 1


class TestForeignSegments:
    def _spaces(self):
        a = AddressSpace(2)
        a.map_segment("x", 10 * PAGE_SIZE)
        b = AddressSpace(2)
        b.map_segment("first", 4 * PAGE_SIZE)
        seg_b = b.map_segment("y", 20 * PAGE_SIZE)
        b.touch(seg_b, 1)
        return a, seg_b

    def test_segment_of_another_space_rejected(self):
        a, seg_b = self._spaces()
        before, version = a.page_nodes().copy(), a.version
        calls = (
            lambda: a.page_nodes(seg_b),
            lambda: a.touch(seg_b, 0),
            lambda: a.node_histogram([seg_b]),
            lambda: a.placement_distribution([seg_b]),
        )
        for call in calls:
            with pytest.raises(ValueError, match="not mapped"):
                call()
        np.testing.assert_array_equal(a.page_nodes(), before)
        assert a.version == version

    def test_same_start_different_extent_rejected(self):
        a = AddressSpace(2)
        seg = a.map_segment("x", 10 * PAGE_SIZE)
        other = dataclasses.replace(seg, num_pages=20)
        with pytest.raises(ValueError, match="not mapped"):
            a.node_histogram([seg, other])

    def test_equal_segment_value_accepted(self):
        a = AddressSpace(2)
        seg = a.map_segment("x", 10 * PAGE_SIZE)
        a.touch(seg, 1)
        assert list(a.node_histogram([dataclasses.replace(seg)])) == [0, 10]


class TestMapSegments:
    """``map_segments`` maps a batch back to back with one fill, or nothing."""

    def test_batch_layout(self):
        sp = AddressSpace(2)
        sp.map_segment("shared", 3 * PAGE_SIZE)
        version = sp.version
        segs = sp.map_segments(["p0", "p1"], PAGE_SIZE + 1, SegmentKind.PRIVATE, [0, 1])
        assert [(s.name, s.start_page, s.num_pages, s.owner_thread) for s in segs] == [
            ("p0", 3, 2, 0),
            ("p1", 5, 2, 1),
        ]
        assert sp.segments[1:] == tuple(segs) and sp.segment("p1") is segs[1]
        assert sp.version == version + 1
        assert sp.counts.tolist() == [[0, 0]] * 3
        assert (sp.page_nodes() == UNALLOCATED).all()
        assert sp.map_segments([], PAGE_SIZE) == [] and sp.version == version + 1

    def test_mixed_batch_matches_one_by_one(self):
        """Mixed kinds, sizes and owners in one call lay out and fill the
        table exactly as mapping each segment on its own."""
        specs = [("shared", 3 * PAGE_SIZE, SegmentKind.SHARED, None)] + [
            (f"p{t}", PAGE_SIZE + t, SegmentKind.PRIVATE, t) for t in range(3)
        ]
        one = AddressSpace(2)
        for name, size, kind, owner in specs:
            one.map_segment(name, size, kind, owner)
        batch = AddressSpace(2)
        segs = batch.map_segments(*map(list, zip(*specs)))
        assert tuple(segs) == one.segments == batch.segments
        assert [s.start_page for s in segs] == [0, 3, 4, 6]
        assert batch.version == 1 and batch.total_pages == one.total_pages == 8
        assert (batch.page_nodes() == UNALLOCATED).all()
        assert batch.counts.tolist() == [[0, 0]] * 4

    @pytest.mark.parametrize(
        "sizes, kinds",
        [([PAGE_SIZE], SegmentKind.SHARED), (PAGE_SIZE, [SegmentKind.SHARED] * 3)],
    )
    def test_per_name_values_must_match(self, sizes, kinds):
        sp = AddressSpace(2)
        with pytest.raises(ValueError, match="for 2 segments"):
            sp.map_segments(["a", "b"], sizes, kinds)
        assert sp.segments == () and sp.version == 0

    @pytest.mark.parametrize(
        "names, owners",
        [(["a", "b", "a"], [0, 1, 2]), (["b", "x"], [0, 1]), (["c", "d"], [0]), (["e"], [None])],
    )
    def test_rejected_before_any_mapping(self, names, owners):
        sp = AddressSpace(2)
        sp.map_segment("x", PAGE_SIZE)
        before = (sp.segments, sp.version, sp.total_pages)
        with pytest.raises(ValueError):
            sp.map_segments(names, PAGE_SIZE, SegmentKind.PRIVATE, owners)
        assert (sp.segments, sp.version, sp.total_pages) == before
        assert sp.counts.shape == (1, 2)
        for name in names:
            if name != "x":
                with pytest.raises(KeyError):
                    sp.segment(name)


class TestRebindCounts:
    """``rebind(counts=...)`` hands over count rows only for a ``move``
    write of a run of whole mapped segments, one counts row each."""

    def _space(self):
        sp = AddressSpace(3)
        sp.map_segment("a", 4 * PAGE_SIZE)
        sp.map_segment("b", 2 * PAGE_SIZE)
        sp.map_segment("c", 3 * PAGE_SIZE)
        return sp

    def test_run_of_whole_segments_keeps_counts(self):
        sp = self._space()
        rows = [[1, 2, 1], [0, 0, 2], [1, 1, 1]]
        assignment = np.array([0, 1, 2, 1, 2, 2, 0, 1, 2])
        version = sp.version
        assert sp.rebind(0, assignment, counts=rows) == (9, 0)
        assert sp.version == version + 1  # one write
        for i, row in enumerate(rows):
            assert list(sp.counts[i]) == row  # handed over, not recounted
        assert list(sp.node_histogram()) == [2, 3, 4]
        # A run that starts at a later segment.
        assert sp.rebind(4, np.array([0, 0, 1, 1, 1]), counts=[[2, 0, 0], [0, 3, 0]]) == (0, 4)
        assert sp.counts.tolist() == [rows[0], [2, 0, 0], [0, 3, 0]]

    def test_whole_segment_move_write_keeps_counts(self):
        sp = self._space()
        assert sp.rebind(4, np.array([2, 0]), counts=[1, 0, 1]) == (2, 0)
        assert list(sp.counts[1]) == [1, 0, 1]  # handed over, not recounted
        assert list(sp.node_histogram([sp.segment("b")])) == [1, 0, 1]
        # An unchanged write still leaves an exact memo.
        assert sp.rebind(4, np.array([2, 0]), counts=np.array([1, 0, 1])) == (0, 0)
        assert list(sp.node_histogram([sp.segment("b")])) == [1, 0, 1]

    @pytest.mark.parametrize(
        "start, assignment, move, counts",
        [
            (0, [0, 1, 2], True, [1, 1, 1]),  # part of a segment
            (1, [0, 1, 2, 0], True, [2, 1, 1]),  # straddles two segments
            (0, [0, 1, 2, 0, 1, 2], True, [2, 2, 2]),  # two whole segments, one row
            (4, [2, 0], False, [1, 0, 1]),  # not a move write
            (4, [2, 0], True, [2, 0, 1]),  # counts do not sum to the range
            (4, [2, 0], True, [1, 1]),  # wrong number of nodes
            (0, [0] * 6, True, [[4, 0, 0]]),  # too few rows for the run
            (0, [0] * 6, True, [[4, 0, 0], [2, 0, 0], [0, 0, 0]]),  # too many rows
            (0, [0] * 9, True, [[4, 0, 0], [2, 0, 0]]),  # one row short, full run
            (0, [0] * 7, True, [[4, 0, 0], [2, 0, 0], [1, 0, 0]]),  # ends inside "c"
            (1, [0] * 5, True, [[3, 0, 0], [2, 0, 0]]),  # starts inside "a"
            (0, [0] * 6, True, [[4, 0, 0], [1, 0, 0]]),  # a row sum is off
            (0, [0] * 6, True, [[3, 0, 0], [3, 0, 0]]),  # right total, wrong rows
            (0, [0] * 6, False, [[4, 0, 0], [2, 0, 0]]),  # not a move write
            (0, [0] * 6, True, [[4, 0], [2, 0]]),  # wrong number of nodes
        ],
    )
    def test_rejected_before_any_write(self, start, assignment, move, counts):
        sp = self._space()
        version = sp.version
        with pytest.raises(ValueError, match="counts"):
            sp.rebind(start, np.array(assignment), move=move, counts=counts)
        assert sp.version == version
        assert (sp.page_nodes() == UNALLOCATED).all()


def _selections(space):
    segs = list(space.segments)
    return [
        None,
        [],
        segs,
        segs[::-1],
        segs[::2],
        list(space.segments_of_kind(SegmentKind.SHARED)),
        list(space.segments_of_kind(SegmentKind.PRIVATE)),
    ] + [[s] for s in segs]


def _check_statistics(space):
    for sel in _selections(space):
        want = fresh_histogram(space, sel)
        hist = space.node_histogram(sel)
        assert hist.dtype == np.int64
        np.testing.assert_array_equal(hist, want)
        total = want.sum()
        want_dist = np.zeros(space.num_nodes) if total == 0 else want / total
        dist = space.placement_distribution(sel)
        # Bit-identical, not approximately equal.
        assert dist.tobytes() == want_dist.tobytes()


class TestHistogramMemo:
    """Random page-table op sequences against the per-page recount."""

    def test_touch_updates_histogram_without_recount(self):
        sp = AddressSpace(3)
        a = sp.map_segment("a", 5 * PAGE_SIZE)
        b = sp.map_segment("b", 4 * PAGE_SIZE)
        version = sp.version
        # Wholly unbacked: one fill, and the row is one-hot.
        assert sp.touch(a, 1) == 5
        assert sp.counts.tolist() == [[0, 5, 0], [0, 0, 0]]
        assert sp.version == version + 1
        # Partly backed: the unbacked pages are added to ``node``.
        sp.set_pages(b.start_page, np.array([2], dtype=np.int16))
        assert sp.touch(b, 0) == 3
        assert list(sp.counts[1]) == [3, 0, 1]
        # Wholly backed: nothing to allocate, no write.
        version = sp.version
        assert sp.touch(b, 1) == 0 and sp.version == version
        c = sp.map_segment("c", 4 * PAGE_SIZE)
        sp.set_pages(c.start_page + 1, np.array([2, 2], dtype=np.int16))
        assert sp.touch(c, 1) == 2
        assert list(sp.counts[2]) == [0, 2, 2]
        check_counts(sp)
        _check_statistics(sp)

    def test_touch_all_backs_each_segment_on_its_node(self):
        sp = AddressSpace(3)
        a = sp.map_segment("a", 2 * PAGE_SIZE)
        sp.map_segment("b", 3 * PAGE_SIZE)
        sp.set_pages(a.start_page, np.array([2], dtype=np.int16))
        version = sp.version
        assert sp.touch_all([0, 1]) == 4
        assert sp.page_nodes().tolist() == [2, 0, 1, 1, 1]
        assert sp.counts.tolist() == [[1, 0, 1], [0, 3, 0]] and sp.version == version + 1
        assert sp.touch_all([1, 2]) == 0 and sp.version == version + 1
        for bad in ([0], [0, 3]):
            with pytest.raises(ValueError):
                sp.touch_all(bad)
        check_counts(sp)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_random_op_sequences(self, data):
        num_nodes = data.draw(st.integers(min_value=1, max_value=5), label="num_nodes")
        space = AddressSpace(num_nodes)
        node = st.integers(min_value=0, max_value=num_nodes - 1)
        ops = ("map", "touch", "set_pages", "assign_pages", "mbind", "bind", "weighted")
        for step in range(data.draw(st.integers(min_value=1, max_value=20), label="steps")):
            op = data.draw(st.sampled_from(ops if space.segments else ("map",)), label="op")
            before = space.page_nodes().copy()
            version, mapped = space.version, len(space.segments)
            total = space.total_pages
            page = st.integers(min_value=0, max_value=max(total - 1, 0))
            if op == "map":
                private = data.draw(st.booleans(), label="private")
                space.map_segment(
                    f"s{step}",
                    data.draw(st.integers(min_value=1, max_value=40)) * PAGE_SIZE,
                    SegmentKind.PRIVATE if private else SegmentKind.SHARED,
                    owner_thread=step if private else None,
                )
            elif op == "touch":
                seg = data.draw(st.sampled_from(space.segments))
                space.touch(seg, data.draw(node))
            elif op == "set_pages":
                start = data.draw(page)
                n = data.draw(st.integers(min_value=0, max_value=total - start))
                values = data.draw(st.lists(node, min_size=n, max_size=n))
                space.set_pages(start, np.array(values, dtype=np.int16))
            elif op == "assign_pages":
                idx = data.draw(st.lists(page, max_size=12, unique=True))
                values = data.draw(st.lists(node, min_size=len(idx), max_size=len(idx)))
                space.assign_pages(np.array(idx, dtype=int), np.array(values, dtype=int))
            elif op in ("mbind", "bind"):
                start = data.draw(page)
                n = data.draw(st.integers(min_value=0, max_value=total - start))
                flags = data.draw(
                    st.sampled_from(
                        [
                            MbindFlag.NONE,
                            MbindFlag.MOVE,
                            MbindFlag.MOVE | MbindFlag.STRICT,
                            MbindFlag.STRICT,
                        ]
                    )
                )
                if op == "bind":
                    policy, nodes, phase = MPol.BIND, [data.draw(node)], 0
                else:
                    policy = MPol.INTERLEAVE
                    nodes = data.draw(st.lists(node, min_size=1, unique=True))
                    phase = data.draw(st.integers(min_value=-50, max_value=50))
                try:
                    mbind(space, start, n, policy, nodes, flags=flags, phase=phase)
                except PermissionError:
                    assert flags is MbindFlag.STRICT
                    np.testing.assert_array_equal(space.page_nodes(), before)
                    assert space.version == version
            else:
                weights = data.draw(
                    st.lists(
                        st.floats(min_value=0.0, max_value=1.0),
                        min_size=num_nodes,
                        max_size=num_nodes,
                    ).filter(lambda w: sum(w) > 0.1)
                )
                mode = data.draw(st.sampled_from(["user", "kernel"]))
                move = data.draw(st.booleans())
                apply_weighted_placement(space, weights, mode=mode, move=move)
            after = space.page_nodes()
            mutated = len(space.segments) != mapped or not np.array_equal(
                after[: len(before)], before
            )
            assert (space.version > version) == mutated, op
            check_counts(space)
            _check_statistics(space)
