"""Simulated mbind(2) semantics."""

import numpy as np
import pytest

from repro.memsim.mbind import MbindFlag, MPol, mbind, mbind_segment
from repro.memsim.pages import UNALLOCATED, AddressSpace
from repro.units import PAGE_SIZE


@pytest.fixture
def space():
    sp = AddressSpace(4)
    sp.map_segment("seg", 100 * PAGE_SIZE)
    return sp


class TestBindPolicies:
    def test_bind_places_all_on_node(self, space):
        res = mbind(space, 0, 100, MPol.BIND, [2])
        assert res.pages_touched == 100 and res.pages_moved == 0
        assert (space.page_nodes() == 2).all()

    def test_bind_requires_single_node(self, space):
        with pytest.raises(ValueError):
            mbind(space, 0, 10, MPol.BIND, [0, 1])

    def test_preferred_behaves_like_bind_here(self, space):
        mbind(space, 0, 10, MPol.PREFERRED, [1])
        assert (space.page_nodes()[:10] == 1).all()

    def test_default_is_noop(self, space):
        res = mbind(space, 0, 10, MPol.DEFAULT, [])
        assert res.pages_touched == 0
        assert (space.page_nodes()[:10] == UNALLOCATED).all()


class TestInterleave:
    def test_uniform_interleave(self, space):
        mbind(space, 0, 100, MPol.INTERLEAVE, [0, 1, 2, 3])
        hist = space.node_histogram()
        assert hist.sum() == 100
        assert hist.max() - hist.min() <= 1

    def test_weighted_interleave(self, space):
        mbind(space, 0, 100, MPol.WEIGHTED_INTERLEAVE, [0, 1], weights=[0.7, 0.3])
        hist = space.node_histogram()
        assert hist[0] == 70 and hist[1] == 30

    def test_weighted_requires_weights(self, space):
        with pytest.raises(ValueError):
            mbind(space, 0, 10, MPol.WEIGHTED_INTERLEAVE, [0, 1])


class TestMoveSemantics:
    def test_without_move_only_unbacked_pages_bind(self, space):
        mbind(space, 0, 50, MPol.BIND, [0])
        res = mbind(space, 0, 100, MPol.INTERLEAVE, [2, 3])
        # The 50 backed pages stay on node 0; the rest interleave.
        assert res.pages_moved == 0
        assert (space.page_nodes()[:50] == 0).all()
        assert set(space.page_nodes()[50:]) == {2, 3}

    def test_move_migrates_nonconforming(self, space):
        mbind(space, 0, 100, MPol.BIND, [0])
        res = mbind(space, 0, 100, MPol.BIND, [1], flags=MbindFlag.MOVE)
        assert res.pages_moved == 100
        assert (space.page_nodes() == 1).all()

    def test_move_skips_already_conforming(self, space):
        mbind(space, 0, 100, MPol.INTERLEAVE, [0, 1])
        res = mbind(space, 0, 100, MPol.INTERLEAVE, [0, 1], flags=MbindFlag.MOVE)
        assert res.pages_moved == 0

    def test_strict_without_move_raises_on_nonconforming(self, space):
        mbind(space, 0, 10, MPol.BIND, [0])
        with pytest.raises(PermissionError):
            mbind(space, 0, 10, MPol.BIND, [1], flags=MbindFlag.STRICT)

    def test_strict_with_move_succeeds(self, space):
        mbind(space, 0, 10, MPol.BIND, [0])
        res = mbind(
            space, 0, 10, MPol.BIND, [1], flags=MbindFlag.MOVE | MbindFlag.STRICT
        )
        assert res.pages_moved == 10


class TestRangeHandling:
    def test_partial_range(self, space):
        mbind(space, 20, 30, MPol.BIND, [3])
        nodes = space.page_nodes()
        assert (nodes[:20] == UNALLOCATED).all()
        assert (nodes[20:50] == 3).all()
        assert (nodes[50:] == UNALLOCATED).all()

    def test_zero_pages_noop(self, space):
        res = mbind(space, 0, 0, MPol.BIND, [0])
        assert res.pages_touched == 0

    def test_negative_pages_rejected(self, space):
        with pytest.raises(ValueError):
            mbind(space, 0, -5, MPol.BIND, [0])

    def test_out_of_range_rejected(self, space):
        with pytest.raises(ValueError):
            mbind(space, 90, 20, MPol.BIND, [0])

    def test_mbind_segment_covers_whole_segment(self):
        sp = AddressSpace(2)
        sp.map_segment("a", 10 * PAGE_SIZE)
        seg = sp.map_segment("b", 10 * PAGE_SIZE)
        mbind_segment(sp, seg, MPol.BIND, [1])
        assert (sp.page_nodes(seg) == 1).all()
        assert (sp.page_nodes(sp.segment("a")) == UNALLOCATED).all()

    def test_interleave_phase_continuity(self):
        # Adjacent mbind_segment calls use the segment start as the phase,
        # matching Linux's per-VMA offset-based interleaving.
        sp = AddressSpace(2)
        a = sp.map_segment("a", 3 * PAGE_SIZE)
        b = sp.map_segment("b", 3 * PAGE_SIZE)
        mbind_segment(sp, a, MPol.INTERLEAVE, [0, 1])
        mbind_segment(sp, b, MPol.INTERLEAVE, [0, 1])
        combined = np.concatenate([sp.page_nodes(a), sp.page_nodes(b)])
        assert list(combined) == [0, 1, 0, 1, 0, 1]


class TestRejectsBeforeMutating:
    """Bad ranges and node ids fail before the page table or version move."""

    FLAGS = (MbindFlag.NONE, MbindFlag.MOVE, MbindFlag.MOVE | MbindFlag.STRICT)

    @pytest.fixture
    def placed(self, space):
        mbind(space, 0, 60, MPol.INTERLEAVE, [0, 1])
        return space, space.page_nodes().copy(), space.version

    def _assert_unchanged(self, placed):
        space, before, version = placed
        np.testing.assert_array_equal(space.page_nodes(), before)
        assert space.version == version

    @pytest.mark.parametrize(
        "start,num_pages",
        [(-1, 5), (-5, 3), (-100, 100), (96, 5), (100, 1), (0, 101), (2**40, 1)],
    )
    def test_bad_range(self, placed, start, num_pages):
        space = placed[0]
        for flags in self.FLAGS:
            for policy, nodes in ((MPol.INTERLEAVE, [2, 3]), (MPol.BIND, [3])):
                with pytest.raises(ValueError):
                    mbind(space, start, num_pages, policy, nodes, flags=flags)
            with pytest.raises(ValueError):
                mbind(
                    space, start, num_pages, MPol.WEIGHTED_INTERLEAVE, [2, 3],
                    weights=[0.5, 0.5], flags=flags,
                )
        self._assert_unchanged(placed)

    @pytest.mark.parametrize(
        "policy,nodes",
        [
            (MPol.BIND, [4]),
            (MPol.BIND, [-1]),
            (MPol.PREFERRED, [9]),
            (MPol.INTERLEAVE, [0, 4]),
            (MPol.INTERLEAVE, [-1, 2]),
            (MPol.WEIGHTED_INTERLEAVE, [1, 7]),
        ],
    )
    def test_invalid_nodes(self, placed, policy, nodes):
        space = placed[0]
        weights = [0.5] * len(nodes) if policy is MPol.WEIGHTED_INTERLEAVE else None
        for flags in self.FLAGS:
            with pytest.raises(ValueError):
                mbind(space, 10, 80, policy, nodes, weights=weights, flags=flags)
        self._assert_unchanged(placed)

    def test_strict_refusal(self, placed):
        with pytest.raises(PermissionError):
            mbind(placed[0], 0, 100, MPol.BIND, [3], flags=MbindFlag.STRICT)
        self._assert_unchanged(placed)
