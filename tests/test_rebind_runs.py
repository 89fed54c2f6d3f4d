"""``AddressSpace.rebind`` over ``(length, block)`` runs against the flat
whole-range write of ``tests/oracle/flat_rebind.py``, and the period
blocks every interleave writes from."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.interleave import PERIOD_BLOCK_PAGES, period_block, tile_into
from repro.memsim.pages import UNALLOCATED, AddressSpace, _spans
from repro.units import PAGE_SIZE
from tests.oracle.flat_rebind import flat_rebind, materialise, uniform_assignment
from tests.oracle.page_counts import check_counts


def _space(data, num_nodes):
    """A space of one to four segments, unbacked, partly or fully backed."""
    sp = AddressSpace(num_nodes)
    sizes = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=4), label="sizes")
    sp.map_segments([f"s{i}" for i in range(len(sizes))], [n * PAGE_SIZE for n in sizes])
    backing = data.draw(st.sampled_from(["unbacked", "partly", "fully"]), label="backing")
    if backing != "unbacked":
        pages = np.arange(sp.total_pages)
        if backing == "partly":
            pages = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=len(pages), max_size=len(pages))))
        nodes = data.draw(st.lists(st.integers(0, num_nodes - 1), min_size=len(pages), max_size=len(pages)))
        sp.assign_pages(pages, np.array(nodes, dtype=np.int16))
    return sp


def _block(data, num_nodes, length):
    """A period block of 1-8 distinct nodes tiled one to four times, or
    (``None`` period) a whole-range block of arbitrary ids."""
    k = data.draw(st.one_of(st.none(), st.integers(1, min(8, num_nodes))), label="period")
    if k is None:
        return np.array(data.draw(st.lists(st.integers(0, num_nodes - 1), min_size=length, max_size=length)), np.int16)
    nodes = data.draw(st.permutations(range(num_nodes)), label="nodes")[:k]
    phase = data.draw(st.integers(0, k - 1), label="phase")
    return np.tile(np.roll(np.array(nodes, np.int16), -phase), data.draw(st.integers(1, 4), label="reps"))


def _runs(data, num_nodes, n):
    """Back-to-back runs covering ``n`` pages, with lengths that do and do
    not divide their blocks (a block may serve several runs)."""
    runs, left = [], n
    while left:
        length = data.draw(st.integers(1, left), label="length")
        if runs and data.draw(st.booleans(), label="reuse"):
            block = runs[-1][1]
        else:
            block = _block(data, num_nodes, length)
        runs.append((length, block))
        left -= length
    return runs


def _state(sp):
    return sp.page_nodes().copy(), sp.counts.copy(), sp.version


class TestRunsMatchFlatWrite:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, data):
        num_nodes = data.draw(st.integers(1, 8), label="num_nodes")
        sp = _space(data, num_nodes)
        segs = sp.segments
        with_counts = data.draw(st.booleans(), label="with_counts")
        if with_counts:
            i = data.draw(st.integers(0, len(segs) - 1), label="first")
            j = data.draw(st.integers(i, len(segs) - 1), label="last")
            start, n = segs[i].start_page, segs[j].end_page - segs[i].start_page
            move, strict = True, data.draw(st.booleans(), label="strict")
        else:
            start = data.draw(st.integers(0, sp.total_pages), label="start")
            n = data.draw(st.integers(0, sp.total_pages - start), label="n")
            move, strict = data.draw(st.booleans(), label="move"), data.draw(st.booleans(), label="strict")
        runs = _runs(data, num_nodes, n)
        flat = materialise(runs)
        counts = None
        if with_counts:
            counts = [
                np.bincount(flat[s.start_page - start : s.end_page - start], minlength=num_nodes)
                for s in segs[i : j + 1]
            ]
        ref = copy.deepcopy(sp)
        before = sp.version
        try:
            want = flat_rebind(ref, start, flat, move=move, strict=strict, counts=counts)
        except PermissionError:
            with pytest.raises(PermissionError):
                sp.rebind(start, runs, move=move, strict=strict, counts=counts)
            want = None
        if want is not None:
            assert sp.rebind(start, runs, move=move, strict=strict, counts=counts) == want
        table, kept, version = _state(sp)
        ref_table, ref_kept, ref_version = _state(ref)
        np.testing.assert_array_equal(table, ref_table)
        np.testing.assert_array_equal(kept, ref_kept)
        assert (version != before) == (ref_version != before)
        check_counts(sp)


class TestJoinedShortRuns:
    """Runs no longer than their blocks are joined into spans of at most
    about one period block; many of them over a range several blocks long
    still write what the flat reference writes."""

    @pytest.mark.parametrize("backing", ["unbacked", "partly", "fully"])
    @pytest.mark.parametrize("with_counts", [False, True])
    def test_matches_reference(self, backing, with_counts):
        rng = np.random.default_rng(7)
        sp = AddressSpace(8)
        sizes = [9_000, 5_000, 7_000]
        sp.map_segments(["a", "b", "c"], [n * PAGE_SIZE for n in sizes])
        if backing != "unbacked":
            pages = np.arange(sp.total_pages)
            if backing == "partly":
                pages = pages[rng.random(len(pages)) < 0.5]
            sp.assign_pages(pages, rng.integers(0, 8, len(pages)).astype(np.int16))
        runs, left = [], sp.total_pages
        while left:
            nodes = rng.permutation(8)[: rng.integers(1, 9)]
            block = period_block(nodes, phase=int(rng.integers(0, 8)))
            length = min(left, int(rng.integers(1, 3 * len(block) // 2)))
            runs.append((length, block))
            left -= length
        flat = materialise(runs)
        counts = None
        if with_counts:
            counts = [np.bincount(flat[s.start_page : s.end_page], minlength=8) for s in sp.segments]
        spans = _spans(runs)
        joined = [hi - lo for lo, hi, block in spans if len(block) == hi - lo]
        assert joined and max(joined) <= PERIOD_BLOCK_PAGES
        ref = copy.deepcopy(sp)
        before = sp.version
        want = flat_rebind(ref, 0, flat, counts=counts)
        assert sp.rebind(0, runs, counts=counts) == want
        for got, exp in zip(_state(sp)[:2], _state(ref)[:2]):
            np.testing.assert_array_equal(got, exp)
        assert (sp.version != before) == (ref.version != before)
        check_counts(sp)


class TestRejectedBeforeAnyWrite:
    def _space(self):
        sp = AddressSpace(3)
        sp.map_segments(["a", "b"], [5 * PAGE_SIZE, 4 * PAGE_SIZE])
        sp.set_pages(0, np.array([2, 2, 0], dtype=np.int16))
        return sp

    @pytest.mark.parametrize("bad", [3, -1])
    @pytest.mark.parametrize("counts", [None, [[3, 1, 1], [2, 1, 1]]])
    def test_out_of_range_id_in_block(self, bad, counts):
        sp = self._space()
        before = _state(sp)
        runs = [(4, period_block([0, 1])), (5, np.array([1, 2, bad], dtype=np.int16))]
        with pytest.raises(ValueError, match="invalid node ids"):
            sp.rebind(0, runs, counts=counts)
        for got, want in zip(_state(sp), before):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "counts",
        [
            [[3, 1, 0], [2, 2, 0]],  # a row sums to the wrong segment length
            [[3, 2, 0]],  # one row short
            [[3, 2], [2, 2]],  # wrong number of nodes
        ],
    )
    def test_bad_counts_row(self, counts):
        sp = self._space()
        before = _state(sp)
        with pytest.raises(ValueError, match="counts"):
            sp.rebind(0, [(9, period_block([0, 1]))], counts=counts)
        for got, want in zip(_state(sp), before):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("run", [(-1, np.array([0])), (2, np.array([], dtype=np.int16)), (2, np.zeros((1, 2)))])
    def test_malformed_run(self, run):
        sp = self._space()
        version = sp.version
        with pytest.raises(ValueError, match="run"):
            sp.rebind(0, [run])
        assert sp.version == version


class TestPeriodBlock:
    @settings(max_examples=200, deadline=None)
    @given(
        nodes=st.lists(st.integers(0, 63), min_size=1, max_size=8, unique=True),
        phase=st.integers(-(10**9), 10**9),
        n=st.integers(0, 3 * PERIOD_BLOCK_PAGES),
    )
    def test_repeated_block_is_the_interleave(self, nodes, phase, n):
        block = period_block(nodes, phase=phase)
        assert block.dtype == np.int16 and len(block) % len(nodes) == 0
        assert len(nodes) <= len(block) <= max(len(nodes), PERIOD_BLOCK_PAGES)
        out = np.full(n, UNALLOCATED, dtype=np.int16)
        tile_into(out, block)
        np.testing.assert_array_equal(out, uniform_assignment(n, nodes, phase=phase))

    @pytest.mark.parametrize("nodes", [[], [0, 0], [-1]])
    def test_rejects_bad_node_sets(self, nodes):
        with pytest.raises(ValueError):
            period_block(nodes)
