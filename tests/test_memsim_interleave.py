"""Uniform and weighted page-assignment generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.interleave import weighted_assignment, weighted_counts
from tests.oracle.flat_rebind import uniform_assignment


class TestUniformAssignment:
    def test_round_robin(self):
        a = uniform_assignment(6, [0, 1, 2])
        assert list(a) == [0, 1, 2, 0, 1, 2]

    def test_phase_offsets(self):
        a = uniform_assignment(4, [0, 1], phase=1)
        assert list(a) == [1, 0, 1, 0]

    def test_counts_balanced_within_one(self):
        a = uniform_assignment(10, [0, 1, 2])
        counts = np.bincount(a, minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_zero_pages(self):
        assert len(uniform_assignment(0, [0, 1])) == 0

    def test_rejects_empty_nodes(self):
        with pytest.raises(ValueError):
            uniform_assignment(4, [])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            uniform_assignment(4, [0, 0, 1])

    def test_rejects_negative_pages(self):
        with pytest.raises(ValueError):
            uniform_assignment(-1, [0])


def _uniform_reference(num_pages, nodes, phase):
    """Round-robin by page index: page i lands on nodes[(i + phase) % m]."""
    nodes = np.asarray(nodes, dtype=np.int16)
    return nodes[(np.arange(num_pages) + phase) % len(nodes)]


class TestUniformAssignmentDifferential:
    @settings(max_examples=300, deadline=None)
    @given(
        num_pages=st.integers(min_value=0, max_value=200),
        nodes=st.lists(
            st.integers(min_value=0, max_value=63), min_size=1, max_size=8, unique=True
        ),
        phase=st.integers(min_value=-(10**9), max_value=10**9),
    )
    def test_matches_reference(self, num_pages, nodes, phase):
        got = uniform_assignment(num_pages, nodes, phase=phase)
        want = _uniform_reference(num_pages, nodes, phase)
        assert got.dtype == np.int16
        assert got.shape == (num_pages,)
        np.testing.assert_array_equal(got, want)

    def test_every_node_count_and_sign_of_phase(self):
        for m in range(1, 9):
            nodes = list(range(m))[::-1]
            for phase in (-17, -8, -1, 0, 3, 8, 2**40 + 5):
                for num_pages in (0, 1, m - 1, m, m + 1, 5 * m + 3):
                    got = uniform_assignment(num_pages, nodes, phase=phase)
                    assert got.dtype == np.int16 and got.shape == (num_pages,)
                    want = _uniform_reference(num_pages, nodes, phase)
                    np.testing.assert_array_equal(got, want)


class TestWeightedCounts:
    def test_exact_total(self):
        counts = weighted_counts(100, [0.5, 0.3, 0.2])
        assert counts.sum() == 100
        assert list(counts) == [50, 30, 20]

    def test_largest_remainder(self):
        counts = weighted_counts(10, [1, 1, 1])
        assert counts.sum() == 10
        assert counts.max() - counts.min() <= 1

    def test_within_one_page_of_ideal(self):
        w = np.array([0.37, 0.13, 0.29, 0.21])
        counts = weighted_counts(997, w)
        ideal = w * 997
        assert (np.abs(counts - ideal) < 1.0).all()

    def test_zero_weight_gets_nothing(self):
        counts = weighted_counts(10, [1.0, 0.0])
        assert list(counts) == [10, 0]

    def test_unnormalised_weights_ok(self):
        assert list(weighted_counts(10, [2, 2])) == [5, 5]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            weighted_counts(10, [-1, 2])

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            weighted_counts(10, [0, 0])

    def test_deterministic_tiebreak(self):
        a = weighted_counts(1, [1, 1, 1])
        b = weighted_counts(1, [1, 1, 1])
        assert list(a) == list(b) == [1, 0, 0]


class TestWeightedAssignment:
    def test_counts_match_weights(self):
        a = weighted_assignment(1000, [0.6, 0.4])
        counts = np.bincount(a, minlength=2)
        assert list(counts) == [600, 400]

    def test_interspersion_prefix_property(self):
        # Every prefix should stay close to the target ratio — the whole
        # point of the kernel policy's fine-grained interleave.
        a = weighted_assignment(1000, [0.75, 0.25])
        prefix = a[:100]
        share = (prefix == 0).mean()
        assert 0.65 <= share <= 0.85

    def test_custom_node_ids(self):
        a = weighted_assignment(10, [0.5, 0.5], nodes=[3, 7])
        assert set(a) == {3, 7}

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            weighted_assignment(10, [0.5, 0.5], nodes=[1])

    def test_zero_weight_node_excluded(self):
        a = weighted_assignment(100, [0.5, 0.0, 0.5])
        assert 1 not in set(a)

    def test_zero_pages(self):
        assert len(weighted_assignment(0, [1.0])) == 0

    def test_single_node(self):
        a = weighted_assignment(5, [1.0], nodes=[2])
        assert list(a) == [2] * 5
