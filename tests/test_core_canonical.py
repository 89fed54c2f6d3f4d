"""Canonical tuner: Eq. 2/5, profiling, caching, symmetry."""

import numpy as np
import pytest

from repro.core.canonical import (
    CanonicalTuner,
    minimum_bandwidths,
    weights_from_bandwidths,
)
from repro.topology import dual_socket, fully_connected


class TestMinimumBandwidths:
    def test_single_worker_is_column(self, mach_a):
        m = mach_a.nominal_bandwidth_matrix()
        assert minimum_bandwidths(m, [0]) == pytest.approx(m[:, 0])

    def test_multi_worker_takes_weakest_path(self):
        m = np.array([[10.0, 4.0], [3.0, 10.0]])
        got = minimum_bandwidths(m, [0, 1])
        assert got == pytest.approx([4.0, 3.0])

    def test_rejects_empty_workers(self, mach_a):
        with pytest.raises(ValueError):
            minimum_bandwidths(mach_a.nominal_bandwidth_matrix(), [])

    def test_rejects_out_of_range(self, mach_a):
        with pytest.raises(ValueError):
            minimum_bandwidths(mach_a.nominal_bandwidth_matrix(), [9])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            minimum_bandwidths(np.ones((2, 3)), [0])


class TestWeightsFromBandwidths:
    def test_eq2_normalisation(self):
        w = weights_from_bandwidths(np.array([6.0, 3.0, 1.0]))
        assert w == pytest.approx([0.6, 0.3, 0.1])
        assert w.sum() == pytest.approx(1.0)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            weights_from_bandwidths(np.zeros(3))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            weights_from_bandwidths(np.array([1.0, -1.0]))


class TestCanonicalTuner:
    def test_weights_sum_to_one(self, canonical_a, mach_a):
        for size in (1, 2, 4):
            w = canonical_a.weights(mach_a.worker_sets_of_size(size)[0])
            assert w.sum() == pytest.approx(1.0)
            assert (w >= 0).all()

    def test_weights_cover_all_nodes(self, canonical_a):
        # Observation 1: pages are placed across all nodes, not just workers.
        w = canonical_a.weights([0, 1])
        assert (w > 0).all()

    def test_weights_asymmetric_on_machine_a(self, canonical_a):
        # Observation 2: the distribution is uneven on asymmetric machines.
        w = canonical_a.weights([0, 1])
        assert w.max() / w.min() > 1.5

    def test_workers_weighted_above_average(self, canonical_a):
        w = canonical_a.weights([0, 1])
        assert w[0] > 1 / 8 and w[1] > 1 / 8

    def test_symmetric_machine_equalises_non_workers(self):
        m = fully_connected(4, local_bw=20, remote_bw=20)
        t = CanonicalTuner(m)
        w = t.weights([0])
        # Perfect symmetry among non-workers must survive profiling; the
        # worker keeps a larger share because all remote traffic funnels
        # through its ingress port.
        assert w[1] == pytest.approx(w[2]) == pytest.approx(w[3])
        assert w[0] >= w[1]

    def test_worker_order_irrelevant(self, canonical_a):
        assert canonical_a.weights([1, 0]) == pytest.approx(canonical_a.weights([0, 1]))

    def test_worker_mass(self, canonical_a):
        mass = canonical_a.worker_mass([0, 1])
        w = canonical_a.weights([0, 1])
        assert mass == pytest.approx(w[0] + w[1])

    def test_profile_cached(self, mach_a):
        t = CanonicalTuner(mach_a)
        p1 = t.bw_profile([0])
        p2 = t.bw_profile([0])
        assert p1 is p2

    def test_weights_returns_copy(self, canonical_a):
        w = canonical_a.weights([0])
        w[0] = 99.0
        assert canonical_a.weights([0])[0] != 99.0

    def test_rejects_bad_worker_set(self, canonical_a):
        with pytest.raises(ValueError):
            canonical_a.weights([])
        with pytest.raises(ValueError):
            canonical_a.weights([0, 0])
        with pytest.raises(ValueError):
            canonical_a.weights([99])


class TestSymmetryPrecompute:
    def test_symmetric_sets_filled_without_profiling(self):
        # A dual-socket box: worker {0} and worker {1} are relabellings.
        m = dual_socket(nodes_per_socket=2, cores_per_node=4)
        t = CanonicalTuner(m)
        runs = t.precompute(sizes=[1], use_symmetry=True)
        assert runs < 4  # fewer profiling runs than worker sets

    def test_symmetry_produces_correct_weights(self):
        m = dual_socket(nodes_per_socket=2, cores_per_node=4)
        fast = CanonicalTuner(m)
        fast.precompute(sizes=[1], use_symmetry=True)
        slow = CanonicalTuner(m)
        for node in range(4):
            assert fast.weights([node]) == pytest.approx(
                slow.weights([node]), abs=1e-9
            ), f"worker set {{{node}}} mismatch"

    def test_precompute_without_symmetry(self, mach_b):
        t = CanonicalTuner(mach_b)
        runs = t.precompute(sizes=[1], use_symmetry=False)
        assert runs == 4

    def test_tends_to_uniformity_with_more_workers(self, canonical_a, mach_a):
        # Section IV-A: inter-worker canonical weights tend to uniformity
        # as the worker set grows.
        def worker_cv(workers):
            w = canonical_a.weights(workers)[list(workers)]
            return np.std(w) / np.mean(w)

        cv2 = worker_cv((0, 1))
        cv8 = worker_cv(tuple(range(8)))
        assert cv8 < cv2 + 0.05
