"""Machine model and the paper's machine builders."""

import numpy as np
import pytest

from repro.topology import Link, Machine
from repro.topology.builders import (
    MACHINE_A_BANDWIDTH_MATRIX,
    dual_socket,
    from_bandwidth_matrix,
    fully_connected,
    machine_a_matrix,
    mesh,
    ring,
)
from repro.topology.node import make_node


class TestMachineStructure:
    def test_counts(self, mach_a):
        assert mach_a.num_nodes == 8
        assert mach_a.num_cores == 64
        assert mach_a.cores_per_node() == 8

    def test_machine_b_counts(self, mach_b):
        assert mach_b.num_nodes == 4
        assert mach_b.num_cores == 28  # 7 cores per CoD node

    def test_node_lookup(self, mach_a):
        assert mach_a.node(3).node_id == 3
        with pytest.raises(KeyError):
            mach_a.node(99)

    def test_core_to_node(self, mach_a):
        assert mach_a.node_of_core(0) == 0
        assert mach_a.node_of_core(63) == 7
        with pytest.raises(KeyError):
            mach_a.node_of_core(64)

    def test_total_memory(self, mach_a):
        assert mach_a.total_memory_bytes() == 8 * 8 * 1024**3

    def test_worker_sets_of_size(self, mach_b):
        sets = mach_b.worker_sets_of_size(2)
        assert len(sets) == 6
        assert all(len(s) == 2 for s in sets)
        with pytest.raises(ValueError):
            mach_b.worker_sets_of_size(0)

    def test_rejects_bad_node_ids(self):
        nodes = [make_node(1, 1, 5.0)]  # ids must start at 0
        with pytest.raises(ValueError):
            Machine(nodes, [])

    def test_rejects_duplicate_links(self):
        nodes = [make_node(0, 1, 5.0), make_node(1, 1, 5.0, first_core_id=1)]
        links = [Link(0, 1, 1.0), Link(1, 0, 1.0), Link(0, 1, 2.0)]
        with pytest.raises(ValueError):
            Machine(nodes, links)

    def test_rejects_disconnected(self):
        nodes = [make_node(i, 1, 5.0, first_core_id=i) for i in range(3)]
        links = [Link(0, 1, 1.0), Link(1, 0, 1.0)]  # node 2 unreachable
        with pytest.raises(ValueError):
            Machine(nodes, links)


class TestBandwidthCharacterisation:
    def test_fig1a_reproduced_exactly(self, mach_a):
        assert np.allclose(mach_a.nominal_bandwidth_matrix(), MACHINE_A_BANDWIDTH_MATRIX)

    def test_machine_a_matrix_is_copy(self):
        m = machine_a_matrix()
        m[0, 0] = 0.0
        assert MACHINE_A_BANDWIDTH_MATRIX[0, 0] == 9.2

    def test_asymmetry_amplitudes_match_paper(self, mach_a, mach_b):
        # Paper Section IV: 5.8x on machine A, 2.3x on machine B.
        assert mach_a.asymmetry_amplitude() == pytest.approx(5.8, abs=0.1)
        assert mach_b.asymmetry_amplitude() == pytest.approx(2.3, abs=0.1)

    def test_local_exceeds_remote(self, mach_a):
        m = mach_a.nominal_bandwidth_matrix()
        for i in range(8):
            row = np.delete(m[i], i)
            assert m[i, i] > row.max()

    def test_direction_dependent_bandwidth(self, mach_a):
        # Fig. 1a: bw(N1->N5) = 2.8 but bw(N5->N1) = 4.0.
        assert mach_a.nominal_bandwidth(0, 4) == pytest.approx(2.8)
        assert mach_a.nominal_bandwidth(4, 0) == pytest.approx(4.0)

    def test_latency_grows_with_distance(self, mach_a):
        local = mach_a.access_latency_ns(0, 0)
        near = mach_a.access_latency_ns(0, 1)   # strong direct link
        far = mach_a.access_latency_ns(0, 5)    # weak, 2-hop-class path
        assert local < near < far

    def test_ingress_capacity(self, mach_a):
        assert mach_a.ingress_capacity(0) == pytest.approx(9.2)

    def test_ingress_disabled(self):
        m = fully_connected(2)
        m.remote_ingress_factor = None
        assert m.ingress_capacity(0) == float("inf")


class TestBuilders:
    def test_from_matrix_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            from_bandwidth_matrix(np.ones((2, 3)))

    def test_from_matrix_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            from_bandwidth_matrix(np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_from_matrix_rejects_remote_over_local(self):
        m = np.array([[5.0, 9.0], [9.0, 5.0]])
        with pytest.raises(ValueError):
            from_bandwidth_matrix(m)

    def test_from_matrix_reproduces_input(self):
        m = np.array([[20.0, 8.0], [8.0, 20.0]])
        mach = from_bandwidth_matrix(m, cores_per_node=4)
        assert np.allclose(mach.nominal_bandwidth_matrix(), m)

    def test_dual_socket_structure(self):
        m = dual_socket(nodes_per_socket=2, local_bw=25, intra_socket_bw=16, inter_socket_bw=11)
        assert m.num_nodes == 4
        assert m.nominal_bandwidth(0, 1) == pytest.approx(16)
        assert m.nominal_bandwidth(0, 2) == pytest.approx(11)

    def test_fully_connected_symmetric(self):
        m = fully_connected(4, local_bw=20, remote_bw=10)
        mat = m.nominal_bandwidth_matrix()
        assert np.allclose(mat, mat.T)

    def test_single_node_machine(self):
        m = fully_connected(1)
        assert m.num_nodes == 1
        assert m.nominal_bandwidth(0, 0) == 20.0

    def test_ring_multi_hop(self):
        m = ring(5, link_bw=8.0, hop_efficiency=0.7)
        r = m.route(0, 2)
        assert r.hops == 2
        # Multi-hop efficiency derates the nominal bandwidth.
        assert m.nominal_bandwidth(0, 2) == pytest.approx(8.0 * 0.7)

    def test_ring_rejects_too_small(self):
        with pytest.raises(ValueError):
            ring(1)

    def test_mesh_shape(self):
        m = mesh(2, 3)
        assert m.num_nodes == 6
        # Opposite corners are 3 hops apart in a 2x3 mesh.
        assert m.route(0, 5).hops == 3

    def test_mesh_rejects_single_node(self):
        with pytest.raises(ValueError):
            mesh(1, 1)

    def test_machine_b_socket_assignment(self, mach_b):
        assert mach_b.node(0).socket_id == mach_b.node(1).socket_id
        assert mach_b.node(0).socket_id != mach_b.node(2).socket_id

    def test_machine_b_intra_faster_than_inter(self, mach_b):
        assert mach_b.nominal_bandwidth(0, 1) > mach_b.nominal_bandwidth(0, 2)
