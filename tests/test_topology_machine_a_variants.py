"""The two machine-A reconstructions: matrix-calibrated vs explicit links."""

import numpy as np
import pytest

from repro.core import CanonicalTuner, bwap_init
from repro.engine import Application, Simulator
from repro.memsim import UniformAll, UniformWorkers
from repro.topology import machine_a_topological
from repro.topology.builders import MACHINE_A_BANDWIDTH_MATRIX
from repro.workloads import streamcluster


@pytest.fixture(scope="module")
def topo():
    return machine_a_topological()


class TestTopologicalReconstruction:
    def test_structure_matches(self, topo, mach_a):
        assert topo.num_nodes == mach_a.num_nodes
        assert topo.num_cores == mach_a.num_cores
        # Far fewer links than the 56 virtual channels: real shared fabric.
        assert len(topo.links) < 56

    def test_bandwidths_approximate_fig1a(self, topo):
        nm = topo.nominal_bandwidth_matrix()
        err = np.abs(nm - MACHINE_A_BANDWIDTH_MATRIX) / MACHINE_A_BANDWIDTH_MATRIX
        assert err.mean() < 0.05
        assert err.max() < 0.30
        corr = np.corrcoef(nm.ravel(), MACHINE_A_BANDWIDTH_MATRIX.ravel())[0, 1]
        assert corr > 0.99

    def test_weak_pairs_are_multi_hop(self, topo):
        # The 1.8 GB/s entries of Fig. 1a correspond to 2-hop routes.
        assert topo.route(0, 5).hops == 2
        assert topo.route(3, 0).hops == 2
        # Strong pairs are direct.
        assert topo.route(0, 1).hops == 1

    def test_multi_hop_routes_share_physical_links(self, topo):
        # Some pair of distinct multi-hop routes traverses a common link —
        # the property the matrix-calibrated machine cannot express.
        routes = [
            topo.route(s, d)
            for s in range(8)
            for d in range(8)
            if s != d and topo.route(s, d).hops > 1
        ]
        seen = {}
        shared = False
        for r in routes:
            for link in r.links:
                if link.endpoints in seen:
                    shared = True
                seen[link.endpoints] = True
        assert shared

    def test_diagonal_preserved(self, topo):
        assert np.allclose(
            np.diag(topo.nominal_bandwidth_matrix()),
            np.diag(MACHINE_A_BANDWIDTH_MATRIX),
        )


class TestBWAPOnTopologicalVariant:
    def test_policy_ordering_robust_to_machine_variant(self, topo):
        # The paper's qualitative result must not depend on which machine-A
        # reconstruction we use.
        wl = streamcluster()

        def run(policy):
            sim = Simulator(topo)
            sim.add_app(Application("a", wl, topo, (0, 1), policy=policy))
            return sim.run().execution_time("a")

        assert run(UniformAll()) < run(UniformWorkers())

    def test_bwap_beats_uniform_workers(self, topo):
        from repro.core import BWAPConfig
        from repro.perf.counters import MeasurementConfig

        wl = streamcluster()
        sim = Simulator(topo)
        sim.add_app(Application("a", wl, topo, (0, 1), policy=UniformWorkers()))
        t_uw = sim.run().execution_time("a")

        sim = Simulator(topo)
        app = sim.add_app(Application("a", wl, topo, (0, 1), policy=None))
        bwap_init(
            sim, app, canonical_tuner=CanonicalTuner(topo),
            config=BWAPConfig(measurement=MeasurementConfig(n=6, c=1, t=0.1),
                              warmup_s=0.2),
        )
        t_bwap = sim.run().execution_time("a")
        assert t_bwap < t_uw

    def test_canonical_weights_still_asymmetric(self, topo):
        w = CanonicalTuner(topo).weights((0, 1))
        assert w.max() / w.min() > 1.5
