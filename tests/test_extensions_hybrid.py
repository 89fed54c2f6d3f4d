"""Hybrid DRAM/NVM NUMA machines (paper Section VI)."""

import pytest

from repro.core import CanonicalTuner, bwap_init
from repro.engine import Application, Simulator, pick_worker_nodes
from repro.memsim import UniformAll
from repro.topology import hybrid_dram_nvm
from repro.workloads import canonical_stream, streamcluster


@pytest.fixture(scope="module")
def hybrid():
    return hybrid_dram_nvm()


class TestHybridTopology:
    def test_structure(self, hybrid):
        assert hybrid.num_nodes == 4
        assert hybrid.node(0).num_cores == 8
        assert hybrid.node(2).num_cores == 0  # memory-only NVM node
        assert hybrid.num_cores == 16

    def test_nvm_bandwidth_lower(self, hybrid):
        assert hybrid.node(2).local_bandwidth < hybrid.node(0).local_bandwidth

    def test_nvm_latency_higher(self, hybrid):
        assert hybrid.access_latency_ns(2, 0) > hybrid.access_latency_ns(1, 0)

    def test_nvm_capacity_counts(self, hybrid):
        assert hybrid.total_memory_bytes() == 4 * hybrid.node(0).memory_bytes

    def test_validation(self):
        with pytest.raises(ValueError):
            hybrid_dram_nvm(dram_nodes=0)
        with pytest.raises(ValueError):
            hybrid_dram_nvm(nvm_bw=30.0, dram_bw=25.0)
        with pytest.raises(ValueError):
            hybrid_dram_nvm(nvm_nodes=-1)

    def test_workers_cannot_be_memory_only(self, hybrid):
        with pytest.raises(ValueError):
            # pin_threads finds no cores on the NVM nodes.
            Application("a", streamcluster(), hybrid, (2,), policy=None)


class TestBWAPOnHybrid:
    def test_canonical_downweights_nvm(self, hybrid):
        # The tiered-memory principle (paper [11], [23], [43]): place fewer
        # pages on the lower-bandwidth memory, proportionally.
        ct = CanonicalTuner(hybrid)
        w = ct.weights((0, 1))
        assert w[2] < w[0] and w[3] < w[1]
        assert w[2] > 0  # but NVM bandwidth is still harvested

    def test_bwap_beats_uniform_all_on_hybrid(self, hybrid):
        # Uniform interleaving over-commits the slow NVM; BWAP's weighted
        # placement must win on a machine this heterogeneous.
        wl = canonical_stream()
        workers = pick_worker_nodes(hybrid, 2)

        sim = Simulator(hybrid)
        sim.add_app(Application("a", wl, hybrid, workers, policy=UniformAll()))
        t_uniform = sim.run().execution_time("a")

        sim = Simulator(hybrid)
        app = sim.add_app(Application("a", wl, hybrid, workers, policy=None))
        bwap_init(sim, app, canonical_tuner=CanonicalTuner(hybrid))
        t_bwap = sim.run().execution_time("a")
        assert t_bwap < t_uniform

    def test_worker_selection_avoids_nvm(self, hybrid):
        assert pick_worker_nodes(hybrid, 2) == (0, 1)
