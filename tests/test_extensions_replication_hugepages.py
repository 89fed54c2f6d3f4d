"""Read-only replication (Carrefour, paper §V) and huge pages (paper §IV)."""

import dataclasses

import numpy as np
import pytest

from repro.engine import Application, Simulator
from repro.memsim import ReplicatedShared, UniformAll
from repro.units import MiB, PAGE_SIZE
from repro.workloads import ocean_cp, streamcluster
from repro.workloads.base import WorkloadSpec


def read_only_workload(**kw):
    base = dict(
        name="ro",
        read_bw_node=12.0,
        write_bw_node=0.1,
        private_fraction=0.1,
        latency_weight=0.4,
        shared_bytes=64 * MiB,
        private_bytes_per_thread=4 * MiB,
        work_bytes=150e9,
    )
    base.update(kw)
    return WorkloadSpec(**base)


class TestReplicatedShared:
    def test_primary_copy_on_first_worker(self, mach_b):
        app = Application(
            "a", read_only_workload(), mach_b, (0, 1), policy=ReplicatedShared()
        )
        shared = app.space.page_nodes(app.space.segment("shared"))
        assert (shared == 0).all()

    def test_private_colocated(self, mach_b):
        app = Application(
            "a", read_only_workload(), mach_b, (0, 1), policy=ReplicatedShared()
        )
        dist = app.private_distribution(1)
        assert dist[1] == pytest.approx(1.0)

    def test_shared_reads_served_locally(self, mach_b):
        # The engine recognises replicates_shared: every worker's shared
        # component of the mix is its own node.
        app = Application(
            "a", read_only_workload(), mach_b, (0, 1), policy=ReplicatedShared()
        )
        for nd in (0, 1):
            mix = app.traffic_mix(nd)
            assert mix[nd] == pytest.approx(1.0)

    def test_rejects_write_heavy_workload(self, mach_b):
        with pytest.raises(ValueError):
            Application("a", ocean_cp(), mach_b, (0, 1), policy=ReplicatedShared())

    def test_write_threshold_configurable(self, mach_b):
        lax = ReplicatedShared(max_write_fraction=0.5)
        Application("a", ocean_cp(), mach_b, (0, 1), policy=lax)  # no raise

    def test_memory_overhead(self, mach_b):
        app = Application(
            "a", read_only_workload(), mach_b, (0, 1), policy=ReplicatedShared()
        )
        overhead = ReplicatedShared.memory_overhead_bytes(app.space, app.ctx)
        assert overhead == app.space.segment("shared").size_bytes  # (2-1) replicas

    def test_replication_beats_interleaving_for_latency_bound(self, mach_b):
        # A latency-leaning read-only workload: local replicas remove all
        # remote shared accesses, beating any interleave.
        wl = read_only_workload()

        def run(policy):
            sim = Simulator(mach_b)
            sim.add_app(Application("a", wl, mach_b, (0, 1), policy=policy))
            return sim.run().execution_time("a")

        assert run(ReplicatedShared()) < run(UniformAll())

    def test_replication_loses_when_bandwidth_bound(self, mach_a):
        # A bandwidth-starved workload on the asymmetric machine: replicas
        # confine traffic to the workers' controllers, losing to placement
        # that harvests non-worker bandwidth — why replication alone is not
        # a substitute for BWAP (they are complementary, paper Section V).
        wl = read_only_workload(
            read_bw_node=22.0, latency_weight=0.05, work_bytes=300e9
        )

        def run(policy):
            sim = Simulator(mach_a)
            sim.add_app(Application("a", wl, mach_a, (0, 1), policy=policy))
            return sim.run().execution_time("a")

        assert run(UniformAll()) < run(ReplicatedShared())

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicatedShared(max_write_fraction=1.0)


class TestHugePages:
    def test_page_count_scales_down(self, mach_b):
        wl = read_only_workload()
        small = Application("a", wl, mach_b, (0,), policy=None)
        huge = Application("b", wl, mach_b, (0,), policy=None, page_size=2 * MiB)
        assert huge.space.total_pages * 512 == small.space.total_pages

    def test_address_space_rejects_bad_page_size(self):
        from repro.memsim import AddressSpace

        with pytest.raises(ValueError):
            AddressSpace(2, page_size=5000)
        with pytest.raises(ValueError):
            AddressSpace(2, page_size=0)

    def test_weighted_interleave_coarser_with_huge_pages(self, mach_a):
        # Fewer pages -> the weighted placement is less accurate: this is
        # the granularity hazard behind "large pages may be harmful" [14].
        from repro.core.interleave import apply_weighted_user, placement_error
        from repro.memsim import AddressSpace

        w = np.array([0.31, 0.23, 0.17, 0.09, 0.06, 0.05, 0.05, 0.04])
        err = {}
        for ps in (PAGE_SIZE, 2 * MiB):
            space = AddressSpace(8, page_size=ps)
            seg = space.map_segment("s", 256 * MiB)
            apply_weighted_user(space, seg, w)
            err[ps] = placement_error(space, w)
        assert err[2 * MiB] >= err[PAGE_SIZE]

    def test_migration_cost_higher_per_huge_page(self, mach_b):
        sim = Simulator(mach_b)
        app4k = sim.add_app(
            Application("a", read_only_workload(), mach_b, (0,), policy=None)
        )
        app2m = sim.add_app(
            Application(
                "b", read_only_workload(), mach_b, (0,), policy=None,
                page_size=2 * MiB,
            )
        )
        cost4k = sim.charge_migration(app4k, 100)
        cost2m = sim.charge_migration(app2m, 100)
        assert cost2m > cost4k * 50

    def test_bwap_runs_with_huge_pages(self, mach_a):
        from repro.core import BWAPConfig, CanonicalTuner, bwap_init
        from repro.perf.counters import MeasurementConfig

        wl = dataclasses.replace(streamcluster(), work_bytes=200e9)
        sim = Simulator(mach_a)
        app = sim.add_app(
            Application("a", wl, mach_a, (0, 1), policy=None, page_size=2 * MiB)
        )
        tuner = bwap_init(
            sim, app, canonical_tuner=CanonicalTuner(mach_a),
            config=BWAPConfig(measurement=MeasurementConfig(n=6, c=1, t=0.1),
                              warmup_s=0.2),
        )
        res = sim.run()
        assert tuner.is_settled()
        assert res.execution_time("a") > 0
