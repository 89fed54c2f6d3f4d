"""The Carrefour-like baseline (paper [21])."""

import pytest

from repro.engine import Application, Simulator
from repro.memsim import CarrefourLike, UniformWorkers
from repro.units import MiB
from repro.workloads import streamcluster, sp_b
from repro.workloads.base import WorkloadSpec


def wl(write_ratio=0.0, private=0.3, **kw):
    read = 10.0
    base = dict(
        name="t",
        read_bw_node=read,
        write_bw_node=read * write_ratio,
        private_fraction=private,
        latency_weight=0.2,
        shared_bytes=32 * MiB,
        private_bytes_per_thread=4 * MiB,
        work_bytes=120e9,
    )
    base.update(kw)
    return WorkloadSpec(**base)


class TestClassification:
    def test_read_mostly_replicates(self, mach_b):
        app = Application("a", wl(write_ratio=0.0), mach_b, (0, 1), policy=CarrefourLike())
        assert app.policy.replicates_shared

    def test_write_heavy_interleaves(self, mach_b):
        app = Application("a", wl(write_ratio=0.5), mach_b, (0, 1), policy=CarrefourLike())
        assert not app.policy.replicates_shared
        shared = app.space.page_nodes(app.space.segment("shared"))
        assert set(shared) == {0, 1}

    def test_private_colocated_either_way(self, mach_b):
        for ratio in (0.0, 0.5):
            app = Application(
                "a", wl(write_ratio=ratio), mach_b, (0, 1), policy=CarrefourLike()
            )
            assert app.private_distribution(1)[1] == pytest.approx(1.0)

    def test_threshold_configurable(self, mach_b):
        lax = CarrefourLike(replication_write_threshold=0.6)
        app = Application("a", wl(write_ratio=0.5), mach_b, (0, 1), policy=lax)
        assert app.policy.replicates_shared

    def test_unclassified_defaults_to_interleave(self, mach_b):
        from repro.memsim import AddressSpace, PlacementContext

        pol = CarrefourLike()
        space = AddressSpace(4)
        space.map_segment("s", 32 * MiB)
        ctx = PlacementContext(4, (0, 1), (0, 1), 0)
        pol.place(space, ctx)
        assert not pol.replicates_shared

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            CarrefourLike(replication_write_threshold=1.0)


class TestEndToEnd:
    def test_carrefour_improves_on_uniform_workers(self, mach_a):
        # The co-location + replication optimisations help — that is why
        # Carrefour ships them.
        workload = streamcluster()

        def run(policy):
            sim = Simulator(mach_a)
            sim.add_app(Application("a", workload, mach_a, (0, 1), policy=policy))
            return sim.run().execution_time("a")

        assert run(CarrefourLike()) < run(UniformWorkers())

    def test_bwap_still_beats_carrefour_on_asymmetric_machine(self, mach_a):
        # ...but they never touch non-worker bandwidth or asymmetry: the
        # gap BWAP exploits (the paper's core claim vs Carrefour).
        from repro.core import BWAPConfig, CanonicalTuner, bwap_init
        from repro.perf.counters import MeasurementConfig

        workload = streamcluster()
        sim = Simulator(mach_a)
        sim.add_app(Application("a", workload, mach_a, (0, 1), policy=CarrefourLike()))
        t_car = sim.run().execution_time("a")

        sim = Simulator(mach_a)
        app = sim.add_app(Application("a", workload, mach_a, (0, 1), policy=None))
        bwap_init(
            sim, app, canonical_tuner=CanonicalTuner(mach_a),
            config=BWAPConfig(measurement=MeasurementConfig(n=6, c=1, t=0.1),
                              warmup_s=0.2),
        )
        t_bwap = sim.run().execution_time("a")
        assert t_bwap < t_car

    def test_write_heavy_app_runs(self, mach_b):
        # SP.B (31% writes) falls back to uniform-workers interleaving.
        sim = Simulator(mach_b)
        app = sim.add_app(Application("a", sp_b(), mach_b, (0,), policy=CarrefourLike()))
        assert not app.policy.replicates_shared
        assert sim.run().execution_time("a") > 0
