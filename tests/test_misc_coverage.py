"""Edge cases across modules that the main suites do not reach."""

import dataclasses

import numpy as np
import pytest

from repro.core import CanonicalTuner
from repro.core.dwp import DWPTuner
from repro.engine import Application, Simulator
from repro.memsim import UniformAll
from repro.memsim.contention import solve
from repro.memsim.controller import MCModel
from repro.memsim.flows import Consumer
from repro.perf.counters import MeasurementConfig
from repro.perf.latency import LatencyModel
from repro.workloads import streamcluster

IDEAL_MC = MCModel(efficiency_floor=0.9999, contention_decay=0.0, write_cost_factor=1.0)


class TestAllocationDetails:
    def test_capacities_reported(self, mach_b):
        c = Consumer("a", 0, 4, np.eye(4)[0], 5.0)
        alloc = solve(mach_b, [c], IDEAL_MC)
        assert alloc.capacities[("mc", 0)] == pytest.approx(25.0, rel=1e-3)

    def test_bottleneck_none_when_satisfied(self, mach_b):
        c = Consumer("a", 0, 4, np.eye(4)[0], 1.0)
        alloc = solve(mach_b, [c], IDEAL_MC)
        assert alloc.bottleneck[("a", 0)] is None


class TestMultiHopLatency:
    def test_link_queueing_included_on_rings(self, ring4):
        # A loaded 2-hop path must include queueing on both links.
        lm = LatencyModel(queue_scale_ns=50.0)
        mix = np.eye(4)[2]
        heavy = Consumer("a", 0, 4, mix, float("inf"))
        light = Consumer("a", 0, 4, mix, demand=0.5)
        a_heavy = solve(ring4, [heavy], IDEAL_MC)
        a_light = solve(ring4, [light], IDEAL_MC)
        assert lm.consumer_latency_ns(ring4, heavy, a_heavy) > (
            lm.consumer_latency_ns(ring4, light, a_light) + 10.0
        )


class TestSimulatorEdges:
    def test_run_rejects_bad_max_time(self, mach_b):
        sim = Simulator(mach_b)
        sim.add_app(
            Application("a", streamcluster(), mach_b, (0,), policy=UniformAll())
        )
        with pytest.raises(ValueError):
            sim.run(max_time=0.0)

    def test_traffic_samples_carry_read_write_split(self, mach_b):
        wl = dataclasses.replace(streamcluster(), work_bytes=50e9)
        sim = Simulator(mach_b)
        sim.add_app(Application("a", wl, mach_b, (0,), policy=UniformAll()))
        res = sim.run()
        sample = res.telemetry["a"].traffic[0]
        # SC is read-dominated (70 MB/s writes vs 10 GB/s reads).
        assert sample.read_gbps > 50 * sample.write_gbps

    def test_app_accessor(self, mach_b):
        sim = Simulator(mach_b)
        app = sim.add_app(
            Application("a", streamcluster(), mach_b, (0,), policy=UniformAll())
        )
        assert sim.app("a") is app
        assert sim.apps == (app,)
        with pytest.raises(KeyError):
            sim.app("ghost")


class TestTunerEdges:
    def test_tuner_stops_when_app_finishes_early(self, mach_b, canonical_b):
        # Tiny workload: the app completes before the first measurement.
        wl = dataclasses.replace(streamcluster(), work_bytes=2e9)
        sim = Simulator(mach_b)
        app = sim.add_app(Application("a", wl, mach_b, (0,), policy=None))
        tuner = sim.add_tuner(
            DWPTuner(
                app,
                canonical_b.weights((0,)),
                config=MeasurementConfig(n=20, c=5, t=0.2),
                warmup_s=1.0,
            )
        )
        res = sim.run()
        assert res.execution_time("a") > 0
        assert tuner.final_dwp == 0.0  # never got past the initial placement

    def test_trajectory_records_acceptance(self, mach_b, canonical_b):
        wl = dataclasses.replace(streamcluster(), work_bytes=300e9)
        sim = Simulator(mach_b)
        app = sim.add_app(Application("a", wl, mach_b, (0,), policy=None))
        tuner = sim.add_tuner(
            DWPTuner(
                app,
                canonical_b.weights((0,)),
                config=MeasurementConfig(n=6, c=1, t=0.1),
                warmup_s=0.2,
            )
        )
        sim.run()
        assert tuner.trajectory[0].accepted  # the baseline point
        dwps = [s.dwp for s in tuner.trajectory]
        assert dwps == sorted(dwps)
        # Any rejected decision must be the last one (the climb stops there).
        rejected = [i for i, s in enumerate(tuner.trajectory) if not s.accepted]
        assert all(i == len(tuner.trajectory) - 1 for i in rejected)


class TestCanonicalProfileShape:
    def test_profile_worker_columns_positive(self, mach_a):
        t = CanonicalTuner(mach_a)
        p = t.bw_profile((0, 4))
        assert (p[:, [0, 4]] > 0).all()
        assert (p[:, [1, 2, 3, 5, 6, 7]] == 0).all()
