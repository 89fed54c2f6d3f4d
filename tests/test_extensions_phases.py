"""Phased workloads and phase-changing applications (paper Section VI)."""

import dataclasses

import pytest

from repro.engine import PhasedApplication, Simulator
from repro.workloads import (
    Phase,
    PhasedWorkload,
    ocean_cp,
    streamcluster,
    two_phase,
)
from repro.memsim import UniformAll


def short(spec, work=60e9):
    return dataclasses.replace(spec, work_bytes=work)


class TestPhasedWorkload:
    def test_phase_selection_by_progress(self):
        pw = two_phase("x", streamcluster(), ocean_cp(), split=0.4)
        assert pw.phase_at(0.0).spec.name == "SC"
        assert pw.phase_at(0.39).spec.name == "SC"
        assert pw.phase_at(0.41).spec.name == "OC"
        assert pw.phase_at(1.0).spec.name == "OC"

    def test_boundaries(self):
        pw = PhasedWorkload(
            "x",
            [(streamcluster(), 0.25), (ocean_cp(), 0.25), (streamcluster(), 0.5)],
        )
        assert pw.boundaries() == pytest.approx([0.25, 0.5])
        assert pw.num_phases == 3

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PhasedWorkload("x", [(streamcluster(), 0.5), (ocean_cp(), 0.4)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PhasedWorkload("x", [])

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            Phase(streamcluster(), 0.0)

    def test_two_phase_validates_split(self):
        with pytest.raises(ValueError):
            two_phase("x", streamcluster(), ocean_cp(), split=1.0)

    def test_phase_at_validates(self):
        pw = two_phase("x", streamcluster(), ocean_cp())
        with pytest.raises(ValueError):
            pw.phase_at(-0.1)


class TestPhasedApplication:
    def test_workload_switches_with_progress(self, mach_b):
        pw = two_phase("x", short(streamcluster()), short(ocean_cp()), split=0.5)
        app = PhasedApplication("p", pw, mach_b, (0,), policy=UniformAll())
        assert app.workload.name == "SC"
        assert app.current_phase_index == 0
        # Complete 60% of the work: now in the OC phase.
        for w in app.worker_nodes:
            app.advance(w, 0.6 * app.remaining(w) / 1.0)
        assert app.done_fraction == pytest.approx(0.6)
        assert app.workload.name == "OC"
        assert app.current_phase_index == 1

    def test_demand_changes_at_phase_boundary(self, mach_b):
        low = dataclasses.replace(short(streamcluster()), read_bw_node=2.0, write_bw_node=0.1)
        high = short(ocean_cp())
        pw = two_phase("x", low, high, split=0.5)
        app = PhasedApplication("p", pw, mach_b, (0,), policy=UniformAll())
        d_first = app.node_demand(0)
        for w in app.worker_nodes:
            app.advance(w, 0.7 * app.remaining(w))
        d_second = app.node_demand(0)
        assert d_second > d_first * 3

    def test_runs_to_completion_in_simulator(self, mach_b):
        pw = two_phase("x", short(streamcluster()), short(ocean_cp()))
        sim = Simulator(mach_b)
        sim.add_app(PhasedApplication("p", pw, mach_b, (0,), policy=UniformAll()))
        res = sim.run()
        assert res.execution_time("p") > 0

    def test_private_segments_from_first_phase(self, mach_b):
        # SC has tiny private segments; the address space is shaped by the
        # first phase even though the second phase is private-heavy.
        pw = two_phase("x", short(streamcluster()), short(ocean_cp()))
        app = PhasedApplication("p", pw, mach_b, (0,), policy=None)
        priv = [s for s in app.space.segments if s.name.startswith("private-")]
        expected_pages = streamcluster().private_bytes_per_thread // 4096
        assert all(s.num_pages == expected_pages for s in priv)
