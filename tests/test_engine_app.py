"""Application model: address-space layout, mixes, demand, progress."""

import numpy as np
import pytest

from repro.engine.app import Application
from repro.memsim import FirstTouch, UniformAll, WeightedInterleave
from repro.workloads.base import WorkloadSpec
from repro.units import MiB
from tests.oracle.page_counts import traffic_mix_reference


def small_workload(**kw):
    base = dict(
        name="t",
        read_bw_node=8.0,
        write_bw_node=2.0,
        private_fraction=0.5,
        latency_weight=0.1,
        shared_bytes=16 * MiB,
        private_bytes_per_thread=4 * MiB,
        work_bytes=1e9,
    )
    base.update(kw)
    return WorkloadSpec(**base)


class TestConstruction:
    def test_address_space_layout(self, mach_b):
        app = Application("x", small_workload(), mach_b, (0,), policy=None)
        names = [s.name for s in app.space.segments]
        assert names[0] == "shared"
        assert len([n for n in names if n.startswith("private-")]) == app.num_threads

    def test_one_page_table_allocation(self, mach_b):
        """The shared then the private segments, back to back, mapped with
        one call: one version bump and a buffer of exactly their pages."""
        app = Application("x", small_workload(), mach_b, (0,), num_threads=2, policy=None)
        segs = app.space.segments
        assert [(s.name, s.start_page, s.num_pages, s.owner_thread) for s in segs] == [
            ("shared", 0, 4096, None),
            ("private-0", 4096, 1024, 0),
            ("private-1", 5120, 1024, 1),
        ]
        assert app.space.version == 1
        # Mapping the private segments in a second call would have doubled
        # the buffer to 8192 entries.
        assert len(app.space._buf) == app.space.total_pages == 6144

    def test_no_private_segment_when_zero(self, mach_b):
        wl = small_workload(private_bytes_per_thread=0, private_fraction=0.0)
        app = Application("x", wl, mach_b, (0,), policy=None)
        assert len(app.space.segments) == 1

    def test_policy_applied_at_construction(self, mach_b):
        app = Application("x", small_workload(), mach_b, (0, 1), policy=FirstTouch())
        shared = app.space.page_nodes(app.space.segment("shared"))
        assert (shared == 0).all()

    def test_threads_default_full_nodes(self, mach_b):
        app = Application("x", small_workload(), mach_b, (0, 1), policy=None)
        assert app.num_threads == 14

    def test_duplicate_worker_rejected(self, mach_b):
        with pytest.raises(ValueError):
            Application("x", small_workload(), mach_b, (0, 0), policy=None)


class TestTrafficMix:
    def test_unplaced_space_has_zero_mix(self, mach_b):
        app = Application("x", small_workload(), mach_b, (0,), policy=None)
        assert (app.traffic_mix(0) == 0).all()

    def test_first_touch_mix_is_local(self, mach_b):
        app = Application("x", small_workload(), mach_b, (0,), policy=FirstTouch())
        assert app.traffic_mix(0) == pytest.approx(np.eye(4)[0])

    def test_mix_composes_private_and_shared(self, mach_b):
        # Shared centralised on node 0 (first-touch), private on owners.
        wl = small_workload(private_fraction=0.5)
        app = Application("x", wl, mach_b, (0, 1), policy=FirstTouch())
        mix1 = app.traffic_mix(1)
        # Node 1's threads: 50% private (on node 1) + 50% shared (on node 0).
        assert mix1[0] == pytest.approx(0.5, abs=0.01)
        assert mix1[1] == pytest.approx(0.5, abs=0.01)

    def test_uniform_all_mix(self, mach_b):
        app = Application("x", small_workload(), mach_b, (0,), policy=UniformAll())
        assert app.traffic_mix(0) == pytest.approx(np.full(4, 0.25), abs=0.01)

    def test_mix_sums_to_one_when_placed(self, mach_b):
        w = np.array([0.4, 0.3, 0.2, 0.1])
        app = Application(
            "x", small_workload(), mach_b, (0, 1), policy=WeightedInterleave(w)
        )
        for nd in (0, 1):
            assert app.traffic_mix(nd).sum() == pytest.approx(1.0)


class TestDemandAndProgress:
    def test_node_demand_positive_while_working(self, mach_b):
        app = Application("x", small_workload(), mach_b, (0,), policy=FirstTouch())
        assert app.node_demand(0) > 0

    def test_demand_zero_after_completion(self, mach_b):
        app = Application("x", small_workload(), mach_b, (0,), policy=FirstTouch())
        app.advance(0, app.remaining(0))
        assert app.node_demand(0) == 0.0

    def test_work_split_by_threads(self, mach_b):
        wl = small_workload()
        app = Application("x", wl, mach_b, (0, 1), policy=None)
        assert app.remaining(0) == pytest.approx(wl.work_bytes / 2)

    def test_check_finished(self, mach_b):
        app = Application("x", small_workload(), mach_b, (0,), policy=None)
        assert not app.check_finished(1.0)
        app.advance(0, app.remaining(0))
        assert app.check_finished(5.0)
        assert app.finish_time == 5.0

    def test_looping_app_restarts(self, mach_b):
        app = Application("x", small_workload(), mach_b, (0,), policy=None, looping=True)
        app.advance(0, app.remaining(0))
        assert not app.check_finished(5.0)
        assert app.completions == 1
        assert app.remaining(0) > 0

    def test_advance_validation(self, mach_b):
        app = Application("x", small_workload(), mach_b, (0,), policy=None)
        with pytest.raises(ValueError):
            app.advance(0, -1.0)
        with pytest.raises(KeyError):
            app.advance(3, 1.0)

    def test_penalty_accumulates(self, mach_b):
        app = Application("x", small_workload(), mach_b, (0,), policy=None)
        app.charge_penalty(0.5)
        app.charge_penalty(0.25)
        assert app.pending_penalty_s == pytest.approx(0.75)
        with pytest.raises(ValueError):
            app.charge_penalty(-1.0)

    def test_consumers_one_per_worker(self, mach_b):
        app = Application("x", small_workload(), mach_b, (0, 1), policy=UniformAll())
        consumers = app.consumers()
        assert len(consumers) == 2
        assert {c.node for c in consumers} == {0, 1}
        assert all(c.write_fraction == pytest.approx(0.2) for c in consumers)


class TestConsumerMemo:
    """``consumers()`` keeps the mixes per placement, not per demand."""

    def _counting(self, app, monkeypatch):
        """Record the workers of every mix pass (one row per worker)."""
        calls = []
        original = app.traffic_mixes

        def traffic_mixes():
            calls.extend(app.worker_nodes)
            return original()

        monkeypatch.setattr(app, "traffic_mixes", traffic_mixes)
        return calls

    def test_demand_only_change_reuses_mixes(self, mach_b, monkeypatch):
        app = Application("x", small_workload(), mach_b, (0, 1), policy=UniformAll())
        before = app.consumers()
        calls = self._counting(app, monkeypatch)
        app.advance(1, app.remaining(1))  # worker 1 finishes: demand only
        after = app.consumers()
        assert calls == []
        assert after is not before
        assert after[0].demand == before[0].demand and after[1].demand == 0.0
        assert after[0].mix is before[0].mix
        assert not after[1].mix.any()
        # Each kept mix is bitwise the scalar reference, and read-only.
        fresh = traffic_mix_reference(app, 0)
        assert after[0].mix.tobytes() == fresh.tobytes()
        assert not after[0].mix.flags.writeable
        # Unchanged inputs return the memoised consumers themselves.
        assert app.consumers() is after
        assert calls == []

    def test_placement_change_recomputes_mixes(self, mach_b, monkeypatch):
        from repro.core.interleave import apply_weighted_placement

        app = Application("x", small_workload(), mach_b, (0, 1), policy=UniformAll())
        app.consumers()
        calls = self._counting(app, monkeypatch)
        apply_weighted_placement(app.space, [0.7, 0.1, 0.1, 0.1])
        consumers = app.consumers()
        assert sorted(calls) == [0, 1]
        for c in consumers:
            assert c.mix.tobytes() == traffic_mix_reference(app, c.node).tobytes()

    def test_private_fraction_change_recomputes_mixes(self, mach_b, monkeypatch):
        app = Application("x", small_workload(), mach_b, (0,), policy=FirstTouch())
        app.consumers()
        calls = self._counting(app, monkeypatch)
        monkeypatch.setattr(app, "_workload", small_workload(private_fraction=0.9))
        app.consumers()
        assert calls == [0]
