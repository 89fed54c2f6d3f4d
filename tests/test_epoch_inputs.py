"""Epoch inputs computed once: per-app blocks, derived records kept with
their solve, and the ``Allocation`` built at snapshot time.

* Each app's :class:`~repro.engine.app.AppBlock` is bitwise what a
  per-worker ``Consumer`` build straight from the placement gives, and
  ``Application.consumers()`` is a view of it.
* The derived per-app records cached with a solve never carry an app
  object: a forgotten and re-admitted app id replays them exactly.
* ``SimResult.final_allocation`` built from the last solve's arrays is the
  ``Allocation`` that ``solve`` returns, insertion order included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interleave import apply_weighted_placement
from repro.engine import Application, PhasedApplication, Simulator
from repro.fleet.backend import FleetRecords, make_backend
from repro.memsim import FirstTouch, ReplicatedShared, UniformAll, solve
from repro.workloads import TraceSpec, build_trace, ocean_cp, paper_benchmarks, streamcluster, two_phase
from tests.oracle.epoch_reference import ReferenceSimulator, placement_consumers
from tests.oracle.page_counts import traffic_mix_reference

SUITE = paper_benchmarks()
POLICIES = {
    "none": lambda: None,
    "uniform": UniformAll,
    "first-touch": FirstTouch,
    "replicated": lambda: ReplicatedShared(max_write_fraction=0.99),
}


def _assert_block_is_reference(app):
    ref = placement_consumers(app)
    block = app.block()
    assert block.keys == tuple(c.key() for c in ref)
    assert block.node_idx.tolist() == [c.node for c in ref]
    assert block.threads.tolist() == [c.threads for c in ref]
    assert block.demand.tobytes() == np.array([c.demand for c in ref]).tobytes()
    assert block.write_frac.tobytes() == np.array([c.write_fraction for c in ref]).tobytes()
    assert block.mix.tobytes() == np.array([c.mix for c in ref]).tobytes()
    assert block.live.tolist() == [not c.is_idle for c in ref]
    for arr in (block.node_idx, block.threads, block.demand, block.mix, block.live):
        assert not arr.flags.writeable
    # consumers() is a view of the same rows.
    view = app.consumers()
    assert [c.key() for c in view] == [c.key() for c in ref]
    for got, want in zip(view, ref):
        assert (got.node, got.threads) == (want.node, want.threads)
        assert got.demand == want.demand and got.write_fraction == want.write_fraction
        assert got.mix.tobytes() == want.mix.tobytes()
    assert app.block() is block and app.consumers() is view


class TestAppBlock:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_block_matches_per_worker_consumers(self, mach_b, data):
        workers = tuple(
            sorted(data.draw(st.sets(st.integers(0, 3), min_size=1, max_size=4), label="workers"))
        )
        policy = POLICIES[data.draw(st.sampled_from(sorted(POLICIES)), label="policy")]()
        if data.draw(st.booleans(), label="phased"):
            first, second = data.draw(
                st.permutations([streamcluster(), ocean_cp()]), label="phases"
            )
            app = PhasedApplication(
                "p", two_phase("x", first, second, split=0.5), mach_b, workers, policy=policy
            )
        else:
            wl = data.draw(st.sampled_from(SUITE), label="workload")
            app = Application("a", wl, mach_b, workers, policy=policy)
        _assert_block_is_reference(app)
        for _ in range(data.draw(st.integers(1, 8), label="steps")):
            op = data.draw(st.sampled_from(("place", "progress", "finish", "shock")), label="op")
            if op == "place":
                weights = data.draw(
                    st.lists(st.integers(0, 5), min_size=4, max_size=4).filter(any),
                    label="weights",
                )
                apply_weighted_placement(app.space, [w / sum(weights) for w in weights])
            elif op == "progress":
                # Crosses a phase boundary once enough work is done.
                frac = data.draw(st.floats(0.05, 0.6), label="frac")
                for w in app.worker_nodes:
                    app.advance(w, frac * app.remaining(w))
            elif op == "finish":
                w = data.draw(st.sampled_from(app.worker_nodes), label="worker")
                app.advance(w, app.remaining(w))
            else:
                app.demand_scale = data.draw(st.sampled_from((0.0, 0.5, 1.0, 1.7)))
            _assert_block_is_reference(app)

    def test_rejects_bad_rows(self, mach_b):
        from repro.engine.app import AppBlock

        mixes = np.array([[0.5, 0.5, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        ok = ("a", (0, 1), [4, 4], (1.0, 2.0), 0.2, mixes, 4)
        AppBlock(*ok)
        for i, bad, match in [
            (1, (0, 0), "duplicate consumer keys"),
            (1, (0, 4), "outside machine"),
            (3, (1.0, -2.0), "non-negative"),
            (2, [4, -1], "non-negative"),
            (4, 1.5, "write_fraction"),
            (5, mixes[:, :3], "mixes"),
            (5, mixes - 0.25, "mixes"),
            (5, mixes * 0.9, "sum to 1"),
        ]:
            args = list(ok)
            args[i] = bad
            with pytest.raises(ValueError, match=match):
                AppBlock(*args)


def _fresh_block(app):
    """An :class:`AppBlock` built from scratch for the app's current state."""
    from repro.engine.app import AppBlock

    workers = app.worker_nodes
    return AppBlock(
        app.app_id,
        workers,
        [app.threads_on(w) for w in workers],
        tuple(app.node_demand(w) for w in workers),
        app.workload.write_fraction,
        np.array([traffic_mix_reference(app, w) for w in workers]),
        app.machine.num_nodes,
    )


def _plain(machine, looping=False):
    return Application("a", streamcluster(), machine, (0, 1), policy=UniformAll(), looping=looping)


def _deplete(app, *workers):
    for w in workers or app.worker_nodes:
        app.advance(w, app.remaining(w))
    return app


def _cross_phase(app):
    first = app.current_phase_index
    for w in app.worker_nodes:
        app.advance(w, 0.6 * app.remaining(w))
    assert app.current_phase_index != first


#: Input -> (build an app, change that one input, whether the mixes hold).
_STAMP_INPUTS = {
    "worker depletes": (_plain, lambda app: _deplete(app, 1), True),
    "looping restart": (
        lambda m: _deplete(_plain(m, looping=True)),
        lambda app: app.check_finished(1.0),
        True,
    ),
    "finished": (_plain, lambda app: setattr(app, "finished", True), True),
    "demand_scale": (_plain, lambda app: setattr(app, "demand_scale", 1.7), True),
    "phase crossing": (
        lambda m: PhasedApplication(
            "p", two_phase("x", streamcluster(), ocean_cp()), m, (0, 1), policy=FirstTouch()
        ),
        _cross_phase,
        False,
    ),
    "space.version": (
        _plain,
        lambda app: apply_weighted_placement(app.space, [0.7, 0.1, 0.1, 0.1]),
        False,
    ),
}


def _same_rows(got, want):
    assert got.keys == want.keys
    for name in ("node_idx", "threads", "demand", "write_frac", "mix", "live"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


class TestDemandStamp:
    """``block()`` derives nothing while its inputs hold, and builds a new
    block equal to a fresh build after any one of them changes."""

    @pytest.mark.parametrize("name", sorted(_STAMP_INPUTS))
    def test_input_change_rebuilds_exactly(self, mach_b, name):
        build, mutate, mixes_kept = _STAMP_INPUTS[name]
        app = build(mach_b)
        before = app.block()
        assert app.block() is before
        demands = before.demand.tobytes()
        mutate(app)
        after = app.block()
        assert after is not before
        _same_rows(after, _fresh_block(app))
        _assert_block_is_reference(app)
        # A demand-only change keeps the placement's validated mix rows.
        assert (after.rows is before.rows) == mixes_kept
        if mixes_kept:
            assert after.demand.tobytes() != demands

    def test_unchanged_epoch_derives_nothing(self, mach_b, monkeypatch):
        app = _plain(mach_b, looping=True)
        block = app.block()
        monkeypatch.setattr(app, "node_demand", None)  # any derivation raises
        monkeypatch.setattr(app, "traffic_mixes", None)
        app.advance(0, 0.25 * app.remaining(0))  # progress; no worker depletes
        app.advance(1, 0.0)
        app.demand_scale = 1.0  # rewritten with its own value
        assert not app.check_finished(0.5)
        assert app.block() is block


class TestDerivedWithSolve:
    @pytest.mark.parametrize("with_neighbour", [False, True])
    def test_readmitted_app_replays_exactly(self, with_neighbour):
        """forget_app + a re-admission with identical inputs: the kernel's
        cached solves (and the records derived from them) must drive the
        new app object, bitwise as the scalar reference does."""
        from repro.experiments.common import get_machine

        machine = get_machine("A")
        wl = SUITE[0]
        runs = []
        for sim_cls in (Simulator, ReferenceSimulator):
            b = make_backend("sim", 0, "A", machine, policy="bwap", dwp=0.8, seed=3)
            b.sim = sim_cls(machine, seed=b.seed, faults=b.sim_faults)
            b.sim.start()
            b.records = FleetRecords(build_trace(TraceSpec(arrivals=2)), ["A"], b.slo_slowdown)
            if with_neighbour:
                b.admit("n", SUITE[1], (4, 5), 0.0, idx=0)
            b.admit("a", wl, (0, 1), 0.0, idx=1)
            b.advance(1e9)
            b.forget_app("a")
            b.admit("a", wl, (0, 1), b.now, idx=1)
            b.advance(2e9)
            runs.append(b)
        on, off = runs
        done = [
            list(zip(*(getattr(b.records, name)[: b.records.done].tolist()
                       for name in ("idx", "placed_s", "finish_s", "outcome"))))
            for b in runs
        ]
        assert done[0] == done[1]
        assert len(done[0]) == (3 if with_neighbour else 2)
        res_on, res_off = on.sim.snapshot(), off.sim.snapshot()
        assert res_on.telemetry == res_off.telemetry
        assert res_on.final_allocation == res_off.final_allocation
        assert on.sim.counters._apps == off.sim.counters._apps
        assert on.sim.solver_cache.hits > 0

    def test_stride_telemetry_matches_reference(self, mach_a, canonical_a):
        """Strided epochs extend the traffic run the reference records one
        epoch at a time."""
        from repro.core import DWPTuner
        from repro.perf.counters import MeasurementConfig

        out = []
        for sim_cls in (Simulator, ReferenceSimulator):
            sim = sim_cls(mach_a)
            app = sim.add_app(Application("a", streamcluster(), mach_a, (0, 1), policy=None))
            sim.add_tuner(
                DWPTuner(
                    app,
                    canonical_a.weights((0, 1)),
                    config=MeasurementConfig(n=6, c=1, t=0.1),
                    warmup_s=0.2,
                )
            )
            out.append((sim, sim.run(max_time=400.0)))
        (sim_on, on), (sim_off, off) = out
        assert on.telemetry == off.telemetry and on.sim_time == off.sim_time
        # Strided epochs skip the solve the reference runs every epoch.
        assert sim_on.solver_cache.hits + sim_on.solver_cache.misses < sim_off.epoch


def _items(alloc):
    return [
        list(alloc.rates.items()),
        list(alloc.bottleneck.items()),
        list(alloc.utilization.items()),
        list(alloc.capacities.items()),
    ]


class TestFinalAllocation:
    @pytest.mark.parametrize("idle", [False, True])
    def test_snapshot_allocation_is_the_solve(self, mach_a, idle):
        sim = Simulator(mach_a)
        bg = sim.add_app(
            Application("bg", SUITE[1], mach_a, (4, 5, 6, 7), policy=FirstTouch(), looping=True)
        )
        fg = sim.add_app(Application("fg", SUITE[0], mach_a, (0, 1), policy=UniformAll()))
        if idle:
            bg.demand_scale = fg.demand_scale = 0.0
        sim.start()
        assert sim.snapshot().final_allocation is None
        sim.step_to(0.75)
        consumers = bg.consumers() + fg.consumers()
        eager = solve(mach_a, consumers, sim.mc_model)
        final = sim.snapshot().final_allocation
        assert final == eager
        assert _items(final) == _items(eager)
        if idle:
            assert final.utilization == {} and set(final.rates.values()) == {0.0}
