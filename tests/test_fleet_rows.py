"""Array-native fluid fleet state: shared consumer rows and resident rows.

:class:`FlowBackend` keeps one resident row per running worker, pointing
into the machine class's shared :class:`~repro.memsim.ConsumerRows`, and
the incremental scheduler solves candidates straight from those rows.
The tests pin down:

* differential identity with the dict-walking reference backend in
  ``tests/oracle`` under random admit / advance / evict / capacity-scale
  sequences — completions, eviction fractions, resident consumers,
  remaining bytes and ``state_version`` all bitwise equal;
* row-store conservation after every step, and bounded row capacity over
  a long run (retired rows are reused);
* per-row coefficient columns equal to :func:`batch_coefficients`;
* row entries of the fleet solve scoring exactly like scalar ``solve``s of
  their ``Consumer`` lists;
* a table-miss solve of the fluid backend giving bitwise the rates a
  scalar ``solve`` of its resident ``Consumer`` set gives;
* admission input validation.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.engine.threads import pick_worker_nodes
from repro.fleet import FleetScheduler, SchedulerConfig, build_fleet, class_machine
from repro.fleet.backend import FleetRecords, FlowBackend, make_backend
from repro.memsim import Consumer, ConsumerRows, consumer_rows, solve, solve_batch_fleet_lazy
from repro.memsim.contention import batch_coefficients, machine_tables
from repro.topology import dual_socket, machine_a
from repro.workloads import TraceSpec, build_trace, trace_catalog

from tests.oracle.flow_backend import OracleFlowBackend, resident_consumers

_CLASSES = ("A", "B", "dual", "sym4")


def _pair(cls: str):
    machine = class_machine(cls)
    kw = dict(policy="bwap", dwp=0.8, seed=1)
    pair = make_backend("flow", 0, cls, machine, **kw), OracleFlowBackend(0, cls, machine, **kw)
    for b in pair:
        _record(b)
    return pair


def _record(b) -> None:
    """Give standalone backend ``b`` a record buffer of its own."""
    b.records = FleetRecords(build_trace(TraceSpec(arrivals=8)), [b.class_name], b.slo_slowdown)


def _completed(b) -> list:
    """Every completion ``b`` recorded, as the column values it wrote
    (worker sets and thread counts resolved), in record order."""
    r = b.records
    names = ("idx", "mid", "wset", "placed_s", "finish_s", "ideal_s", "attempts", "slo_ok")
    return [
        (idx, mid, r.wsets[wset], r.threads[mid, wset], *rest)
        for idx, mid, wset, *rest in zip(*(getattr(r, name)[: r.done].tolist() for name in names))
    ]


def _consumer_view(consumers):
    return [
        (c.app_id, c.node, c.threads, c.demand, c.write_fraction, c.mix.tobytes())
        for c in consumers
    ]


def _assert_rows_conserved(prod: FlowBackend, oracle: OracleFlowBackend) -> None:
    """Live rows are exactly the non-depleted workers of placed apps, with
    the reference's remaining bytes; every other row is in the free list."""
    store = prod._store
    assert list(prod._app_rows) == list(prod._placed) == list(oracle._flow)
    live = [r for rows in prod._app_rows.values() for r in rows]
    assert len(set(live)) == len(live)
    assert len(set(prod._free)) == len(prod._free)
    assert sorted(live + prod._free) == list(range(len(prod._tpl)))
    expect = [
        (app_id, c.node, app.remaining[c.node])
        for app_id, app in oracle._flow.items()
        for c in app.consumers
        if app.remaining[c.node] > 0.0
    ]
    got = [
        (app_id, store.node[prod._tpl[r]], prod._rem[r])
        for app_id, rows in prod._app_rows.items()
        for r in rows
    ]
    assert got == expect
    # The kept state id is the state interned afresh from the rows.
    assert prod.state_id == prod.states.intern(tuple(prod.resident_rows()), prod.occupied_nodes())
    assert all(rem >= 0.0 for rem in prod._rem)


def _drive(cls: str, seed: int, steps: int = 80) -> None:
    prod, oracle = _pair(cls)
    machine = prod.machine
    num_res = machine_tables(machine).num_res
    catalog = trace_catalog(TraceSpec())
    rng = np.random.default_rng(seed)
    next_app = 0
    for _ in range(steps):
        op = rng.choice(["admit", "advance", "evict", "scale"], p=[0.45, 0.4, 0.05, 0.1])
        if op == "admit":
            free = prod.free_nodes()
            if not free:
                continue
            k = int(rng.integers(1, min(3, len(free)) + 1))
            workers = pick_worker_nodes(machine, k, exclude=prod.occupied_nodes())
            base = catalog[int(rng.integers(len(catalog)))]
            wl = dataclasses.replace(
                base, work_bytes=base.work_bytes * float(rng.uniform(0.02, 0.3))
            )
            resume = 0.0 if rng.random() < 0.6 else float(rng.choice([0.25, 0.5, 0.75]))
            app_id = f"job{next_app}"
            next_app += 1
            kw = dict(idx=next_app - 1, resume_frac=resume, attempts=1 + int(resume > 0))
            if rng.random() < 0.5:
                kw["template"] = prod.candidate_rows(wl, workers)
            prod.admit(app_id, wl, workers, prod.now, **kw)
            oracle.admit(app_id, wl, workers, oracle.now, idx=kw["idx"], resume_frac=resume,
                         attempts=kw["attempts"])
        elif op == "advance":
            # Apps run for about 1-10 s: mostly short steps that catch
            # co-runners mid-flight, sometimes long ones that drain them.
            span = float(rng.exponential(2.0 if rng.random() < 0.85 else 60.0))
            prod.advance(prod.now + span)
            oracle.advance(oracle.now + span)
        elif op == "evict":
            assert prod.evict_all() == oracle.evict_all()
        else:
            scale = None
            if rng.random() < 0.7:
                scale = np.where(rng.random(num_res) < 0.5, rng.uniform(0.2, 1.0, num_res), 1.0)
            prod.set_capacity_scale(scale)
            oracle.set_capacity_scale(scale)
        assert prod.now == oracle.now
        assert prod.state_version == oracle.state_version
        assert _completed(prod) == _completed(oracle)
        assert _consumer_view(resident_consumers(prod)) == _consumer_view(
            oracle.resident_consumers()
        )
        _assert_rows_conserved(prod, oracle)
    prod.advance(prod.now + 1e9)
    oracle.advance(oracle.now + 1e9)
    assert _completed(prod) == _completed(oracle)
    assert prod.records.done and not prod._app_rows and not oracle._flow


class TestOracleDifferential:
    @pytest.mark.parametrize("cls", _CLASSES)
    @pytest.mark.parametrize("seed", range(6))
    def test_random_sequences_bitwise(self, cls, seed):
        _drive(cls, seed)


class TestRowStore:
    def test_capacity_bounded_by_peak_residency(self):
        """A long run reuses retired rows: each machine's row capacity is
        bounded by how many workers it can hold at once, not by arrivals,
        and the shared template rows by the distinct candidates seen."""
        trace = build_trace(
            TraceSpec(kind="poisson", rate_per_s=4.0, arrivals=2000, seed=3)
        )
        fleet = build_fleet((("A", 2), ("dual", 2), ("sym4", 2)))
        machines = {id(node.machine): node.machine for node in fleet}
        before = {key: len(consumer_rows(m).node) for key, m in machines.items()}
        sched = FleetScheduler(
            fleet, trace, SchedulerConfig(tick_s=2.0), seed=5
        )
        out = sched.run(10_000_000.0)
        assert len(out.completions) == 2000
        admitted = {}
        for _app, mid, workers in out.placements:
            admitted[mid] = admitted.get(mid, 0) + len(workers)
        for b in sched.backends:
            assert not b._app_rows
            assert len(b._free) == len(b._tpl) <= b.machine.num_nodes
            assert admitted[b.mid] > 10 * len(b._tpl)
        template_rows = dict.fromkeys(machines, 0)
        for (key, workers, _kind) in sched._cand_cache:
            template_rows[key] += len(workers)
        for key, m in machines.items():
            assert len(consumer_rows(m).node) - before[key] <= template_rows[key]

    def test_coefficient_columns_match_batch_coefficients(self):
        """Per-row columns are bitwise the columns a batched solve builds,
        on random layouts and on the uniform-layout einsum branch."""
        rng = np.random.default_rng(0)
        for cls in _CLASSES:
            machine = class_machine(cls)
            n = machine.num_nodes
            store = ConsumerRows(machine)
            for trial in range(40):
                num_batch = int(rng.integers(1, 12))
                slots = int(rng.integers(1, 6))
                if trial % 3 == 0:
                    node = np.tile(rng.integers(0, n, slots), (num_batch, 1))
                else:
                    node = rng.integers(0, n, (num_batch, slots))
                mix = rng.random((num_batch, slots, n))
                mix[rng.random(mix.shape) < 0.4] = 0.0
                mix[..., 0] += 1e-3
                mix /= mix.sum(axis=2, keepdims=True)
                wf = rng.random((num_batch, slots))
                rows = np.array(
                    [
                        [
                            store.add(Consumer("x", int(node[b, j]), 1, mix[b, j], 1.0, wf[b, j]))
                            for j in range(slots)
                        ]
                        for b in range(num_batch)
                    ]
                )
                expect = batch_coefficients(machine, node, mix, wf)
                got = store.coef[rows].transpose(0, 2, 1)
                assert np.array_equal(got.view(np.int64), expect.view(np.int64))

    def test_row_entries_score_like_consumer_entries(self):
        rng = np.random.default_rng(4)
        catalog = trace_catalog(TraceSpec())
        entries, row_entries, tails = [], [], []
        for cls in _CLASSES:
            machine = class_machine(cls)
            b = make_backend("flow", 0, cls, machine, policy="bwap", dwp=0.8, seed=1)
            for _ in range(5):
                wl = catalog[int(rng.integers(len(catalog)))]
                res = pick_worker_nodes(machine, 1)
                b_cons = b.candidate_consumers("res", wl, res)[0]
                k = int(rng.integers(1, 3))
                cand = pick_worker_nodes(machine, k, exclude=res)
                c_cons = b.candidate_consumers("cand", wl, cand)[0]
                entries.append((machine, b_cons + c_cons))
                rows = consumer_rows(machine)
                row_entries.append(
                    (machine, [rows.add(c) for c in b_cons] + [rows.add(c) for c in c_cons])
                )
                tails.append(len(c_cons))
        scores = [
            sum(r[len(r) - k :], 0.0) for r, k in zip(solve_batch_fleet_lazy(row_entries), tails)
        ]
        for (machine, consumers), score in zip(entries, scores):
            assert score == solve(machine, consumers).app_total_rate("cand")


class TestTableMissSolve:
    """``FlowBackend._solve`` on a state its class's rate table lacks
    solves the resident rows through ``solve_batch_fleet_lazy``; the
    reference is a scalar ``solve`` of the resident ``Consumer`` set, each
    app's rows rebuilt as consumers of that app."""

    @pytest.mark.parametrize("scaled", [False, True])
    @pytest.mark.parametrize("build", [machine_a, lambda: dual_socket(cores_per_node=4)])
    def test_rates_bitwise_equal_consumer_solve(self, build, scaled):
        # A private machine object: its rate table is this test's alone.
        machine = build()
        b = make_backend("flow", 0, "x", machine, policy="bwap", dwp=0.8, seed=1)
        _record(b)
        states = b.states
        catalog = trace_catalog(TraceSpec())
        num_res = machine_tables(machine).num_res
        rng = np.random.default_rng(7)
        solved = 0
        for step in range(60):
            free = b.free_nodes()
            if free and rng.random() < 0.5:
                k = int(rng.integers(1, min(3, len(free)) + 1))
                workers = pick_worker_nodes(machine, k, exclude=b.occupied_nodes())
                wl = catalog[int(rng.integers(len(catalog)))]
                b.admit(f"job{step}", wl, workers, b.now, idx=step)
            else:
                b.advance(b.now + float(rng.exponential(2.0)))
            scale = None
            if scaled:
                scale = np.where(rng.random(num_res) < 0.5, rng.uniform(0.2, 1.0, num_res), 1.0)
            b.set_capacity_scale(scale)
            if not b._app_rows:
                continue
            states.rates.clear()
            b._solve_slot = None
            live, speeds = b._solve()
            consumers = resident_consumers(b)
            alloc = solve(machine, consumers, capacity_scale=scale)
            expect = tuple([alloc.rates[c.key()] for c in consumers])
            assert states.rates[b.state_id, states.scale_id(scale)] == expect
            assert speeds == [rate * b._factor[r] for r, rate in zip(live, expect)]
            solved += 1
        assert solved > 20


class TestAdmitValidation:
    def _wl(self):
        return trace_catalog(TraceSpec())[0]

    def test_template_must_match_workers(self):
        b = make_backend("flow", 0, "A", class_machine("A"), policy="bwap", dwp=0.8)
        template = b.candidate_rows(self._wl(), (0, 1))
        with pytest.raises(ValueError, match="do not match"):
            b.admit("a", self._wl(), (2, 3), 0.0, idx=0, template=template)
        # Nothing was registered by the rejected admission.
        assert b.num_live == 0 and b.state_version == 0
        b.admit("a", self._wl(), (0, 1), 0.0, idx=0, template=template)
        assert b.occupied_nodes() == (0, 1)

    @pytest.mark.parametrize("backend", ["flow", "sim"])
    @pytest.mark.parametrize("frac", [1.0, 2.0, -1.0, float("nan")])
    def test_resume_frac_outside_unit_interval(self, backend, frac):
        b = make_backend(backend, 0, "A", class_machine("A"), policy="bwap", dwp=0.8)
        with pytest.raises(ValueError, match="resume_frac"):
            b.admit("a", self._wl(), (0,), 0.0, idx=0, resume_frac=frac)
        assert b.num_live == 0

    def test_resume_frac_just_below_one_runs_remaining_work(self):
        b = make_backend("flow", 0, "A", class_machine("A"), policy="bwap", dwp=0.8)
        _record(b)
        b.admit("a", self._wl(), (0,), 0.0, idx=0, resume_frac=0.75)
        b.advance(5.0)
        b.advance(1e9)
        (done,) = _completed(b)
        assert 5.0 < done[5] < 1e9  # finish_s
