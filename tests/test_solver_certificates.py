"""Certificates for every solver entry point, against an independent model.

The resources, coefficients and capacities here are rebuilt from the
machine description (routes, hop efficiency, ingress ports, the MC
model's de-rating by reader count), not from the solver's tables. On
machine A, machine B and a fully-connected machine, with and without
capacity scales, ``solve``, ``solve_batch_arrays`` and
``solve_batch_fleet_lazy`` must each return rates that are:

* **feasible** — no resource carries more than its scaled capacity
  (times ``1 + 1e-9``) and no consumer gets more than its demand;
* **max-min fair** — every consumer below its demand crosses a saturated
  resource on which no other user gets a higher rate (``1e-9``
  relative); where the entry point reports bottlenecks, the reported one
  is such a resource;
* **scale-covariant** — doubling every capacity and every demand doubles
  every rate (``1e-9`` relative).
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.contention import (
    consumer_rows,
    machine_tables,
    solve,
    solve_batch_arrays,
    solve_batch_fleet_lazy,
)
from repro.memsim.controller import DEFAULT_MC_MODEL
from repro.memsim.flows import Consumer
from tests.test_solver_pipeline import consumer_sets, machines, scales

_TOL = 1e-9


def _model(machine, live, scale):
    """``{resource: (per-consumer coefficients, scaled capacity)}`` of a
    live consumer set, from the machine description."""
    res_index = machine_tables(machine).res_index
    coef, cap, readers = {}, {}, {}

    def add(key, j, value, capacity):
        coef.setdefault(key, np.zeros(len(live)))[j] += value
        cap[key] = capacity

    for j, c in enumerate(live):
        write_scale = 1.0 + c.write_fraction * (DEFAULT_MC_MODEL.write_cost_factor - 1.0)
        for s, share in enumerate(c.mix):
            if share <= 0.0:
                continue
            readers.setdefault(s, set()).add(c.node)
            add(("mc", s), j, share * write_scale, None)
            if s == c.node:
                continue
            route = machine.route(s, c.node)
            overhead = 1.0 / machine.hop_efficiency ** max(0, route.hops - 1)
            for link in route.links:
                add(("link", link.src, link.dst), j, share * overhead, link.capacity)
            if math.isfinite(machine.ingress_capacity(c.node)):
                add(("ingress", c.node), j, share, machine.ingress_capacity(c.node))
    for s, nodes in readers.items():
        cap[("mc", s)] = DEFAULT_MC_MODEL.effective_capacity(
            machine.node(s).local_bandwidth, len(nodes)
        )
    if scale is not None:
        cap = {key: value * scale[res_index[key]] for key, value in cap.items()}
    return {key: (coef[key], cap[key]) for key in coef}


def _check(machine, live, rates, scale, bottlenecks=None):
    """Feasibility and the max-min certificate of one solve's rates."""
    rates = np.asarray(rates, dtype=float)
    demand = np.array([c.demand for c in live])
    assert len(rates) == len(live)
    assert (rates >= 0.0).all()
    assert (rates <= demand * (1 + _TOL)).all()
    model = _model(machine, live, scale)
    saturated = set()
    for key, (coef, cap) in model.items():
        load = float(coef @ rates)
        assert load <= cap * (1 + _TOL), key
        if cap - load <= _TOL * max(cap, 1.0):
            saturated.add(key)

    def certifies(key, j):
        coef = model[key][0]
        users = coef > _TOL
        return key in saturated and users[j] and (rates[users] <= rates[j] * (1 + _TOL)).all()

    for j in range(len(live)):
        if math.isfinite(demand[j]) and rates[j] >= demand[j] - _TOL * max(demand[j], 1.0):
            continue  # satisfied
        assert any(certifies(key, j) for key in model), live[j]
        if bottlenecks is not None:
            assert certifies(bottlenecks[j], j), (live[j], bottlenecks[j])


def _doubled(consumers):
    return [
        Consumer(c.app_id, c.node, c.threads, c.mix, 2.0 * c.demand, c.write_fraction)
        for c in consumers
    ]


def _assert_doubles(base, doubled):
    base, doubled = np.asarray(base, dtype=float), np.asarray(doubled, dtype=float)
    assert np.allclose(doubled, 2.0 * base, rtol=_TOL, atol=0.0)


def _times_two(scale, machine):
    return 2.0 * (np.ones(machine_tables(machine).num_res) if scale is None else scale)


@st.composite
def problems(draw):
    machine = draw(machines())
    return machine, draw(consumer_sets(machine)), draw(scales(machine))


class TestSolve:
    @settings(max_examples=80, deadline=None)
    @given(problem=problems())
    def test_certificate_and_scaling(self, problem):
        machine, consumers, scale = problem
        live = [c for c in consumers if not c.is_idle]
        alloc = solve(machine, consumers, capacity_scale=scale)
        rates = [alloc.rates[c.key()] for c in live]
        _check(machine, live, rates, scale, [alloc.bottleneck[c.key()] for c in live])
        doubled = solve(machine, _doubled(consumers), capacity_scale=_times_two(scale, machine))
        _assert_doubles(rates, [doubled.rates[c.key()] for c in live])


def _dense(machine, sets, scale, double=False):
    """``sets`` packed as one padded dense batch: rates per set and the
    reported bottleneck resources."""
    n = machine.num_nodes
    width = max(len(s) for s in sets)
    node_idx = np.zeros((len(sets), width), dtype=np.intp)
    mix = np.zeros((len(sets), width, n))
    demand = np.zeros((len(sets), width))
    write_fraction = np.zeros((len(sets), width))
    live = np.zeros((len(sets), width), dtype=bool)
    for b, consumers in enumerate(sets):
        for j, c in enumerate(consumers):
            node_idx[b, j], mix[b, j] = c.node, c.mix
            demand[b, j], write_fraction[b, j], live[b, j] = c.demand, c.write_fraction, True
    if double:
        demand, scale = 2.0 * demand, _times_two(scale, machine)
    arrays = solve_batch_arrays(
        machine, node_idx, mix, demand, write_fraction, live, capacity_scale=scale
    )
    res_keys = arrays.tables.res_keys
    return [
        (arrays.rates[b, : len(s)], [res_keys[r] if r >= 0 else None for r in arrays.bottleneck_row[b, : len(s)]])
        for b, s in enumerate(sets)
    ]


class TestDense:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_certificate_and_scaling(self, data):
        machine = data.draw(machines())
        sets = [
            [c for c in data.draw(consumer_sets(machine)) if not c.is_idle]
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        if not any(sets):
            return
        scale = data.draw(scales(machine))
        solved = _dense(machine, sets, scale)
        for live, (rates, bottlenecks) in zip(sets, solved):
            _check(machine, live, rates, scale, bottlenecks)
        for (rates, _b), (doubled, _d) in zip(solved, _dense(machine, sets, scale, double=True)):
            _assert_doubles(rates, doubled)


class TestFleet:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_certificate_and_scaling(self, data):
        problems_ = [data.draw(problems()) for _ in range(data.draw(st.integers(1, 5)))]
        lives = [[c for c in cs if not c.is_idle] for _m, cs, _s in problems_]

        def run(double):
            entries, entry_scales = [], []
            for (machine, consumers, scale), live in zip(problems_, lives):
                rows = consumer_rows(machine).add_live(_doubled(live) if double else live)
                entries.append((machine, rows))
                entry_scales.append(_times_two(scale, machine) if double else scale)
            return solve_batch_fleet_lazy(entries, capacity_scales=entry_scales)

        solved = run(False)
        for (machine, _cs, scale), live, rates in zip(problems_, lives, solved):
            _check(machine, live, rates, scale)
        for rates, doubled in zip(solved, run(True)):
            _assert_doubles(rates, doubled)
