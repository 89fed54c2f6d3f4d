"""The one solver pipeline against the setup code it replaced.

``tests/oracle/solver_setup.py`` keeps the dense setup, the batch packing
and the fleet gather as they were written before the solver had one
pipeline. Every entry point must give bitwise what they gave: the dense
arrays (padded and dead slots, ``coefficients=``, ``capacity_scale``),
the fleet's fill inputs and outputs on heterogeneous entries (per-entry
capacity scales, all-idle and empty entries), and ``solve``'s
``Allocation``s and input errors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.memsim.contention as contention
from repro.memsim.contention import (
    batch_coefficients,
    consumer_rows,
    machine_tables,
    solve,
    solve_batch_arrays,
    solve_batch_fleet_lazy,
)
from repro.memsim.flows import Consumer
from repro.topology import fully_connected, machine_a, machine_b
from tests.oracle import solver_setup as oracle

MACHINES = {"A": machine_a(), "B": machine_b(), "fc4": fully_connected(4)}
_FIELDS = ("rates", "load", "caps", "util", "touched", "bottleneck_row")


def _same(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@st.composite
def machines(draw):
    return MACHINES[draw(st.sampled_from(sorted(MACHINES)))]


@st.composite
def scales(draw, machine):
    """``None`` or a positive multiplier over the machine's resources."""
    if draw(st.booleans()):
        return None
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.uniform(0.1, 2.0, machine_tables(machine).num_res)


@st.composite
def consumer_sets(draw, machine, max_size=6):
    """Consumers with distinct keys; some idle (zero demand or mix), some
    unbounded, mixes sparse."""
    n = machine.num_nodes
    out = []
    for i in range(draw(st.integers(0, max_size))):
        weights = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        total = sum(weights)
        mix = np.array(weights, dtype=float) / total if total else np.zeros(n)
        demand = draw(st.sampled_from([0.0, float("inf"), None]))
        if demand is None:
            demand = draw(st.floats(0.5, 40.0))
        out.append(
            Consumer(
                f"app:{i}",
                draw(st.integers(0, n - 1)),
                draw(st.integers(1, 8)),
                mix,
                demand,
                draw(st.floats(0.0, 1.0)),
            )
        )
    return out


@st.composite
def dense_batches(draw):
    """A dense ``(batch, slot)`` layout whose dead slots (idle or
    trailing padding) carry arbitrary nodes and mixes."""
    machine = draw(machines())
    n = machine.num_nodes
    num_batch = draw(st.integers(1, 3))
    num_slots = draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    node_idx = rng.integers(0, n, size=(num_batch, num_slots))
    if draw(st.booleans()):  # one layout for every batch element
        node_idx[:] = node_idx[:1]
    mix = rng.dirichlet(np.ones(n), size=(num_batch, num_slots))
    mix[rng.random(mix.shape) < 0.3] = 0.0
    # A zero-mix slot is idle (``Consumer.is_idle``), so never live.
    live = (rng.random((num_batch, num_slots)) < 0.7) & mix.any(axis=2)
    demand = rng.uniform(0.5, 30.0, size=(num_batch, num_slots))
    demand[rng.random(demand.shape) < 0.2] = np.inf
    write_fraction = rng.uniform(0.0, 1.0, size=(num_batch, num_slots))
    kwargs = {"capacity_scale": draw(scales(machine))}
    if draw(st.booleans()):
        kwargs["coefficients"] = batch_coefficients(machine, node_idx, mix, write_fraction)
    return (machine, node_idx, mix, demand, write_fraction, live), kwargs


class TestDense:
    @settings(max_examples=80, deadline=None)
    @given(batch=dense_batches())
    def test_arrays_bitwise(self, batch):
        args, kwargs = batch
        got = solve_batch_arrays(*args, **kwargs)
        want = oracle.solve_batch_arrays(*args, **kwargs)
        assert got.tables is want.tables
        for name in _FIELDS:
            assert _same(getattr(got, name), getattr(want, name)), name


class TestSolve:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_allocation_bitwise(self, data):
        machine = data.draw(machines())
        consumers = data.draw(consumer_sets(machine))
        scale = data.draw(scales(machine))
        got = solve(machine, consumers, capacity_scale=scale)
        want = oracle.solve(machine, consumers, capacity_scale=scale)
        assert list(got.rates.items()) == list(want.rates.items())
        assert list(got.bottleneck.items()) == list(want.bottleneck.items())
        assert list(got.utilization.items()) == list(want.utilization.items())
        assert list(got.capacities.items()) == list(want.capacities.items())

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_same_input_errors(self, data):
        machine = data.draw(machines())
        n = machine.num_nodes
        consumers = data.draw(consumer_sets(machine, max_size=4))
        bad = data.draw(st.sampled_from(["duplicate", "node", "mix"]))
        if bad == "duplicate":
            consumers = consumers + [Consumer("dup", 0, 1, np.ones(n) / n, 1.0)] * 2
        elif bad == "node":
            consumers = consumers + [Consumer("far", n + data.draw(st.integers(0, 3)), 1, np.ones(n) / n, 1.0)]
        else:
            consumers = consumers + [Consumer("long", 0, 1, np.ones(n + 1) / (n + 1), 1.0)]
        errors = []
        for fn in (solve, oracle.solve):
            try:
                fn(machine, consumers)
            except ValueError as exc:
                errors.append(str(exc))
        assert len(errors) == 2 and errors[0] == errors[1]


def _record_fill():
    """Replace the solver's fill with one that records its inputs and
    outputs; returns ``(records, restore)``."""
    real = contention._progressive_fill
    records = []

    def recording(*args):
        out = real(*args)
        records.append((args, out))
        return out

    contention._progressive_fill = recording
    return records, lambda: setattr(contention, "_progressive_fill", real)


class TestFleet:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_fill_inputs_and_outputs_bitwise(self, data):
        entries, entry_scales = [], []
        for _ in range(data.draw(st.integers(0, 6))):
            machine = data.draw(machines())
            consumers = data.draw(consumer_sets(machine))
            entries.append((machine, consumer_rows(machine).add_live(consumers)))
            entry_scales.append(data.draw(scales(machine)))
        scaled = entry_scales if data.draw(st.booleans()) else None
        records, restore = _record_fill()
        try:
            got = solve_batch_fleet_lazy(entries, capacity_scales=scaled)
        finally:
            restore()
        want, inputs, outputs = oracle.solve_batch_fleet_lazy(entries, capacity_scales=scaled)
        assert got == want
        [(got_inputs, got_outputs)] = records
        for name, g, w in zip(("A", "caps", "touched", "demand", "live"), got_inputs, inputs):
            assert _same(np.ascontiguousarray(g), w), name
        for name, g, w in zip(("rates", "load", "util", "bottleneck_row"), got_outputs, outputs):
            assert _same(g, w), name

    def test_non_finite_scales_rejected(self):
        """A NaN or infinite scale entry is an input error, not an
        unbounded allocation deep in the fill (the reference let both
        through)."""
        machine = MACHINES["A"]
        consumers = [Consumer("a", 0, 1, np.ones(8) / 8, 20.0)]
        rows = consumer_rows(machine).add_live(consumers)
        for value in (np.nan, np.inf):
            bad = np.ones(machine_tables(machine).num_res)
            bad[0] = value
            with pytest.raises(ValueError, match="finite"):
                solve(machine, consumers, capacity_scale=bad)
            with pytest.raises(ValueError, match="finite"):
                solve_batch_fleet_lazy([(machine, rows)], capacity_scales=[bad])
