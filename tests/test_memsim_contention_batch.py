"""Property tests for the batched contention solver.

Many consumer sets packed into one production dense solve
(:func:`solve_batch_arrays`) must be the scalar :func:`solve` run
elementwise — bitwise, not approximately: the simulator's solver cache fingerprints
allocations, and the batched search's trajectories must be replayable one
candidate at a time. Every comparison here is exact equality on the full
:class:`Allocation` surface (rates, bottleneck, utilization, capacities,
per-app groupings).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.memsim.contention as contention
from repro.memsim.contention import (
    Allocation,
    batch_coefficients,
    consumer_rows,
    machine_tables,
    solve,
    solve_batch_arrays,
    solve_batch_fleet_lazy,
)
from repro.memsim.controller import DEFAULT_MC_MODEL
from repro.memsim.flows import Consumer
from repro.topology import fully_connected, machine_a, machine_b, ring
from tests.oracle import batch_setup as loops
from tests.oracle import solver_setup


def solve_batch(machine, batches, mc_model):
    """One :class:`Allocation` per consumer set, all packed into one
    production :func:`solve_batch_arrays` call."""
    return solver_setup.solve_batch(machine, batches, mc_model, dense=solve_batch_arrays)


def _assert_allocations_equal(batched: Allocation, scalar: Allocation) -> None:
    assert batched.rates == scalar.rates
    assert batched.bottleneck == scalar.bottleneck
    assert batched.utilization == scalar.utilization
    assert batched.capacities == scalar.capacities
    for aid in {aid for aid, _node in scalar.rates}:
        assert batched.app_rates(aid) == scalar.app_rates(aid)
        assert batched.app_total_rate(aid) == scalar.app_total_rate(aid)


def _random_consumers(rng, machine, count):
    n = machine.num_nodes
    consumers = []
    for i in range(count):
        roll = rng.rand()
        if roll < 0.2:
            mix = np.zeros(n)
            mix[rng.randint(n)] = 1.0
        else:
            mix = rng.dirichlet(np.ones(n))
        if roll > 0.9:
            demand = 0.0  # idle consumer
        elif roll > 0.7:
            demand = float("inf")
        else:
            demand = float(rng.uniform(0.5, 30.0))
        consumers.append(
            Consumer(
                f"app:{i}",
                int(rng.randint(n)),
                int(rng.randint(1, 9)),
                mix,
                demand,
                write_fraction=float(rng.uniform(0.0, 1.0)),
            )
        )
    return consumers


class TestBatchMatchesScalar:
    @pytest.mark.parametrize(
        "make_machine",
        [machine_a, machine_b, lambda: fully_connected(4), lambda: ring(6)],
    )
    def test_random_batches(self, make_machine):
        machine = make_machine()
        rng = np.random.RandomState(1234)
        for _ in range(20):
            batches = [
                _random_consumers(rng, machine, rng.randint(1, 7))
                for _ in range(rng.randint(1, 5))
            ]
            allocations = solve_batch(machine, batches, DEFAULT_MC_MODEL)
            assert len(allocations) == len(batches)
            for consumers, batched in zip(batches, allocations):
                _assert_allocations_equal(
                    batched, solve(machine, consumers, DEFAULT_MC_MODEL)
                )

    def test_heterogeneous_batch_sizes(self):
        # Batch entries of different lengths exercise the padding path; a
        # padded slot must never perturb its neighbours.
        machine = machine_a()
        rng = np.random.RandomState(7)
        batches = [_random_consumers(rng, machine, k) for k in (1, 6, 2, 4)]
        allocations = solve_batch(machine, batches, DEFAULT_MC_MODEL)
        for consumers, batched in zip(batches, allocations):
            _assert_allocations_equal(
                batched, solve(machine, consumers, DEFAULT_MC_MODEL)
            )


class TestDegenerateCases:
    def test_single_consumer(self):
        machine = fully_connected(4)
        c = Consumer("app:0", 0, 8, np.full(4, 0.25), float("inf"))
        [batched] = solve_batch(machine, [[c]], DEFAULT_MC_MODEL)
        _assert_allocations_equal(batched, solve(machine, [c], DEFAULT_MC_MODEL))
        assert batched.rates[c.key()] > 0

    def test_all_idle(self):
        machine = fully_connected(4)
        consumers = [
            Consumer(f"app:{i}", i, 4, np.zeros(4), 0.0) for i in range(3)
        ]
        [batched] = solve_batch(machine, [consumers], DEFAULT_MC_MODEL)
        _assert_allocations_equal(
            batched, solve(machine, consumers, DEFAULT_MC_MODEL)
        )
        assert all(r == 0.0 for r in batched.rates.values())

    def test_empty_consumer_list(self):
        machine = fully_connected(4)
        [batched] = solve_batch(machine, [[]], DEFAULT_MC_MODEL)
        _assert_allocations_equal(batched, solve(machine, [], DEFAULT_MC_MODEL))
        assert batched.rates == {}

    def test_empty_batch(self):
        assert solve_batch(fully_connected(4), [], DEFAULT_MC_MODEL) == []

    def test_all_links_saturated(self):
        # Every node hammers node 0 with unbounded demand: one memory
        # controller (or its ingress) bottlenecks the whole batch entry.
        machine = fully_connected(4)
        mix = np.zeros(4)
        mix[0] = 1.0
        consumers = [
            Consumer(f"app:{i}", i, 8, mix.copy(), float("inf"))
            for i in range(4)
        ]
        [batched] = solve_batch(machine, [consumers], DEFAULT_MC_MODEL)
        scalar = solve(machine, consumers, DEFAULT_MC_MODEL)
        _assert_allocations_equal(batched, scalar)
        assert batched.bottleneck is not None

    def test_duplicate_keys_rejected(self):
        machine = fully_connected(4)
        c = Consumer("app:0", 0, 8, np.full(4, 0.25), 1.0)
        with pytest.raises(ValueError, match="duplicate consumer keys"):
            solve_batch(machine, [[c, c]], DEFAULT_MC_MODEL)
        with pytest.raises(ValueError, match="duplicate consumer keys"):
            solve(machine, [c, c], DEFAULT_MC_MODEL)


class TestFleetBatchMatchesScalar:
    """The heterogeneous fleet batch is the scalar solve re-expressed."""

    def _fleet_entries(self, seed=1234, rounds=12):
        # One shared Machine object per class, as the fleet layer holds
        # them (machine_tables memoises per instance).
        machines = [machine_a(), machine_b(), fully_connected(4), ring(6)]
        rng = np.random.RandomState(seed)
        entries = []
        for _ in range(rounds):
            m = machines[rng.randint(len(machines))]
            entries.append((m, _random_consumers(rng, m, rng.randint(0, 7))))
        return entries

    @staticmethod
    def _solved(entries, tails_of):
        """``(got, expected)`` per entry: the sum of the fleet batch's
        trailing ``tails_of(live)`` slot rates, and the bitwise sum the
        scalar solve gives those consumers, in slot order."""
        rows = [(m, consumer_rows(m).add_live(cs)) for m, cs in entries]
        lives = [[c for c in cs if not c.is_idle] for _m, cs in entries]
        tails = [tails_of(live) for live in lives]
        batch = solve_batch_fleet_lazy(rows, DEFAULT_MC_MODEL)
        got = [sum(r[len(r) - k :], 0.0) for r, k in zip(batch, tails)]
        expected = []
        for (m, cs), live, k in zip(entries, lives, tails):
            alloc = solve(m, cs, DEFAULT_MC_MODEL)
            expected.append(sum([alloc.rates[c.key()] for c in live[len(live) - k :]], 0.0))
        return got, expected

    def test_heterogeneous_entries_bitwise(self):
        entries = self._fleet_entries()
        for k in range(7):
            got, expected = self._solved(entries, lambda live: min(k, len(live)))
            assert got == expected

    def test_entry_rates_are_the_scalar_rates(self):
        """Every slot rate of an entry is the scalar solve's rate of that
        consumer (the fluid backend replays whole entries)."""
        entries = self._fleet_entries(seed=99)
        rows = [(m, consumer_rows(m).add_live(cs)) for m, cs in entries]
        for (m, cs), rates in zip(entries, solve_batch_fleet_lazy(rows, DEFAULT_MC_MODEL)):
            alloc = solve(m, cs, DEFAULT_MC_MODEL)
            assert rates == tuple(alloc.rates[c.key()] for c in cs if not c.is_idle)

    def test_lazy_batch_scores_match_allocations(self):
        entries = self._fleet_entries(seed=7)
        got, _expected = self._solved(entries, lambda live: min(1, len(live)))
        assert len(got) == len(entries)
        for (m, cs), score in zip(entries, got):
            live = [c for c in cs if not c.is_idle]
            # Each consumer is its own app: a one-slot tail is that app's
            # total, read off the rate tensor.
            app = live[-1].app_id if live else "app:none"
            assert score == solve(m, cs, DEFAULT_MC_MODEL).app_total_rate(app)

    def test_empty_and_all_idle_fleet(self):
        assert len(solve_batch_fleet_lazy([], DEFAULT_MC_MODEL)) == 0
        m = fully_connected(4)
        idle = [Consumer("app:0", 0, 4, np.zeros(4), 0.0)]
        assert consumer_rows(m).add_live(idle) == []
        assert solve_batch_fleet_lazy([(m, []), (m, [])], DEFAULT_MC_MODEL) == [(), ()]
        assert solve(m, idle).app_total_rate("app:0") == 0.0


# --------------------------------------------------------------------- #
# Loop-free contractions match the per-slot loops they replaced
# --------------------------------------------------------------------- #

_MACHINES = {"A": machine_a(), "B": machine_b(), "ring4": ring(4), "fc3": fully_connected(3)}


@st.composite
def _padded_batches(draw):
    """A machine and a dense ``(batch, slot)`` consumer batch whose dead
    slots (idle or trailing padding) carry arbitrary nodes and mixes."""
    machine = _MACHINES[draw(st.sampled_from(sorted(_MACHINES)))]
    n = machine.num_nodes
    num_batch = draw(st.integers(1, 3))
    num_slots = draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    node_idx = rng.integers(0, n, size=(num_batch, num_slots))
    mix = rng.dirichlet(np.ones(n), size=(num_batch, num_slots))
    mix[rng.random(mix.shape) < 0.3] = 0.0  # sparse mixes, some all-zero
    live = rng.random((num_batch, num_slots)) < 0.7
    demand = rng.uniform(0.5, 30.0, size=(num_batch, num_slots))
    write_fraction = rng.uniform(0.0, 1.0, size=(num_batch, num_slots))
    return machine, node_idx, mix, demand, write_fraction, live


class TestLoopFreeContractions:
    @settings(max_examples=60, deadline=None)
    @given(
        # Past 8 slots numpy's pairwise ``sum`` would reorder the adds.
        shape=st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(0, 24)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_axis_n_dot_is_the_sequential_sum(self, shape, seed):
        rng = np.random.default_rng(seed)
        A = rng.uniform(0.0, 3.0, size=shape)
        A[rng.random(shape) < 0.4] = 0.0
        x = rng.uniform(0.0, 50.0, size=(shape[0], shape[2]))
        got = contention._axis_n_dot(A, x)
        want = loops.axis_n_dot(A, x)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(batch=_padded_batches())
    def test_batch_setup_scatters_match_slot_loops(self, batch):
        machine, node_idx, mix, demand, write_fraction, live = batch
        got = solve_batch_arrays(machine, node_idx, mix, demand, write_fraction, live)
        t, touched, caps = got.tables, got.touched, got.caps
        masked = np.where(live[:, :, None], mix, 0.0)
        A = batch_coefficients(machine, node_idx, masked, write_fraction)
        want_touched = loops.ingress_touched(
            ((A > 0.0) & live[:, None, :]).any(axis=2), t.ingress_rows, node_idx, live
        )
        assert np.array_equal(touched, want_touched)
        readers = loops.node_present(node_idx, masked).sum(axis=1)
        want_caps = np.broadcast_to(t.static_caps, caps.shape).copy()
        want_caps[:, t.mc_rows] = t.eff_table(DEFAULT_MC_MODEL)[
            np.arange(machine.num_nodes)[None, :], readers
        ]
        want_caps = np.where(want_touched, want_caps, np.inf)
        assert caps.tobytes() == want_caps.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(batch=_padded_batches())
    def test_solve_matches_loop_contraction(self, batch):
        """The whole fill, run once with each contraction: every output
        array is bitwise the same."""
        got = solve_batch_arrays(*batch)
        real = contention._axis_n_dot
        contention._axis_n_dot = loops.axis_n_dot
        try:
            want = solve_batch_arrays(*batch)
        finally:
            contention._axis_n_dot = real
        for name in ("rates", "load", "caps", "util", "touched", "bottleneck_row"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_ingress_rows_are_exercised(self):
        assert all((machine_tables(m).ingress_rows >= 0).any() for m in _MACHINES.values())
