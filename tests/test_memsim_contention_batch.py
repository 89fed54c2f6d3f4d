"""Property tests for the batched contention solver.

:func:`solve_batch` must be the scalar :func:`solve` run elementwise —
bitwise, not approximately: the simulator's solver cache fingerprints
allocations, and the batched search's trajectories must be replayable one
candidate at a time. Every comparison here is exact equality on the full
:class:`Allocation` surface (rates, bottleneck, utilization, capacities,
per-app groupings).
"""

import numpy as np
import pytest

from repro.memsim.contention import (
    Allocation,
    solve,
    solve_batch,
    solve_batch_fleet_lazy,
)
from repro.memsim.controller import DEFAULT_MC_MODEL
from repro.memsim.flows import Consumer
from repro.topology import fully_connected, machine_a, machine_b, ring


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

    def test_heterogeneous_entries_bitwise(self):
        entries = self._fleet_entries()
        fleet = solve_batch_fleet_lazy(entries, DEFAULT_MC_MODEL)
        assert len(fleet) == len(entries)
        for i, (m, cs) in enumerate(entries):
            _assert_allocations_equal(
                fleet.allocation(i), solve(m, cs, DEFAULT_MC_MODEL)
            )

    def test_lazy_batch_scores_match_allocations(self):
        entries = self._fleet_entries(seed=7)
        batch = solve_batch_fleet_lazy(entries, DEFAULT_MC_MODEL)
        assert len(batch) == len(entries)
        for i, (m, cs) in enumerate(entries):
            scalar = solve(m, cs, DEFAULT_MC_MODEL)
            for aid in {c.app_id for c in cs}:
                # Score read off the rate tensor, before materialising.
                assert batch.app_total_rate(i, aid) == scalar.app_total_rate(aid)
            _assert_allocations_equal(batch.allocation(i), scalar)
            # Memoised: the same Allocation object comes back.
            assert batch.allocation(i) is batch.allocation(i)

    def test_empty_and_all_idle_fleet(self):
        assert len(solve_batch_fleet_lazy([], DEFAULT_MC_MODEL)) == 0
        m = fully_connected(4)
        idle = [Consumer("app:0", 0, 4, np.zeros(4), 0.0)]
        batch = solve_batch_fleet_lazy([(m, idle), (m, [])], DEFAULT_MC_MODEL)
        assert batch.app_total_rate(0, "app:0") == 0.0
        _assert_allocations_equal(batch.allocation(0), solve(m, idle))
        _assert_allocations_equal(batch.allocation(1), solve(m, []))
