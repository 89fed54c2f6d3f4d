"""The bandwidth-contention solver: max-min filling and profiling."""

import numpy as np
import pytest

from repro.memsim.contention import DEFAULT_MC_MODEL, proportional_profile, solve
from repro.memsim.controller import MCModel
from repro.memsim.flows import Consumer, consumer_from_placement

#: Controller model with no de-rating, for exact-arithmetic assertions.
IDEAL_MC = MCModel(efficiency_floor=0.9999, contention_decay=0.0, write_cost_factor=1.0)


def one_hot(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


class TestSingleConsumer:
    def test_local_only_hits_mc_capacity(self, mach_a):
        c = Consumer("a", 0, 8, one_hot(8, 0), float("inf"))
        alloc = solve(mach_a, [c], IDEAL_MC)
        assert alloc.rate("a", 0) == pytest.approx(9.2, rel=1e-3)
        assert alloc.bottleneck[("a", 0)] == ("mc", 0)

    def test_demand_cap_respected(self, mach_a):
        c = Consumer("a", 0, 8, one_hot(8, 0), demand=3.0)
        alloc = solve(mach_a, [c], IDEAL_MC)
        assert alloc.rate("a", 0) == pytest.approx(3.0)
        assert alloc.bottleneck[("a", 0)] is None  # satisfied, not throttled

    def test_remote_only_hits_link(self, mach_a):
        c = Consumer("a", 0, 8, one_hot(8, 1), float("inf"))
        alloc = solve(mach_a, [c], IDEAL_MC)
        # bw(N2 -> N1) = 5.5 GB/s virtual link.
        assert alloc.rate("a", 0) == pytest.approx(5.5, rel=1e-3)

    def test_spreading_beats_local_only(self, mach_a):
        local = Consumer("a", 0, 8, one_hot(8, 0), float("inf"))
        spread = Consumer("a", 0, 8, np.full(8, 1 / 8), float("inf"))
        r_local = solve(mach_a, [local], IDEAL_MC).rate("a", 0)
        r_spread = solve(mach_a, [spread], IDEAL_MC).rate("a", 0)
        # The paper's core premise: remote bandwidth adds to local.
        assert r_spread > r_local

    def test_ingress_limits_remote_aggregate(self, mach_a):
        # All-remote mix cannot exceed the ingress port.
        mix = np.full(8, 1 / 7)
        mix[0] = 0.0
        c = Consumer("a", 0, 8, mix, float("inf"))
        alloc = solve(mach_a, [c], IDEAL_MC)
        assert alloc.rate("a", 0) <= mach_a.ingress_capacity(0) + 1e-6

    def test_idle_consumer_gets_zero(self, mach_a):
        c = Consumer("a", 0, 8, np.zeros(8), 0.0)
        alloc = solve(mach_a, [c], IDEAL_MC)
        assert alloc.rate("a", 0) == 0.0

    def test_empty_consumer_list(self, mach_a):
        alloc = solve(mach_a, [], IDEAL_MC)
        assert alloc.rates == {}


class TestFairnessAndSharing:
    def test_two_consumers_share_mc_fairly(self, small_symmetric):
        m = small_symmetric
        c0 = Consumer("a", 0, 4, one_hot(2, 0), float("inf"))
        c1 = Consumer("b", 0, 4, one_hot(2, 0), float("inf"))
        alloc = solve(m, [c0, c1], IDEAL_MC)
        assert alloc.rate("a", 0) == pytest.approx(alloc.rate("b", 0), rel=1e-6)
        total = alloc.rate("a", 0) + alloc.rate("b", 0)
        assert total == pytest.approx(20.0, rel=1e-3)

    def test_max_min_protects_small_consumer(self, small_symmetric):
        m = small_symmetric
        big = Consumer("big", 0, 4, one_hot(2, 0), float("inf"))
        small = Consumer("small", 0, 4, one_hot(2, 0), demand=2.0)
        alloc = solve(m, [big, small], IDEAL_MC)
        # The small consumer gets its full demand; the big one takes the rest.
        assert alloc.rate("small", 0) == pytest.approx(2.0, rel=1e-3)
        assert alloc.rate("big", 0) == pytest.approx(18.0, rel=1e-3)

    def test_duplicate_consumer_keys_rejected(self, small_symmetric):
        c = Consumer("a", 0, 4, one_hot(2, 0), 1.0)
        with pytest.raises(ValueError):
            solve(small_symmetric, [c, c], IDEAL_MC)

    def test_capacity_never_exceeded(self, mach_a):
        rng = np.random.default_rng(0)
        consumers = []
        for i, node in enumerate([0, 1, 4, 5]):
            mix = rng.random(8)
            mix /= mix.sum()
            consumers.append(Consumer(f"app{i}", node, 8, mix, float("inf")))
        alloc = solve(mach_a, consumers, IDEAL_MC)
        for key, u in alloc.utilization.items():
            assert u <= 1.0 + 1e-6, f"resource {key} over capacity"

    def test_write_traffic_costs_more_at_mc(self, small_symmetric):
        m = small_symmetric
        mc = MCModel(efficiency_floor=0.9999, contention_decay=0.0, write_cost_factor=2.0)
        reader = Consumer("r", 0, 4, one_hot(2, 0), float("inf"), write_fraction=0.0)
        writer = Consumer("w", 0, 4, one_hot(2, 0), float("inf"), write_fraction=1.0)
        r_read = solve(m, [reader], mc).rate("r", 0)
        r_write = solve(m, [writer], mc).rate("w", 0)
        assert r_write == pytest.approx(r_read / 2.0, rel=1e-3)


class TestLinkCongestionOnRing:
    def test_shared_link_throttles(self, ring4):
        # Consumers at 0 and 1 both read node 2; flows 2->0 route 2->1->0?
        # In a 4-ring, route(2,0) goes through 1 or 3; route(2,1) is direct.
        # Reading from the common neighbour stresses the shared link.
        c0 = Consumer("a", 1, 4, one_hot(4, 2), float("inf"))
        c1 = Consumer("b", 1, 4, one_hot(4, 2), float("inf"))
        alloc = solve(ring4, [c0, c1], IDEAL_MC)
        total = alloc.rate("a", 1) + alloc.rate("b", 1)
        # Both share the single 2->1 link of 8 GB/s.
        assert total <= 8.0 + 1e-6

    def test_multi_hop_overhead_consumes_extra_link(self, ring4):
        c = Consumer("a", 0, 4, one_hot(4, 2), float("inf"))
        alloc = solve(ring4, [c], IDEAL_MC)
        # 2 hops at hop_efficiency 0.7: effective rate below raw link cap.
        assert alloc.rate("a", 0) <= 8.0 * 0.7 + 1e-6


class TestConsumerValidation:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Consumer("a", 0, 1, np.array([0.5, 0.4]), 1.0)

    def test_mix_all_zero_is_idle(self):
        c = Consumer("a", 0, 1, np.zeros(2), 1.0)
        assert c.is_idle

    def test_negative_mix_rejected(self):
        with pytest.raises(ValueError):
            Consumer("a", 0, 1, np.array([1.5, -0.5]), 1.0)

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            Consumer("a", 0, 1, np.array([1.0]), -1.0)

    def test_bad_write_fraction_rejected(self):
        with pytest.raises(ValueError):
            Consumer("a", 0, 1, np.array([1.0]), 1.0, write_fraction=1.5)

    def test_consumer_from_placement_normalises(self):
        c = consumer_from_placement("a", 0, 4, np.array([2.0, 2.0]), 5.0)
        assert c.mix == pytest.approx([0.5, 0.5])


class TestProportionalProfile:
    def test_single_worker_local_keeps_peak(self, mach_a):
        p = proportional_profile(mach_a, [0])
        assert p[0, 0] == pytest.approx(9.2, rel=1e-3)

    def test_remote_structure_preserved(self, mach_a):
        # Relative ordering of remote bandwidths into one worker survives
        # the concurrent-load throttling.
        p = proportional_profile(mach_a, [0])
        nominal = mach_a.nominal_bandwidth_matrix()[:, 0]
        measured = p[:, 0]
        remote = [i for i in range(8) if i != 0]
        for i in remote:
            for j in remote:
                if nominal[i] > nominal[j] * 1.01:
                    assert measured[i] >= measured[j] - 1e-9

    def test_non_worker_columns_zero(self, mach_a):
        p = proportional_profile(mach_a, [0, 1])
        assert (p[:, 2:] == 0).all()

    def test_profile_fits_ingress(self, mach_a):
        p = proportional_profile(mach_a, [3])
        remote_total = p[:, 3].sum() - p[3, 3]
        assert remote_total <= mach_a.ingress_capacity(3) + 1e-6

    def test_profile_below_nominal(self, mach_a):
        p = proportional_profile(mach_a, [0, 1, 2, 3])
        nominal = mach_a.nominal_bandwidth_matrix()
        for w in range(4):
            assert (p[:, w] <= nominal[:, w] + 1e-9).all()

    def test_mc_waterfill_equalises_under_heavy_sharing(self, mach_a):
        # With 4 workers, each worker source's controller is split fairly:
        # its remote flows are not crushed below the non-workers' (the
        # property that makes canonical weights tend to uniformity).
        p = proportional_profile(mach_a, [0, 1, 2, 3])
        worker_min = p[:4, :4].min()
        assert worker_min > 0.5

    def test_rejects_empty_workers(self, mach_a):
        with pytest.raises(ValueError):
            proportional_profile(mach_a, [])

    def test_rejects_duplicate_workers(self, mach_a):
        with pytest.raises(ValueError):
            proportional_profile(mach_a, [0, 0])

    def test_rejects_bad_worker(self, mach_a):
        with pytest.raises(ValueError):
            proportional_profile(mach_a, [99])


class TestAllocationAccessors:
    def test_app_rates_and_total(self, small_symmetric):
        c0 = Consumer("a", 0, 4, one_hot(2, 0), 2.0)
        c1 = Consumer("a", 1, 4, one_hot(2, 1), 3.0)
        alloc = solve(small_symmetric, [c0, c1], IDEAL_MC)
        assert alloc.app_rates("a") == {0: pytest.approx(2.0), 1: pytest.approx(3.0)}
        assert alloc.app_total_rate("a") == pytest.approx(5.0)

    def test_unused_resource_utilization_zero(self, small_symmetric):
        c = Consumer("a", 0, 4, one_hot(2, 0), 1.0)
        alloc = solve(small_symmetric, [c], IDEAL_MC)
        assert alloc.resource_utilization(("link", 0, 1)) == 0.0


def _fingerprint(consumers, mc_model=DEFAULT_MC_MODEL):
    """Exact, hashable identity of a solve input on one machine: the MC
    model parameters and every consumer's identity, demand, write
    fraction and raw mix bytes — everything :func:`solve` reads."""
    return (
        mc_model.efficiency_floor,
        mc_model.contention_decay,
        mc_model.write_cost_factor,
        tuple(
            (
                c.app_id,
                c.node,
                c.demand,
                c.write_fraction,
                np.ascontiguousarray(c.mix, dtype=float).tobytes(),
            )
            for c in consumers
        ),
    )


def _cached_solve(cache, machine, consumers, mc_model=DEFAULT_MC_MODEL):
    """:func:`solve` through ``cache``, keyed by the input's fingerprint."""
    key = _fingerprint(consumers, mc_model)
    alloc = cache.lookup(key)
    if alloc is None:
        alloc = solve(machine, consumers, mc_model)
        cache.store(key, alloc)
    return alloc


class TestSolverCache:
    def _consumers(self, demand=4.0):
        return [
            Consumer("a", 0, 8, np.array([0.5, 0.5, 0.0, 0.0, 0, 0, 0, 0]), demand),
            Consumer("a", 1, 8, np.array([0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0]), demand),
        ]

    def test_replays_identical_allocation_object(self, mach_a):
        from repro.memsim.contention import SolverCache

        cache = SolverCache()
        first = _cached_solve(cache, mach_a, self._consumers())
        second = _cached_solve(cache, mach_a, self._consumers())
        assert second is first
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_any_input_change_invalidates(self, mach_a):
        from repro.memsim.contention import SolverCache

        cache = SolverCache()
        _cached_solve(cache, mach_a, self._consumers(demand=4.0))
        _cached_solve(cache, mach_a, self._consumers(demand=5.0))  # demand change
        mixed = self._consumers()
        mixed[0] = Consumer("a", 0, 8, np.array([1.0, 0, 0, 0, 0, 0, 0, 0]), 4.0)
        _cached_solve(cache, mach_a, mixed)  # placement (mix) change
        _cached_solve(cache, mach_a, mixed[:1])  # app departure
        assert cache.hits == 0 and cache.misses == 4

    def test_mc_model_part_of_key(self, mach_a):
        from repro.memsim.contention import SolverCache

        cache = SolverCache()
        _cached_solve(cache, mach_a, self._consumers(), IDEAL_MC)
        _cached_solve(cache, mach_a, self._consumers(), MCModel())
        assert cache.misses == 2

    def test_lru_eviction_bounded(self, mach_a):
        from repro.memsim.contention import SolverCache

        cache = SolverCache(maxsize=2)
        for d in (1.0, 2.0, 3.0, 4.0):
            _cached_solve(cache, mach_a, self._consumers(demand=d))
        assert len(cache) == 2
        # Oldest entry was evicted: re-solving it misses again.
        _cached_solve(cache, mach_a, self._consumers(demand=1.0))
        assert cache.misses == 5 and cache.hits == 0

    def test_rejects_bad_maxsize(self):
        from repro.memsim.contention import SolverCache

        with pytest.raises(ValueError):
            SolverCache(maxsize=0)

    def test_restore_refreshes_recency(self):
        """Re-storing an existing key must move it to the MRU end:
        with insertion-order recency a refreshed entry kept its stale
        position and was evicted immediately after being overwritten."""
        from repro.memsim.contention import SolverCache

        cache = SolverCache(maxsize=2)
        cache.store("k1", "v1")
        cache.store("k2", "v2")
        cache.store("k1", "v1-refreshed")  # overwrite: now the MRU entry
        cache.store("k3", "v3")  # evicts k2, the true LRU — not k1
        assert cache.lookup("k1") == "v1-refreshed"
        assert cache.lookup("k3") == "v3"
        assert cache.lookup("k2") is None
        assert len(cache) == 2

    def test_property_cached_equals_fresh(self, mach_a):
        """Cached and freshly-solved allocations agree exactly on randomly
        generated consumer sets (the solve is pure, so replay is exact)."""
        from repro.memsim.contention import SolverCache

        rng = np.random.default_rng(7)
        cache = SolverCache()
        for trial in range(25):
            consumers = []
            for node in range(int(rng.integers(1, 5))):
                mix = rng.random(8)
                mix /= mix.sum()
                demand = float(rng.uniform(0.5, 30.0))
                consumers.append(Consumer("app", node, 8, mix, demand))
            fresh = solve(mach_a, consumers)
            cached_cold = _cached_solve(cache, mach_a, consumers)
            cached_warm = _cached_solve(cache, mach_a, consumers)
            assert cached_warm is cached_cold
            for key, rate in fresh.rates.items():
                assert cached_warm.rates[key] == rate  # bitwise, no tolerance
            assert fresh.bottleneck == cached_warm.bottleneck
            assert fresh.capacities == cached_warm.capacities


class TestFingerprint:
    def test_stable_and_order_sensitive(self, mach_a):
        a = Consumer("a", 0, 8, one_hot(8, 0), 4.0)
        b = Consumer("b", 1, 8, one_hot(8, 1), 4.0)
        assert _fingerprint([a, b]) == _fingerprint([a, b])
        assert _fingerprint([a, b]) != _fingerprint([b, a])
        assert hash(_fingerprint([a, b])) is not None
