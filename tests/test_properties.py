"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.dwp import combine_weights
from repro.core.interleave import (
    algorithm1_subranges,
    apply_weighted_placement,
    apply_weighted_user,
)
from repro.memsim.contention import solve
from repro.memsim.controller import MCModel
from repro.memsim.flows import Consumer
from repro.memsim.interleave import weighted_assignment, weighted_counts
from repro.memsim.mbind import MbindFlag, MPol, mbind
from repro.memsim.pages import UNALLOCATED, AddressSpace
from repro.topology import fully_connected
from repro.units import PAGE_SIZE
from tests.oracle.flat_rebind import uniform_assignment

IDEAL_MC = MCModel(efficiency_floor=0.9999, contention_decay=0.0, write_cost_factor=1.0)

# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #

weights_strategy = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    min_size=2,
    max_size=8,
).filter(lambda w: sum(w) > 0.1)

positive_weights_strategy = st.lists(
    st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    min_size=2,
    max_size=8,
)


class TestWeightedCountsProperties:
    @given(n=st.integers(min_value=0, max_value=5000), w=weights_strategy)
    def test_counts_sum_to_n(self, n, w):
        assert weighted_counts(n, w).sum() == n

    @given(n=st.integers(min_value=1, max_value=5000), w=weights_strategy)
    def test_counts_within_one_of_ideal(self, n, w):
        counts = weighted_counts(n, w)
        ideal = np.asarray(w) / sum(w) * n
        assert (np.abs(counts - ideal) < 1.0 + 1e-9).all()

    @given(n=st.integers(min_value=0, max_value=1000), w=weights_strategy)
    def test_zero_weight_zero_pages(self, n, w):
        w = list(w) + [0.0]
        counts = weighted_counts(n, w)
        assert counts[-1] == 0


class TestAssignmentProperties:
    @given(
        n=st.integers(min_value=0, max_value=2000),
        k=st.integers(min_value=1, max_value=8),
        phase=st.integers(min_value=0, max_value=100),
    )
    def test_uniform_assignment_balanced(self, n, k, phase):
        a = uniform_assignment(n, list(range(k)), phase=phase)
        counts = np.bincount(a, minlength=k)
        assert counts.max() - counts.min() <= 1

    @given(n=st.integers(min_value=1, max_value=2000), w=positive_weights_strategy)
    def test_weighted_assignment_counts_exact(self, n, w):
        a = weighted_assignment(n, w)
        counts = np.bincount(a, minlength=len(w))
        assert (counts == weighted_counts(n, w)).all()

    @given(n=st.integers(min_value=100, max_value=2000), w=positive_weights_strategy)
    def test_weighted_assignment_prefix_balance(self, n, w):
        # Any prefix of the interleave stays within a few pages per node of
        # the proportional share — the defining property of interleaving
        # versus contiguous blocks.
        a = weighted_assignment(n, w)
        half = a[: n // 2]
        counts = np.bincount(half, minlength=len(w))
        ideal = np.asarray(w) / sum(w) * len(half)
        assert (np.abs(counts - ideal) <= len(w) + 1).all()


class TestAlgorithm1Properties:
    @given(n=st.integers(min_value=0, max_value=5000), w=positive_weights_strategy)
    def test_plan_tiles_exactly(self, n, w):
        plan = algorithm1_subranges(n, w)
        covered = 0
        for start, length, nodes in plan:
            assert start == covered
            assert length > 0
            assert len(nodes) > 0
            covered += length
        assert covered == n

    @given(n=st.integers(min_value=500, max_value=5000), w=positive_weights_strategy)
    @settings(deadline=None)
    def test_achieved_ratios_close_to_weights(self, n, w):
        space = AddressSpace(len(w))
        seg = space.map_segment("s", n * PAGE_SIZE)
        apply_weighted_user(space, seg, w)
        target = np.asarray(w) / sum(w)
        achieved = space.placement_distribution()
        # Total-variation error bounded by ~N nodes' rounding over n pages,
        # plus the uniform-interleave remainder inside each sub-range.
        tv = 0.5 * np.abs(achieved - target).sum()
        assert tv <= (2.0 * len(w) ** 2) / n + 0.02

    @given(n=st.integers(min_value=1, max_value=5000), w=positive_weights_strategy)
    def test_pages_conserved(self, n, w):
        space = AddressSpace(len(w))
        seg = space.map_segment("s", n * PAGE_SIZE)
        apply_weighted_user(space, seg, w)
        assert space.node_histogram().sum() == n


class TestCombineWeightsProperties:
    @given(
        w=positive_weights_strategy,
        dwp=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        data=st.data(),
    )
    def test_output_is_distribution_and_monotone(self, w, dwp, data):
        k = data.draw(st.integers(min_value=1, max_value=len(w)))
        workers = tuple(range(k))
        out = combine_weights(w, workers, dwp)
        assert out.sum() == pytest.approx(1.0)
        assert (out >= -1e-12).all()
        # Worker mass never decreases with DWP.
        base = combine_weights(w, workers, 0.0)
        assert out[list(workers)].sum() >= base[list(workers)].sum() - 1e-9


@st.composite
def canonical_and_workers(draw):
    """A canonical vector and a worker set that holds some of its mass."""
    c = draw(
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=8)
    )
    workers = draw(
        st.lists(
            st.integers(0, len(c) - 1), min_size=1, max_size=len(c), unique=True
        )
    )
    c = np.array(c)
    # The mass must survive normalisation: a subnormal share underflows to 0.
    assume(c.sum() > 0 and (c[workers] / c.sum() > 0).any())
    return c, tuple(workers)


class TestStructuralClaims:
    """The paper's DWP end points (Section III-B) over arbitrary canonical
    vectors and worker sets."""

    @given(cw=canonical_and_workers())
    def test_dwp_zero_is_normalised_canonical(self, cw):
        c, workers = cw
        out = combine_weights(c, workers, 0.0)
        assert np.abs(out - c / c.sum()).max() <= 1e-12

    @given(cw=canonical_and_workers())
    def test_dwp_one_puts_nothing_off_workers(self, cw):
        c, workers = cw
        out = combine_weights(c, workers, 1.0)
        off = np.ones(len(c), dtype=bool)
        off[list(workers)] = False
        assert (out[off] == 0).all()
        assert out.sum() == pytest.approx(1.0)

    @settings(deadline=None, max_examples=60)
    @given(
        cw=canonical_and_workers(),
        pages=st.lists(st.integers(1, 300), min_size=1, max_size=3),
        mode=st.sampled_from(["user", "kernel"]),
    )
    def test_dwp_one_places_every_page_on_workers(self, cw, pages, mode):
        c, workers = cw
        space = AddressSpace(len(c))
        for i, n in enumerate(pages):
            space.map_segment(f"s{i}", n * PAGE_SIZE)
        apply_weighted_placement(space, combine_weights(c, workers, 1.0), mode=mode)
        nodes = space.page_nodes()
        assert (nodes != UNALLOCATED).all()
        assert np.isin(nodes, workers).all()


class TestMbindProperties:
    @given(
        pages=st.integers(min_value=1, max_value=2000),
        k=st.integers(min_value=1, max_value=6),
        data=st.data(),
    )
    @settings(deadline=None)
    def test_mbind_move_is_idempotent(self, pages, k, data):
        nodes = list(range(k))
        space = AddressSpace(k)
        space.map_segment("s", pages * PAGE_SIZE)
        mbind(space, 0, pages, MPol.INTERLEAVE, nodes, flags=MbindFlag.MOVE)
        first = space.page_nodes().copy()
        res = mbind(space, 0, pages, MPol.INTERLEAVE, nodes, flags=MbindFlag.MOVE)
        assert res.pages_moved == 0
        assert (space.page_nodes() == first).all()

    @given(
        pages=st.integers(min_value=1, max_value=2000),
        k=st.integers(min_value=2, max_value=6),
    )
    def test_migration_count_bounded_by_pages(self, pages, k):
        space = AddressSpace(k)
        space.map_segment("s", pages * PAGE_SIZE)
        mbind(space, 0, pages, MPol.BIND, [0])
        res = mbind(space, 0, pages, MPol.BIND, [1], flags=MbindFlag.MOVE)
        assert 0 <= res.pages_moved <= pages


class TestSolverProperties:
    @given(
        demands=st.lists(
            st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
            min_size=1,
            max_size=4,
        ),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(deadline=None, max_examples=40)
    def test_feasibility_and_demand_caps(self, demands, seed):
        machine = fully_connected(4, cores_per_node=4, local_bw=20.0, remote_bw=8.0)
        rng = np.random.default_rng(seed)
        consumers = []
        for i, d in enumerate(demands):
            mix = rng.random(4)
            mix = mix / mix.sum()
            consumers.append(Consumer(f"a{i}", i % 4, 4, mix, d))
        alloc = solve(machine, consumers, IDEAL_MC)
        # 1. No resource over capacity.
        for key, u in alloc.utilization.items():
            assert u <= 1.0 + 1e-6
        # 2. No consumer above its demand.
        for c in consumers:
            assert alloc.rates[c.key()] <= c.demand + 1e-9
        # 3. Rates non-negative.
        assert all(r >= 0 for r in alloc.rates.values())

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(deadline=None, max_examples=30)
    def test_max_min_fairness_pareto(self, seed):
        # Increasing one unbounded consumer's rate must be impossible
        # without a saturated resource on its path.
        machine = fully_connected(3, cores_per_node=4, local_bw=15.0, remote_bw=6.0)
        rng = np.random.default_rng(seed)
        consumers = []
        for i in range(3):
            mix = rng.random(3)
            mix = mix / mix.sum()
            consumers.append(Consumer(f"a{i}", i, 4, mix, float("inf")))
        alloc = solve(machine, consumers, IDEAL_MC)
        for c in consumers:
            bottleneck = alloc.bottleneck[c.key()]
            assert bottleneck is not None
            assert alloc.utilization[bottleneck] >= 1.0 - 1e-6
