"""Page-count conservation: the kept ``(segments x nodes)`` matrix under
random sequences of every page-table writer, and the block's vectorised
traffic mixes, both against per-page recounts (``tests/oracle/page_counts``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interleave import apply_weighted_placement
from repro.engine import Application, Simulator
from repro.faults import FaultPlan, MigrationFaultSpec
from repro.memsim import (
    AutoNUMA,
    CarrefourLike,
    FirstTouch,
    UniformAll,
    UniformWorkers,
    WeightedInterleave,
)
from repro.memsim.mbind import MbindFlag, MPol, mbind, mbind_segment
from repro.memsim.pages import UNALLOCATED, SegmentKind
from repro.memsim.replication import ReplicatedShared
from repro.topology import hybrid_dram_nvm, machine_b
from repro.units import PAGE_SIZE
from repro.workloads.base import WorkloadSpec
from tests.oracle.hardened_tuner import interleave_write
from tests.oracle.page_counts import check_counts, recount, traffic_mix_reference

MACHINE_B = machine_b()
HYBRID = hybrid_dram_nvm()  # nodes 2 and 3 are memory-only

_FLAGS = [MbindFlag.NONE, MbindFlag.MOVE, MbindFlag.MOVE | MbindFlag.STRICT, MbindFlag.STRICT]


def _workload(shared_pages, private_pages, private_fraction=0.5, write_fraction=0.2):
    return WorkloadSpec(
        name="t",
        read_bw_node=8.0 * (1 - write_fraction),
        write_bw_node=8.0 * write_fraction,
        private_fraction=private_fraction if private_pages else 0.0,
        latency_weight=0.1,
        shared_bytes=shared_pages * PAGE_SIZE,
        private_bytes_per_thread=private_pages * PAGE_SIZE,
        work_bytes=1e9,
    )


def _weights(data, n):
    return data.draw(
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(lambda w: sum(w) > 0.1),
        label="weights",
    )


def _write(data, sim, app, step):
    """One random write through a production writer."""
    space, n = app.space, app.machine.num_nodes
    node = st.integers(0, n - 1)
    total = space.total_pages
    page = st.integers(0, total - 1)
    op = data.draw(
        st.sampled_from(
            ["map", "map_each", "touch", "touch_all", "mbind", "mbind_segment", "set_pages", "assign_pages",
             "weighted", "autonuma", "migrate", "same_counts"]
        ),
        label="op",
    )
    seg = data.draw(st.sampled_from(space.segments), label="segment")
    if op == "map":
        size = data.draw(st.integers(1, 9), label="pages") * PAGE_SIZE
        if data.draw(st.booleans(), label="private"):
            owners = data.draw(st.lists(st.integers(0, app.num_threads - 1), min_size=1, max_size=3))
            names = [f"p{step}-{j}" for j in range(len(owners))]
            space.map_segments(names, size, SegmentKind.PRIVATE, owners)
        else:
            space.map_segment(f"s{step}", size)
    elif op == "map_each":
        # One at a time: the count rows grow past their capacity.
        for j in range(data.draw(st.integers(1, 5), label="segments")):
            space.map_segment(f"e{step}-{j}", data.draw(st.integers(1, 3)) * PAGE_SIZE)
    elif op == "touch":
        if data.draw(st.booleans(), label="partly backed first"):
            space.set_pages(seg.start_page, np.array([data.draw(node)], dtype=np.int16))
        space.touch(seg, data.draw(node))
    elif op == "touch_all":
        nodes = data.draw(st.lists(node, min_size=len(space.segments), max_size=len(space.segments)))
        unbacked = int(np.count_nonzero(space.page_nodes() == UNALLOCATED))
        assert space.touch_all(nodes) == unbacked
        assert not (space.page_nodes() == UNALLOCATED).any()
    elif op in ("mbind", "mbind_segment"):
        policy = data.draw(st.sampled_from([MPol.BIND, MPol.INTERLEAVE, MPol.WEIGHTED_INTERLEAVE]))
        nodes = (
            [data.draw(node)]
            if policy is MPol.BIND
            else data.draw(st.lists(node, min_size=1, unique=True), label="nodes")
        )
        weights = _weights(data, len(nodes)) if policy is MPol.WEIGHTED_INTERLEAVE else None
        flags = data.draw(st.sampled_from(_FLAGS), label="flags")
        try:
            if op == "mbind":
                start = data.draw(page, label="start")
                length = data.draw(st.integers(0, total - start), label="length")
                mbind(space, start, length, policy, nodes, weights=weights, flags=flags,
                      phase=data.draw(st.integers(-9, 9)))
            else:
                mbind_segment(space, seg, policy, nodes, weights=weights, flags=flags)
        except PermissionError:
            assert flags is MbindFlag.STRICT
    elif op == "set_pages":
        start = data.draw(page, label="start")
        values = data.draw(st.lists(node, max_size=total - start), label="values")
        space.set_pages(start, np.array(values, dtype=np.int16))
    elif op == "assign_pages":
        idx = data.draw(st.lists(page, max_size=12, unique=True), label="indices")
        values = data.draw(st.lists(node, min_size=len(idx), max_size=len(idx)))
        space.assign_pages(np.array(idx, dtype=int), np.array(values, dtype=int))
    elif op == "weighted":
        mode = data.draw(st.sampled_from(["user", "kernel"]), label="mode")
        apply_weighted_placement(space, _weights(data, n), mode=mode, move=data.draw(st.booleans()))
    elif op == "autonuma":
        fraction = data.draw(st.sampled_from([0.25, 0.5, 1.0]), label="fraction")
        AutoNUMA(migration_fraction=fraction).step(space, app.ctx, 0)
    elif op == "migrate":
        weights = _weights(data, n)
        mode = data.draw(st.sampled_from(["user", "kernel"]))
        sim.migrate_placement(app, interleave_write(weights, mode))
    else:
        # An unchanged move write of a whole segment hands its counts over.
        rows = recount(space)
        i = space.segments.index(seg)
        if rows[i].sum() == seg.num_pages:
            assert space.rebind(seg.start_page, space.page_nodes(seg).copy(), counts=rows[i]) == (0, 0)
            assert space.counts[i].tolist() == rows[i].tolist()


class TestCountConservation:
    """After every write the kept matrix equals the per-page recount."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_write_sequences(self, data):
        plan = FaultPlan(
            seed=data.draw(st.integers(0, 99), label="seed"),
            migration=MigrationFaultSpec(
                page_failure_prob=data.draw(st.sampled_from([0.0, 0.3, 0.9])),
                transient_reject_prob=data.draw(st.sampled_from([0.0, 0.5])),
            ),
        )
        sim = Simulator(MACHINE_B, faults=plan)
        app = sim.add_app(
            Application(
                "a",
                _workload(data.draw(st.integers(1, 12)), data.draw(st.integers(0, 5))),
                MACHINE_B,
                (0, 1),
                num_threads=2,
                policy=data.draw(st.sampled_from([None, FirstTouch(), UniformAll()])),
            )
        )
        check_counts(app.space)
        for step in range(data.draw(st.integers(1, 12), label="steps")):
            _write(data, sim, app, step)
            check_counts(app.space)


def _check_mixes(app):
    block = app.block()
    for j, w in enumerate(app.worker_nodes):
        assert block.rows[j].tobytes() == traffic_mix_reference(app, w).tobytes(), w


class TestVectorisedMixes:
    """``block()``'s one-pass mixes are bitwise the scalar per-worker
    traffic mix over recounted histograms."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_block_rows_match_scalar_reference(self, data):
        hybrid = data.draw(st.booleans(), label="memory-only worker")
        machine = HYBRID if hybrid else MACHINE_B
        if hybrid:
            workers = data.draw(st.sampled_from([(0, 2), (0, 1, 3), (1, 2, 3)]), label="workers")
        else:
            workers = tuple(data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True)))
        policy = data.draw(
            st.sampled_from(
                [None, FirstTouch(), UniformWorkers(), UniformAll(), AutoNUMA(),
                 WeightedInterleave([0.4, 0.3, 0.2, 0.1]), ReplicatedShared(),
                 CarrefourLike(replication_write_threshold=0.5)]
            ),
            label="policy",
        )
        wl = _workload(
            data.draw(st.integers(1, 40), label="shared pages"),
            data.draw(st.sampled_from([0, 1, 3]), label="private pages"),
            private_fraction=data.draw(st.sampled_from([0.0, 0.3, 0.9, 1.0])),
            write_fraction=0.05,  # read-mostly, so the replicating policies accept it
        )
        compute = sum(machine.node(w).num_cores > 0 for w in workers)
        app = Application("x", wl, machine, workers, num_threads=2 * compute, policy=policy)
        _check_mixes(app)
        for step in range(data.draw(st.integers(0, 4), label="steps")):
            if data.draw(st.booleans(), label="autonuma step") and isinstance(policy, AutoNUMA):
                policy.step(app.space, app.ctx, step)
            else:
                apply_weighted_placement(app.space, _weights(data, machine.num_nodes))
            _check_mixes(app)

    @pytest.mark.parametrize("private_pages", [0, 2])
    def test_replicating_policy_rows_are_local(self, private_pages):
        app = Application(
            "x", _workload(8, private_pages, write_fraction=0.05), MACHINE_B, (0, 1),
            num_threads=2, policy=ReplicatedShared(),
        )
        assert app.policy.replicates_shared
        _check_mixes(app)
        if not private_pages:
            np.testing.assert_array_equal(app.block().mix, np.eye(4)[[0, 1]])
