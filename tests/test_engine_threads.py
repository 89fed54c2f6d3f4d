"""Thread placement (the AsymSched rule of thumb)."""

import numpy as np
import pytest

from repro.engine.threads import (
    pick_worker_nodes,
    pin_threads,
    threads_per_node,
    worker_set_score,
)


class TestPickWorkerNodes:
    def test_picks_highest_aggregate_bw_pair(self, mach_a):
        w = pick_worker_nodes(mach_a, 2)
        # Same-socket pairs (5.4-5.5 GB/s both ways) dominate on machine A.
        best = worker_set_score(mach_a, w)
        for cand in mach_a.worker_sets_of_size(2):
            assert best >= worker_set_score(mach_a, cand) - 1e-9

    def test_single_worker(self, mach_a):
        w = pick_worker_nodes(mach_a, 1)
        # Highest local bandwidth node wins (10.5 on nodes 4-7).
        assert mach_a.node(w[0]).local_bandwidth == 10.5

    def test_full_machine(self, mach_b):
        assert pick_worker_nodes(mach_b, 4) == (0, 1, 2, 3)

    def test_exclusion(self, mach_b):
        w = pick_worker_nodes(mach_b, 2, exclude=[0, 1])
        assert w == (2, 3)

    def test_deterministic(self, mach_a):
        assert pick_worker_nodes(mach_a, 3) == pick_worker_nodes(mach_a, 3)

    def test_rejects_too_many(self, mach_b):
        with pytest.raises(ValueError):
            pick_worker_nodes(mach_b, 5)
        with pytest.raises(ValueError):
            pick_worker_nodes(mach_b, 3, exclude=[0, 1])


    @pytest.mark.parametrize("num_workers", [True, False, 2.0, "2", None])
    def test_rejects_non_int_count(self, mach_a, num_workers):
        with pytest.raises(ValueError, match="num_workers must be an integer"):
            pick_worker_nodes(mach_a, num_workers)

    @pytest.mark.parametrize("exclude", [[99], [8], [-1], [0, 99], ["0"]])
    def test_rejects_unknown_excluded_nodes(self, mach_a, exclude):
        with pytest.raises(ValueError, match="not on the machine"):
            pick_worker_nodes(mach_a, 1, exclude=exclude)

    def test_numpy_int_count_accepted(self, mach_b):
        assert pick_worker_nodes(mach_b, np.int64(2)) == pick_worker_nodes(mach_b, 2)

    @pytest.mark.parametrize("exclude", [(), (3,), (2, 0), (0, 2, 2)])
    def test_memoised_per_machine(self, mach_a, monkeypatch, exclude):
        import repro.engine.threads as threads_mod

        first = pick_worker_nodes(mach_a, 2, exclude=exclude)
        calls = []
        monkeypatch.setattr(
            threads_mod, "worker_set_score", lambda *a: calls.append(a) or 0.0
        )
        # Same count and excluded set, in any order: no search at all.
        again = pick_worker_nodes(mach_a, 2, exclude=tuple(reversed(exclude)))
        assert again == first and calls == []
        # The memo lives on the machine instance, not on equal machines.
        from repro.topology import machine_a

        pick_worker_nodes(machine_a(), 2, exclude=exclude)
        assert calls


class TestPinThreads:
    def test_defaults_to_full_nodes(self, mach_a):
        pins = pin_threads(mach_a, (0, 1))
        assert len(pins) == 16
        assert threads_per_node(pins) == {0: 8, 1: 8}

    def test_even_split(self, mach_a):
        pins = pin_threads(mach_a, (0, 1), 8)
        assert threads_per_node(pins) == {0: 4, 1: 4}

    def test_rejects_uneven_split(self, mach_a):
        with pytest.raises(ValueError):
            pin_threads(mach_a, (0, 1), 7)

    def test_rejects_oversubscription(self, mach_a):
        with pytest.raises(ValueError):
            pin_threads(mach_a, (0,), 9)

    def test_rejects_empty_workers(self, mach_a):
        with pytest.raises(ValueError):
            pin_threads(mach_a, (), 4)

    def test_rejects_zero_threads(self, mach_a):
        with pytest.raises(ValueError):
            pin_threads(mach_a, (0,), 0)
