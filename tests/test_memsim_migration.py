"""Migration accounting and its page-size-aware cost model."""

import pytest

from repro.memsim.migration import DEFAULT_PAGE_MIGRATION_COST_S, MigrationEngine
from repro.units import MiB, PAGE_SIZE


class TestCostModel:
    def test_default_4k_cost_in_literature_band(self):
        # 1-3 microseconds per 4 KB page.
        assert 1e-6 <= DEFAULT_PAGE_MIGRATION_COST_S <= 3e-6

    def test_cost_grows_with_page_size(self):
        eng = MigrationEngine()
        assert eng.page_cost_s(2 * MiB) > 100 * eng.page_cost_s(PAGE_SIZE)

    def test_huge_page_cost_is_copy_dominated(self):
        eng = MigrationEngine(fixed_cost_s=2e-7, copy_bandwidth_gbps=2.0)
        cost = eng.page_cost_s(2 * MiB)
        copy_time = 2 * MiB / 2.0e9
        assert cost == pytest.approx(copy_time, rel=0.01)

    def test_rejects_bad_page_size(self):
        with pytest.raises(ValueError):
            MigrationEngine().page_cost_s(0)


class TestMigrationEngine:
    def test_record_returns_cost(self):
        eng = MigrationEngine(fixed_cost_s=1e-6, copy_bandwidth_gbps=4.096)
        # 1 us fixed + 4096 B / 4.096 GB/s = 2 us per page.
        assert eng.record("a", 1000) == pytest.approx(2e-3)

    def test_stats_accumulate(self):
        eng = MigrationEngine()
        eng.record("a", 100)
        eng.record("a", 200)
        s = eng.stats("a")
        assert s.pages_moved == 300
        assert s.migration_calls == 2
        assert s.time_spent_s == pytest.approx(300 * eng.page_cost_s())

    def test_bytes_tracked_per_page_size(self):
        eng = MigrationEngine()
        eng.record("a", 10, page_size=2 * MiB)
        assert eng.stats("a").bytes_moved == 20 * MiB

    def test_per_app_isolation(self):
        eng = MigrationEngine()
        eng.record("a", 10)
        eng.record("b", 20)
        assert eng.stats("a").pages_moved == 10
        assert eng.stats("b").pages_moved == 20
        assert eng.total_pages_moved() == 30

    def test_unknown_app_zero_stats(self):
        assert MigrationEngine().stats("nope").pages_moved == 0

    def test_zero_pages_free(self):
        eng = MigrationEngine()
        assert eng.record("a", 0) == 0.0
        assert eng.stats("a").migration_calls == 1

    def test_reset(self):
        eng = MigrationEngine()
        eng.record("a", 5)
        eng.reset()
        assert eng.total_pages_moved() == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MigrationEngine().record("a", -1)
        with pytest.raises(ValueError):
            MigrationEngine(fixed_cost_s=-1.0)
        with pytest.raises(ValueError):
            MigrationEngine(copy_bandwidth_gbps=0.0)
