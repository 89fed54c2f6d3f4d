"""The fleet layer: traces, cluster building, scheduler equivalences.

The two load-bearing properties:

1. **Batched == scalar** — the state-keyed tick (one fleet-batched solve
   per tick, at most) and the exhaustive reference of
   ``tests/oracle/exhaustive_tick.py`` (one scalar solve per candidate)
   produce byte-for-byte the same placements, completions, and
   utilisation.
2. **1-machine reduction** — a fleet of one simulator-backed machine
   given a single arrival at t=0 reproduces the single-machine
   :func:`run_scenario` outcome bit-for-bit: the fleet admits apps
   through the identical deployment code path.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.experiments.common import get_machine, run_scenario
from repro.experiments.fleet import (
    FleetSpec,
    fleet_fingerprint,
    outcome_from_result,
    run_fleet_spec,
    run_fleet_specs,
)
from repro.fleet import (
    FleetScheduler,
    SchedulerConfig,
    build_fleet,
    class_machine,
    machine_classes,
    machine_seed,
    parse_mix,
    register_machine_class,
)
from repro.store import ResultStore
from repro.topology import fully_connected
from repro.workloads import (
    ArrivalTrace,
    TraceSpec,
    build_trace,
    streamcluster,
)

from tests.oracle.exhaustive_tick import OracleScheduler


# --------------------------------------------------------------------- #
# Arrival traces
# --------------------------------------------------------------------- #


class TestTraces:
    @pytest.mark.parametrize("kind", ["poisson", "diurnal", "bursty"])
    def test_exact_count_sorted_deterministic(self, kind):
        spec = TraceSpec(kind=kind, rate_per_s=2.0, arrivals=500, seed=9)
        t1 = build_trace(spec)
        t2 = build_trace(spec)
        assert len(t1) == 500
        assert np.all(np.diff(t1.times) >= 0)
        assert np.all(t1.times > 0)
        np.testing.assert_array_equal(t1.times, t2.times)
        np.testing.assert_array_equal(t1.kind_idx, t2.kind_idx)
        np.testing.assert_array_equal(t1.work_scale, t2.work_scale)

    @pytest.mark.parametrize("kind", ["poisson", "diurnal", "bursty"])
    def test_long_run_rate_matches_spec(self, kind):
        spec = TraceSpec(kind=kind, rate_per_s=4.0, arrivals=20_000, seed=3)
        trace = build_trace(spec)
        empirical = len(trace) / float(trace.times[-1])
        # The MMPP's sojourn autocorrelation converges slowly, so the
        # bursty empirical rate gets a wider band.
        assert empirical == pytest.approx(4.0, rel=0.25 if kind == "bursty" else 0.1)

    def test_million_arrivals_is_cheap(self):
        trace = build_trace(
            TraceSpec(kind="poisson", rate_per_s=100.0, arrivals=1_000_000)
        )
        assert len(trace) == 1_000_000
        # Dense arrays, not per-arrival objects.
        assert trace.times.nbytes == 8_000_000

    def test_workloads_are_scaled_catalog_entries(self):
        trace = build_trace(TraceSpec(arrivals=20, seed=1))
        for i in range(len(trace)):
            wl = trace.workload(i)
            base = trace.catalog[int(trace.kind_idx[i])]
            assert wl.work_bytes == base.work_bytes * float(trace.work_scale[i])
            assert wl == dataclasses.replace(base, work_bytes=wl.work_bytes)
        assert trace.app_id(3) == "job3"
        trace.work_scale[0] = 0.0
        with pytest.raises(ValueError, match="work_bytes must be positive"):
            trace.workload(0)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown trace kind"):
            TraceSpec(kind="pareto")
        with pytest.raises(ValueError, match="rate_per_s"):
            TraceSpec(rate_per_s=0.0)
        with pytest.raises(ValueError, match="amplitude"):
            TraceSpec(amplitude=1.0)
        with pytest.raises(ValueError, match="burst_fraction"):
            TraceSpec(burst_fraction=1.0)

    @pytest.mark.parametrize("kind", ["poisson", "diurnal", "bursty"])
    def test_zero_arrivals(self, kind):
        """An empty trace builds, and a fleet run over it terminates
        immediately with nothing placed."""
        trace = build_trace(TraceSpec(kind=kind, arrivals=0))
        assert len(trace) == 0
        fleet = build_fleet((("A", 1),))
        result = FleetScheduler(fleet, trace, SchedulerConfig()).run(1000.0)
        assert result.arrivals == 0
        assert result.placed == 0
        assert result.completions == []
        assert result.ticks == 0

    def test_single_arrival_exactly_at_horizon(self):
        """An arrival landing exactly on ``max_time`` is never ingested
        (the clock stops there first) and the run still terminates."""
        wl = streamcluster()
        trace = ArrivalTrace(
            TraceSpec(arrivals=1),
            times=np.array([100.0]),
            kind_idx=np.zeros(1, dtype=np.int64),
            work_scale=np.ones(1),
            catalog=(wl,),
        )
        fleet = build_fleet((("A", 1),))
        result = FleetScheduler(fleet, trace, SchedulerConfig()).run(100.0)
        assert result.placed == 0
        assert result.pending_left == 0
        assert result.completions == []
        assert result.end_time == 100.0

    def test_bursty_collapsing_windows_bounded_chunks(self):
        """Near-zero burst sojourns blow up the expected sojourn-pair
        count; the chunked draw stays exact (count, order, determinism)
        with each allocation capped rather than sized to the
        expectation."""
        spec = TraceSpec(
            kind="bursty", rate_per_s=2.0, arrivals=600, mean_burst_s=2e-5, seed=3
        )
        t1 = build_trace(spec)
        t2 = build_trace(spec)
        assert len(t1) == 600
        assert np.all(np.diff(t1.times) >= 0)
        np.testing.assert_array_equal(t1.times, t2.times)
        # Long-run rate still matches despite the degenerate bursts.
        empirical = len(t1) / float(t1.times[-1])
        assert empirical == pytest.approx(2.0, rel=0.35)


# --------------------------------------------------------------------- #
# Cluster construction
# --------------------------------------------------------------------- #


class TestCluster:
    def test_build_fleet_mids_and_shared_machines(self):
        fleet = build_fleet((("A", 2), ("B", 1), ("dual", 1)))
        assert [n.mid for n in fleet] == [0, 1, 2, 3]
        assert [n.class_name for n in fleet] == ["A", "A", "B", "dual"]
        # Same-class nodes share one Machine object: the batched solver
        # groups entries by machine-table identity.
        assert fleet[0].machine is fleet[1].machine
        assert fleet[0].machine is class_machine("A")

    def test_parse_mix(self):
        assert parse_mix("A:16,B:16") == (("A", 16), ("B", 16))
        with pytest.raises(ValueError):
            parse_mix("A:0")
        with pytest.raises(ValueError):
            build_fleet(())

    def test_register_machine_class(self):
        register_machine_class("tiny2", lambda: fully_connected(2))
        try:
            assert "tiny2" in machine_classes()
            fleet = build_fleet((("tiny2", 2),))
            assert fleet[0].machine.num_nodes == 2
        finally:
            register_machine_class("tiny2", None)
        assert "tiny2" not in machine_classes()


# --------------------------------------------------------------------- #
# Batched vs scalar scoring
# --------------------------------------------------------------------- #


def _run_small_fleet(cls, discipline="best-rate", backend="flow"):
    fleet = build_fleet((("A", 2), ("B", 2), ("sym4", 2)))
    trace = build_trace(
        TraceSpec(kind="bursty", rate_per_s=1.0, arrivals=30, seed=5)
    )
    config = SchedulerConfig(backend=backend, discipline=discipline, tick_s=2.0)
    return cls(fleet, trace, config, seed=11).run(200_000.0)


class TestBatchedScalarEquivalence:
    @pytest.mark.parametrize(
        "discipline", ["best-rate", "first-fit", "least-loaded"]
    )
    def test_flow_backend_bitwise(self, discipline):
        batched = _run_small_fleet(FleetScheduler, discipline)
        scalar = _run_small_fleet(OracleScheduler, discipline)
        assert batched.placements == scalar.placements
        assert batched.completions == scalar.completions
        assert batched.utilization == scalar.utilization
        assert batched.end_time == scalar.end_time
        # Everything placed and finished in this small run.
        assert batched.placed == 30 and batched.pending_left == 0
        assert len(batched.completions) == 30
        # At most one solver call per tick, not one per entry.
        assert batched.solver_calls <= batched.ticks
        assert scalar.solver_calls == scalar.entries_scored

    def test_outcome_summary_equal(self):
        a = outcome_from_result(_run_small_fleet(FleetScheduler))
        b = outcome_from_result(_run_small_fleet(OracleScheduler))
        # The solver accounting measures the scoring path itself;
        # everything else must agree exactly.
        neutral = dict(solver_calls=0, entries_scored=0, memo_hits=0)
        assert dataclasses.replace(a, **neutral) == dataclasses.replace(b, **neutral)
        assert a.p99_slowdown >= a.p50_slowdown >= 1.0


# --------------------------------------------------------------------- #
# Scheduler input validation
# --------------------------------------------------------------------- #


def _five_arrival_scheduler(**config):
    trace = build_trace(TraceSpec(kind="poisson", rate_per_s=1.0, arrivals=5, seed=1))
    return FleetScheduler(build_fleet((("A", 1),)), trace, SchedulerConfig(**config))


class TestSchedulerValidation:
    @pytest.mark.parametrize(
        "knob, value",
        [
            ("tick_s", float("nan")),
            ("tick_s", float("inf")),
            ("retry_backoff_s", float("nan")),
            ("slo_slowdown", float("nan")),
            ("breaker_cooldown_s", float("nan")),
            ("max_retries", 2.0),
            ("max_retries", True),
            ("max_pending_per_tick", 8.0),
            ("max_pending_per_tick", True),
            ("max_time", float("nan")),
        ],
    )
    def test_rejects_non_finite_and_non_int_knobs(self, knob, value):
        """Each bad knob raises a ValueError naming it, up front — never a
        deep traceback mid-run or a run that silently places nothing."""
        with pytest.raises(ValueError, match=knob):
            if knob == "max_time":
                _five_arrival_scheduler().run(value)
            else:
                SchedulerConfig(**{knob: value})

    def test_infinite_horizon_drains(self):
        result = _five_arrival_scheduler().run(float("inf"))
        assert result.placed == 5 and result.pending_left == 0
        assert len(result.completions) == 5


# --------------------------------------------------------------------- #
# Single-machine reduction
# --------------------------------------------------------------------- #


class TestSingleMachineReduction:
    @pytest.mark.parametrize("policy", ["bwap", "uniform-all"])
    def test_sim_backend_matches_run_scenario(self, policy):
        """A 1-machine fleet admitting one app at t=0 is bit-for-bit the
        single-machine scenario run with the derived machine seed."""
        wl = dataclasses.replace(streamcluster(), work_bytes=15e9)
        spec = TraceSpec(arrivals=1, seed=5)
        trace = ArrivalTrace(
            spec,
            times=np.zeros(1),
            kind_idx=np.zeros(1, dtype=np.int64),
            work_scale=np.ones(1),
            catalog=(wl,),
        )
        fleet = build_fleet((("A", 1),))
        config = SchedulerConfig(
            backend="sim", policy=policy, worker_counts=(2,), tick_s=5.0
        )
        result = FleetScheduler(fleet, trace, config, seed=42).run(36_000.0)
        assert result.placed == 1
        [comp] = result.completions
        assert comp.arrival_s == comp.placed_s == 0.0
        assert comp.wait_s == 0.0

        ref = run_scenario(
            get_machine("A"),
            wl,
            2,
            policy,
            seed=machine_seed(42, 0),
            max_time=36_000.0,
        )
        assert comp.outcome == ref
        assert comp.finish_s == ref.exec_time_s
        assert comp.slowdown == ref.exec_time_s / comp.ideal_s


# --------------------------------------------------------------------- #
# Store + parallel determinism
# --------------------------------------------------------------------- #


class TestFleetThroughStore:
    def _spec(self):
        return FleetSpec(
            mix=(("A", 2), ("B", 2)),
            trace=TraceSpec(kind="poisson", rate_per_s=1.0, arrivals=20, seed=2),
        )

    def test_store_replay_is_bitwise(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = self._spec()
        cold = run_fleet_spec(spec, store=store)
        assert store.stats.misses == 1
        warm = run_fleet_spec(spec, store=store)
        assert store.stats.hits == 1
        assert warm == cold
        assert warm.to_payload() == cold.to_payload()

    def test_corrupt_payload_recomputed(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = self._spec()
        store.put(fleet_fingerprint(spec), {"not": "a fleet outcome"})
        out = run_fleet_spec(spec, store=store)
        assert store.stats.corrupt == 1
        assert out == run_fleet_spec(spec, store=store)

    def test_fingerprint_sensitivity(self):
        base = self._spec()
        assert fleet_fingerprint(base) == fleet_fingerprint(self._spec())
        for change in (
            {"mix": (("A", 2), ("B", 3))},
            {"backend": "sim"},
            {"discipline": "first-fit"},
            {"tick_s": 4.0},
            {"seed": 43},
            {"trace": TraceSpec(arrivals=21)},
        ):
            assert fleet_fingerprint(
                dataclasses.replace(base, **change)
            ) != fleet_fingerprint(base)

    def test_parallel_jobs_match_serial(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BWAP_STORE", "0")
        specs = [
            dataclasses.replace(self._spec(), seed=s) for s in (1, 2, 3, 4)
        ]
        serial = run_fleet_specs(specs, jobs=1)
        parallel = run_fleet_specs(specs, jobs=2)
        assert serial == parallel
        for a, b in zip(serial, parallel):
            assert a.to_payload() == b.to_payload()
