"""Columnar fleet results: the result views equal the per-record objects.

``FleetResult.placements`` and ``.completions`` are read-only views over
one struct-of-arrays buffer per run (:class:`~repro.fleet.backend.FleetRecords`).
The reference in ``tests/oracle/object_records.py`` builds, from hooks on
the same run, the objects the scheduler once kept per record. The tests
pin down:

* every ``FleetCompletion`` field and every placement tuple equals the
  reference with exact float equality, fault-free and under
  ``chaos_plan``, on the ``flow`` and ``sim`` backends;
* the counts derived from the columns (SLO violations, completed work
  summed in record order, end time) equal the reference's;
* completions that finish at the same instant order by the decimal
  string of ``job{i}`` (``job10`` before ``job2``), not by ``i``;
* the views support ``len``, indexing, slicing and iteration, and compare
  equal to lists of the same records and to each other.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fleet import RECOVERIES, FleetScheduler, SchedulerConfig, build_fleet, chaos_plan
from repro.workloads import TraceSpec, trace_catalog
from repro.workloads.arrivals import ArrivalTrace

from tests.oracle.object_records import record_objects

_CATALOG = trace_catalog(TraceSpec())
_MIXES = ((("A", 2), ("sym4", 2)), (("B", 1), ("dual", 2)), (("sym4", 6),))


def _trace(seed: int, n: int, tied: bool) -> ArrivalTrace:
    """``n`` arrivals; ``tied`` ones all arrive at 0 as the same job, so
    apps on identical idle machines finish at the same instant."""
    rng = np.random.default_rng(seed)
    if tied:
        times, kinds, scale = np.zeros(n), np.zeros(n, dtype=int), np.full(n, 0.05)
    else:
        times = np.sort(rng.uniform(0.0, 4.0 * n, n))
        kinds = rng.integers(0, len(_CATALOG), n)
        scale = rng.uniform(0.02, 0.2, n)
    return ArrivalTrace(TraceSpec(arrivals=n), times, kinds, scale, _CATALOG)


def _run(backend, seed, n, tied, chaos, mix, recovery="requeue+checkpoint", max_pending=8):
    fleet = build_fleet(mix)
    faults = None
    if chaos:
        faults = chaos_plan(
            len(fleet), 8.0 * n, seed=seed, admission_reject_prob=0.1, lost_completion_prob=0.3
        )
    cfg = SchedulerConfig(
        backend=backend, tick_s=2.0, recovery=recovery,
        max_pending_per_tick=max_pending,
    )
    sched = FleetScheduler(fleet, _trace(seed, n, tied), cfg, seed=seed, faults=faults)
    reference = record_objects(sched)
    out = sched.run(1_000_000.0)
    return out, *reference()


def _check(out, placements, completions) -> None:
    assert len(out.placements) == out.placed == len(placements)
    assert len(out.completions) == len(completions)
    for got, want in zip(out.placements, placements):
        assert got == want
    for got, want in zip(out.completions, completions):
        # Field by field, exact floats (== on floats is bitwise here: no
        # NaN, and -0.0 never occurs in these times).
        for name in want.__dataclass_fields__:
            assert getattr(got, name) == getattr(want, name), name
    assert out.placements == placements and placements == out.placements
    assert out.completions == completions and completions == out.completions
    assert out.slo_violations == sum(not c.slo_ok for c in completions)
    assert out.completed_work_bytes == math.fsum(c.work_bytes for c in completions)
    assert out.completions.slowdowns().tolist() == [c.slowdown for c in completions]
    assert out.completions.waits().tolist() == [c.wait_s for c in completions]
    if completions and not out.pending_left:
        assert out.end_time == max(c.finish_s for c in completions)


_runs = st.tuples(
    st.integers(0, 2**16),
    st.booleans(),
    st.booleans(),
    st.sampled_from(_MIXES),
    st.sampled_from(RECOVERIES),
)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_runs, st.integers(1, 40))
def test_flow_views_equal_object_records(run, n):
    _check(*_run("flow", run[0], n, *run[1:]))


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_runs, st.integers(1, 5))
def test_sim_views_equal_object_records(run, n):
    out, placements, completions = _run("sim", run[0], n, *run[1:])
    _check(out, placements, completions)
    assert all(c.outcome is not None for c in out.completions)


def test_ties_break_in_decimal_string_order():
    """Twelve identical jobs on twelve identical idle machines finish at
    one instant: they sort as ``job0, job1, job10, job11, job2, ...``."""
    out, placements, completions = _run(
        "flow", 0, 12, True, False, (("sym4", 12),), max_pending=12
    )
    _check(out, placements, completions)
    assert len({c.finish_s for c in out.completions}) == 1
    ids = [c.app_id for c in out.completions]
    assert ids == sorted(ids) and ids != [f"job{i}" for i in range(12)]


class TestViews:
    @pytest.fixture(scope="class")
    def run(self):
        return _run("flow", 3, 30, False, True, _MIXES[0])

    def test_sequence_protocol(self, run):
        out, placements, completions = run
        views = ((out.placements, placements), (out.completions, completions))
        for view, ref in views:
            assert len(view) == len(ref) > 3
            assert view[0] == ref[0] and view[-1] == ref[-1]
            assert view[2:5] == ref[2:5] and view[::3] == ref[::3] and view[5:2] == []
            assert list(view) == ref and list(reversed(view)) == ref[::-1]
            assert ref[1] in view
            with pytest.raises(IndexError):
                view[len(ref)]
            with pytest.raises(TypeError):
                view[0] = ref[0]
        assert out.completions != completions[:-1]
        assert out.placements != out.completions
        assert out.completions != "completions"

    def test_equal_runs_have_equal_views(self, run):
        out = run[0]
        again = _run("flow", 3, 30, False, True, _MIXES[0])[0]
        assert again.placements == out.placements
        assert again.completions == out.completions
