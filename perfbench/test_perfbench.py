"""Tests of the benchmark itself: span accounting and output checks.

Run from the root of the repository::

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import math
import os
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import cases
import rep
import run
import spans

ROOT = os.path.dirname(run.HERE)


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _nested_tree():
    """op(0..10) > engine(1..9) > contention(2..4), migration(5..8) >
    contention(6..7); plus a second op(10..13) > store.put(11..12)."""
    clock = FakeClock()
    rec = spans.SpanRecorder(clock)

    def leaf(duration):
        clock.now += duration

    contention = rec.wrap("memsim.contention", leaf)

    def migrate():
        clock.now += 1.0
        contention(1.0)
        clock.now += 1.0

    migration = rec.wrap("memsim.migration", migrate)

    def run_engine():
        clock.now += 1.0
        contention(2.0)
        clock.now += 1.0
        migration()
        clock.now += 1.0

    engine = rec.wrap("engine", run_engine)
    put = rec.wrap("store.put", leaf)
    with rec.op_scope(1):
        clock.now += 1.0
        engine()
        clock.now += 1.0
    with rec.op_scope(2):
        clock.now += 1.0
        put(1.0)
        clock.now += 1.0
    return rec


def test_self_times_of_a_nested_span_tree():
    rec = _nested_tree()
    arrays = rec.arrays()
    names = [str(arrays["names"][i]) for i in arrays["name"]]
    got = dict(zip(range(len(names)), zip(names, spans.self_times(arrays))))
    assert got == {
        0: ("op", 2.0),
        1: ("engine", 3.0),
        2: ("memsim.contention", 2.0),
        3: ("memsim.migration", 2.0),
        4: ("memsim.contention", 1.0),
        5: ("op", 2.0),
        6: ("store.put", 1.0),
    }
    summary = spans.summarise(arrays)
    assert summary["layer_self_s"]["memsim.contention"] == 3.0
    assert summary["layer_self_s"]["engine"] == 3.0
    assert summary["layer_self_s"]["memsim.migration"] == 2.0
    assert summary["layer_self_s"]["store"] == 1.0
    assert summary["layer_self_s"]["other"] == 4.0
    assert summary["calls"]["memsim.contention"] == 2
    assert summary["inclusive_s"]["store.put"] == 1.0
    assert summary["ops"] == {1: (10.0, 10.0, 0), 2: (3.0, 3.0, 0)}
    assert spans.check_accounting(summary) == []


def test_accounting_flags_spans_outside_an_op_and_broken_nesting():
    rec = _nested_tree()
    rec.wrap("store.put", lambda: None)()  # outside every op
    assert spans.check_accounting(spans.summarise(rec.arrays()))
    arrays = _nested_tree().arrays()
    arrays["end"][2] += 7.0  # a child outliving its parent
    errs = spans.check_accounting(spans.summarise(arrays))
    assert errs == ["op 1: 1 spans outside their parent's interval"]


def test_reentrant_spans_count_once():
    rec = spans.SpanRecorder(FakeClock())

    class Base:
        def on_epoch(self):
            pass

    class Child(Base):
        def on_epoch(self):
            super().on_epoch()

    spans._patch(rec, Base, "on_epoch", "core.dwp.on_epoch")
    spans._patch(rec, Child, "on_epoch", "core.dwp.on_epoch")
    with rec.op_scope(1):
        Child().on_epoch()
    assert spans.summarise(rec.arrays())["calls"]["core.dwp.on_epoch"] == 1


@pytest.fixture(scope="module")
def paper():
    case = cases.PaperCase(cases.DEFAULT_SEED)
    case.setup(scratch_dir=os.devnull)
    return case


def _outcome(policy):
    from repro.experiments.common import RunOutcome

    tuned = policy in ("bwap", "bwap-uniform")
    return RunOutcome(
        exec_time_s=12.5,
        mean_stall=0.25,
        throughput_gbps=30.0,
        pages_moved=100 if tuned else 0,
        final_dwp=0.3 if tuned else None,
        tuner_iterations=4 if tuned else None,
    )


def test_paper_check_catches_a_one_ulp_perturbation(paper):
    outs = [_outcome(spec.policy) for spec in paper.specs]
    digests, failures = rep.check(paper, outs, None)
    assert failures == []
    outs[7] = outs[7].__class__(
        **{**outs[7].__dict__, "exec_time_s": math.nextafter(12.5, math.inf)}
    )
    _digests, failures = rep.check(paper, outs, digests)
    assert len(failures) == 1 and "golden" in failures[0]


def test_paper_invariants(paper):
    outs = [_outcome(spec.policy) for spec in paper.specs]
    outs[0] = outs[0].__class__(**{**outs[0].__dict__, "exec_time_s": math.inf})
    _digests, failures = rep.check(paper, outs, None)
    assert len(failures) == 1 and "exec_time_s" in failures[0]
    assert paper.num_ops == 150 and len(paper.cells) == 25


def _fleet_result(n=4):
    completions = [
        SimpleNamespace(
            app_id=f"job{i}", mid=i % 2, workers=(0,), arrival_s=float(i),
            placed_s=float(i), finish_s=i + 2.0, ideal_s=1.0, slowdown=2.0,
            attempts=1, slo_ok=True, work_bytes=1.0,
        )
        for i in range(n)
    ]
    return SimpleNamespace(
        placements=[(c.app_id, c.mid, c.workers) for c in completions],
        completions=completions, arrivals=n, placed=n, pending_left=0,
        ticks=n, entries_scored=2 * n, requeues=0, stranded=0,
        admission_rejections=0, arrived_work_bytes=float(n),
        completed_work_bytes=float(n),
    )


def _fleet_case(n=4):
    case = cases.FleetChaosCase(cases.DEFAULT_SEED)
    case.trace = [None] * n
    return case


def test_fleet_check_catches_lost_arrivals_and_perturbed_output():
    case = _fleet_case()
    good = _fleet_result()
    digests, failures = rep.check(case, [good], None)
    assert failures == []

    lost = _fleet_result()
    lost.completions.pop()
    _d, failures = rep.check(case, [lost], None)
    assert len(failures) == 1 and "conservation" in failures[0]

    moved = _fleet_result()
    moved.completions[2].finish_s = math.nextafter(moved.completions[2].finish_s, 0)
    _d, failures = rep.check(case, [moved], digests)
    assert len(failures) == 1 and "golden" in failures[0]


def test_missing_observability_counters_are_missing_not_failures():
    case = _fleet_case()
    result = _fleet_result()
    counts = case.counts([result])
    assert counts["fleet.scheduler.memo_hits"] is None
    assert counts["fleet.scheduler.memo_hit_ratio"] is None
    assert rep.check(case, [result], None)[1] == []


def test_benchmark_json_declares_what_the_runner_reports(paper):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    layer_names = {name for name, _unit in run.PER_LAYER}
    reported = set(spans.layer_metrics(spans.summarise(_nested_tree().arrays()), Counter()))
    reported |= set(_fleet_case().counts([_fleet_result()]))
    reported |= set(paper.counts([_outcome(spec.policy) for spec in paper.specs]))
    reported |= {"host.calib_ms", "trace.overhead_ratio"}
    assert reported == layer_names


def test_goldens_cover_every_op_of_the_default_seed():
    with open(rep.GOLDENS) as fh:
        goldens = json.load(fh)
    assert goldens["seed"] == cases.DEFAULT_SEED
    assert len(goldens["paper"]) == 150
    assert len(goldens["fleet-chaos"]) == 1


def test_host_speed_samples_in_the_main_thread_and_restores_the_handler():
    before = rep.signal.getsignal(rep.signal.SIGALRM)
    with rep.HostSpeed() as host:
        t_end = rep.time.perf_counter() + 4 * rep.SAMPLE_EVERY_S
        while rep.time.perf_counter() < t_end:
            pass
    assert len(host.samples) >= 2 and host.chunk_ms > 0
    assert host.spent_s >= sum(host.samples[:-1])
    assert rep.signal.getsignal(rep.signal.SIGALRM) is before


def test_percentile_matches_numpy():
    xs = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    for q in (0, 50, 90, 100):
        assert run.percentile(xs, q) == pytest.approx(float(np.percentile(xs, q)))
