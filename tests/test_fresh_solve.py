"""A fresh engine solve against the code it replaced.

* The progressive fill (:func:`repro.memsim.contention._progressive_fill`)
  must match its first vectorised form, kept in
  ``tests/oracle/progressive_fill.py``, on ``rates``, ``load``, ``util``
  and ``bottleneck_row`` bit for bit: on raw fill inputs, on the inputs
  dense and fleet solves build (with and without capacity scales), and on
  hand-built inputs that reach its fallback, where a saturated resource
  has no user because every coefficient on it is at most ``_EPS``.
* The epoch kernel's derived per-app records must equal those of its
  first vectorised form, kept in ``tests/oracle/derived_records.py``.
* An :class:`~repro.engine.app.AppBlock`'s coefficient columns, built once
  per placement, must be the dense solver's own columns on live slots, and
  the columns a dead slot keeps must change no solve output.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.kernel as kernel_mod
import repro.memsim.contention as contention
from repro.core import CoScheduledDWPTuner, DWPTuner
from repro.engine import Application, Simulator
from repro.faults import DEFAULT_FAULT_PLAN
from repro.memsim import FirstTouch, UniformAll
from repro.memsim.contention import (
    _EPS,
    _progressive_fill,
    batch_coefficients,
    consumer_rows,
    solve_batch_arrays,
    solve_batch_fleet_lazy,
)
from repro.perf.counters import MeasurementConfig
from repro.workloads import paper_benchmarks, streamcluster, swaptions
from tests.oracle.derived_records import compute_derived
from tests.oracle.progressive_fill import progressive_fill
from tests.test_solver_pipeline import consumer_sets, dense_batches, machines, scales

_OUTPUTS = ("rates", "load", "util", "bottleneck_row")


def _fill_both(*inputs):
    """Both fills on the same inputs: ``(got, want)``, each the outputs
    or the ``RuntimeError`` message."""
    out = []
    for fill in (_progressive_fill, progressive_fill):
        try:
            out.append(fill(*(np.array(a, copy=True) for a in inputs)))
        except RuntimeError as exc:
            out.append(str(exc))
    return out


def _assert_same_fill(*inputs):
    got, want = _fill_both(*inputs)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    for name, g, w in zip(_OUTPUTS, got, want):
        assert g.shape == w.shape and g.dtype == w.dtype, name
        assert g.tobytes() == w.tobytes(), name


def _recorded_fills(run):
    """The inputs of every fill ``run()`` makes."""
    real = contention._progressive_fill
    seen = []

    def recording(*args):
        seen.append(tuple(np.array(a, copy=True) for a in args))
        return real(*args)

    contention._progressive_fill = recording
    try:
        run()
    finally:
        contention._progressive_fill = real
    return seen


@st.composite
def raw_fills(draw):
    """Fill inputs with no machine behind them: coefficients of zero, at
    most ``_EPS`` or ordinary size, zero, finite and infinite capacities
    on touched and untouched rows, and zero, finite or unbounded demands."""
    num_batch = draw(st.integers(1, 3))
    num_res = draw(st.integers(1, 6))
    num_slots = draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = rng.integers(0, 3, size=(num_batch, num_res, num_slots))
    A = np.where(kind == 0, 0.0, np.where(kind == 1, rng.uniform(0.1, 1.0, kind.shape) * _EPS,
                                          rng.uniform(0.1, 3.0, kind.shape)))
    caps = rng.choice([0.0, 0.5, 20.0, 1e6, np.inf], size=(num_batch, num_res), p=[0.05, 0.2, 0.5, 0.15, 0.1])
    touched = rng.random((num_batch, num_res)) < 0.8
    demand = rng.choice([0.0, 2.0, 15.0, np.inf], size=(num_batch, num_slots), p=[0.1, 0.3, 0.3, 0.3])
    demand = np.where(np.isfinite(demand), demand * rng.uniform(0.5, 1.5, demand.shape), demand)
    live = rng.random((num_batch, num_slots)) < 0.75
    return A, caps, touched, demand, live


class TestFillMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(inputs=raw_fills())
    def test_raw_inputs(self, inputs):
        _assert_same_fill(*inputs)

    @settings(max_examples=60, deadline=None)
    @given(batch=dense_batches())
    def test_dense_solves(self, batch):
        args, kwargs = batch
        [inputs] = _recorded_fills(lambda: solve_batch_arrays(*args, **kwargs))
        _assert_same_fill(*inputs)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_fleet_solves(self, data):
        entries, entry_scales = [], []
        for _ in range(data.draw(st.integers(1, 6))):
            machine = data.draw(machines())
            consumers = data.draw(consumer_sets(machine))
            entries.append((machine, consumer_rows(machine).add_live(consumers)))
            entry_scales.append(data.draw(scales(machine)))
        scaled = entry_scales if data.draw(st.booleans()) else None
        [inputs] = _recorded_fills(lambda: solve_batch_fleet_lazy(entries, capacity_scales=scaled))
        _assert_same_fill(*inputs)


def _fallback_lines():
    """Line numbers of the fill's fallback branch body."""
    import inspect

    lines, first = inspect.getsourcelines(_progressive_fill)
    start = next(i for i, line in enumerate(lines) if "if need_fallback.any():" in line)
    stop = next(i for i, line in enumerate(lines) if "active &= ~frozen" in line)
    return {first + i for i in range(start + 1, stop) if not lines[i].strip().startswith("#")}


def _traced_fallback_lines(*inputs):
    """Fallback lines the production fill runs on ``inputs``."""
    code = _progressive_fill.__code__
    wanted, hit = _fallback_lines(), set()

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno in wanted:
                hit.add(frame.f_lineno)
            return local

        return local

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        _progressive_fill(*inputs)
    finally:
        sys.settrace(previous)
    return hit


def _freeze_then_stop():
    """One element whose saturated rows have only sub-``_EPS`` coefficients.

    Untouched rows 2 and 3 carry slot 0 and slot 1; row 2 sets the first
    step, so both slots reach 1e9. Row 0 (coefficients 1e-9 on both slots)
    then sits within its slack of its capacity: saturated, but with no
    user. Row 1 (1.5e-9 on slot 0) is not saturated yet has the smaller
    gap, so the fallback freezes its user, slot 0. Slot 1 alone grows on
    to row 3's capacity, which overloads row 0; row 0 is then the tightest
    row and has no user, so the element stops.
    """
    A = np.array([[[1e-9, 1e-9], [1.5e-9, 0.0], [1.0, 0.0], [0.0, 1.0]]])
    rates = np.full((1, 2), 1e9)
    load = np.add.accumulate(A * rates[:, None, :], axis=-1)[..., -1]
    caps = np.array([[load[0, 0] + 1.9e-9, load[0, 1] + 1.6e-9, 1e9, 3e9]])
    touched = np.array([[True, True, False, False]])
    gap = caps - load
    slack = _EPS * np.maximum(caps, 1.0)
    # The premises: row 0 saturated, row 1 not, row 1 the tighter.
    assert gap[0, 0] <= slack[0, 0] and gap[0, 1] > slack[0, 1] and gap[0, 1] < gap[0, 0]
    return A, caps, touched, np.full((1, 2), np.inf), np.ones((1, 2), dtype=bool)


def _stop_at_once():
    """Two slots at 0.8e-9 on one touched row: their growth (1.6e-9)
    passes ``_EPS`` so the row saturates, but neither slot is its user and
    the tightest row is that row, so the element stops after one step."""
    A = np.array([[[0.8e-9, 0.8e-9]]])
    return A, np.array([[1.0]]), np.array([[True]]), np.full((1, 2), np.inf), np.ones((1, 2), dtype=bool)


def _stacked(*elements):
    """Elements of one slot and resource count as one batch."""
    return tuple(np.concatenate(parts) for parts in zip(*elements))


class TestFillFallback:
    def test_freeze_tightest_users_then_stop(self):
        inputs = _freeze_then_stop()
        _assert_same_fill(*inputs)
        rates, _load, _util, bottleneck = _progressive_fill(*inputs)
        # Slot 0 froze at the first step; slot 1 grew on to row 3's cap.
        assert rates.tolist() == [[1e9, 3e9]]
        assert bottleneck.tolist() == [[-1, -1]]
        assert _traced_fallback_lines(*inputs) == _fallback_lines()

    def test_stop_without_tight_users(self):
        inputs = _stop_at_once()
        _assert_same_fill(*inputs)
        rates, _load, _util, bottleneck = _progressive_fill(*inputs)
        assert rates[0, 0] == rates[0, 1] == 1.0 / 1.6e-9
        assert bottleneck.tolist() == [[-1, -1]]
        assert _traced_fallback_lines(*inputs)

    def test_fallback_element_beside_a_regular_one(self):
        """The fallback acts on its own element only: the regular element
        (one user at coefficient 1 on a 10 GB/s row) saturates its row."""
        regular = (
            np.array([[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]),
            np.array([[10.0, np.inf, np.inf, np.inf]]),
            np.array([[True, False, False, False]]),
            np.full((1, 2), np.inf),
            np.array([[True, False]]),
        )
        for batch in (_stacked(_freeze_then_stop(), regular), _stacked(regular, _freeze_then_stop())):
            _assert_same_fill(*batch)
        rates, _load, _util, bottleneck = _progressive_fill(*_stacked(_freeze_then_stop(), regular))
        assert rates[1].tolist() == [10.0, 0.0] and bottleneck[1].tolist() == [0, -1]

    def test_unbounded_allocation_raises(self):
        """An unbounded slot whose every coefficient is at most ``_EPS``
        touches no finite resource: both fills refuse it."""
        inputs = (np.array([[[1e-10]]]), np.array([[1.0]]), np.array([[True]]),
                  np.array([[np.inf]]), np.array([[True]]))
        got, want = _fill_both(*inputs)
        assert want == got == "unbounded allocation: consumer touches no finite resource"


# --------------------------------------------------------------------- #
# Derived records and block coefficients
# --------------------------------------------------------------------- #

QUICK = dict(config=MeasurementConfig(n=6, c=1, t=0.1), warmup_s=0.2)
SUITE = {wl.name: wl for wl in paper_benchmarks()}


def _checked_derives(monkeypatch, sim, max_time):
    """Run ``sim``, checking every derivation against the reference;
    returns how many were checked."""
    real = kernel_mod.EpochKernel._compute_derived
    calls = []

    def checked(self, ws, apps, rates_row, util_row):
        got = real(self, ws, apps, rates_row, util_row)
        assert got == compute_derived(self, ws, apps, rates_row, util_row)
        calls.append(got)
        return got

    monkeypatch.setattr(kernel_mod.EpochKernel, "_compute_derived", checked)
    sim.run(max_time=max_time)
    return len(calls)


class TestDerivedRecords:
    @pytest.mark.parametrize("faults", [None, DEFAULT_FAULT_PLAN], ids=["clean", "faulted"])
    def test_coscheduled_climb(self, monkeypatch, mach_a, canonical_a, faults):
        sim = Simulator(mach_a, faults=faults)
        rest = tuple(n for n in mach_a.node_ids if n not in (0, 1))
        sim.add_app(Application("bg", swaptions(), mach_a, rest, policy=FirstTouch(), looping=True))
        app = sim.add_app(Application("fg", streamcluster(), mach_a, (0, 1), policy=None))
        sim.add_tuner(CoScheduledDWPTuner(app, canonical_a.weights((0, 1)), "bg", **QUICK))
        assert _checked_derives(monkeypatch, sim, 200.0) > 5

    @pytest.mark.parametrize("name", sorted(SUITE))
    def test_solo_climb(self, monkeypatch, mach_b, canonical_b, name):
        sim = Simulator(mach_b)
        app = sim.add_app(Application("a", SUITE[name], mach_b, (0, 2), policy=None))
        sim.add_tuner(DWPTuner(app, canonical_b.weights((0, 2)), **QUICK))
        assert _checked_derives(monkeypatch, sim, 200.0) > 5


class TestBlockCoefficients:
    def test_live_columns_are_the_solvers(self, mach_a):
        sim = Simulator(mach_a)
        app = sim.add_app(Application("a", streamcluster(), mach_a, (0, 3, 5), policy=UniformAll()))
        block = app.block()
        got = block.coefficients(mach_a, sim.mc_model)
        want = batch_coefficients(
            mach_a, block.node_idx[None], block.mix[None], block.write_frac[None], sim.mc_model
        )[0]
        assert got.tobytes() == want.tobytes()
        # Demand-only copies share the placement's columns.
        half = block.with_demands(block.demand / 2, float(block.write_frac[0]))
        assert half.coefficients(mach_a, sim.mc_model) is got

    def test_dead_slot_column_is_a_no_op(self, mach_a):
        """A slot without demand keeps its placement column; the solve
        reads the same as with the zero column the mix would give it."""
        sim = Simulator(mach_a)
        app = sim.add_app(Application("a", streamcluster(), mach_a, (0, 3, 5), policy=UniformAll()))
        block = app.block()
        demand = block.demand.copy()
        demand[1] = 0.0
        dead = block.with_demands(demand, float(block.write_frac[0]))
        assert not dead.live[1] and dead.coefficients(mach_a, sim.mc_model)[:, 1].any()
        args = (mach_a, dead.node_idx[None], dead.mix[None], dead.demand[None],
                dead.write_frac[None], dead.live[None], sim.mc_model)
        kept = solve_batch_arrays(*args, coefficients=dead.coefficients(mach_a, sim.mc_model)[None])
        fresh = solve_batch_arrays(*args)
        for name in ("rates", "load", "caps", "util", "touched", "bottleneck_row"):
            assert getattr(kept, name).tobytes() == getattr(fresh, name).tobytes(), name
