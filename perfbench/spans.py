"""Outside-in layer tracing for the benchmark's traced run.

:func:`install` wraps each layer's public entry points -- class methods on
their class, module functions where their caller looks them up -- in
timing spans. A span records its name, start, end, parent span and op id;
spans stay in memory and are written out when the run ends. A layer's self
time is its spans' duration minus the time their child spans cover.

Only the traced process ever calls :func:`install`; end-to-end numbers come
from untraced processes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
import types
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional

import numpy as np

#: Layer names, matched against span names by prefix. Spans of no layer
#: (the op roots) are the harness's ``other`` remainder.
LAYERS = (
    "memsim.contention",
    "memsim.migration",
    "engine",
    "core.dwp",
    "core.canonical",
    "topology",
    "store",
    "fleet.scheduler",
    "fleet.backend",
    "fleet.faults",
    "workloads.arrivals",
)
OTHER = "other"

_FAULT_METHODS = (
    "crashed_at",
    "crash_starts_in",
    "downtime_in",
    "degradation_scale",
    "scale_key_for",
    "capacity_scale_for",
    "next_edge_after",
    "admission_rejected",
    "completion_lost",
)


def layer_of(name: str) -> str:
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    return OTHER


class SpanRecorder:
    """In-memory spans plus the counters taken at the same boundaries.

    Spans are stored column-wise in typed arrays (a fleet run records
    about a million of them).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._name_idx: Dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        #: Parent span row, -1 for a root.
        self.parent = array("l")
        self.op_id = array("l")
        self._stack: List[int] = []
        self.op = -1
        self.counts: Counter = Counter()

    def _open(self, name: str) -> int:
        idx = self._name_idx.get(name)
        if idx is None:
            idx = self._name_idx[name] = len(self.names)
            self.names.append(name)
        row = len(self.name)
        self.name.append(idx)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self._stack.append(row)
        return row

    def _close(self, row: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[row] = t0
        self.end[row] = t1

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``after(args, result)``
        updates counters from the call's arguments and result."""
        clock = self.clock
        opener = self._open
        closer = self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = opener(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                closer(row, t0, clock())
            if after is not None:
                after(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def op_scope(self, op: int, name: str = "op"):
        """Root span of one op: every span opened inside carries ``op``."""
        prev = self.op
        self.op = op
        row = self._open(name)
        t0 = self.clock()
        try:
            yield
        finally:
            self._close(row, t0, self.clock())
            self.op = prev

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.frombuffer(self.name, dtype=np.int_).astype(np.int64),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int_).astype(np.int64),
            "op": np.frombuffer(self.op_id, dtype=np.int_).astype(np.int64),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, **self.arrays())


def self_times(arrays: Dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest strictly, so the children's durations are
    exactly the part of the parent's interval they cover.
    """
    dur = arrays["end"] - arrays["start"]
    parent = arrays["parent"]
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    return dur - covered


def summarise(arrays: Dict[str, np.ndarray]) -> dict:
    """Per-layer self time, per-name call counts and outermost inclusive
    durations, and per op its wall time, the sum of its spans' self times
    and how many of its spans escape their parent's interval."""
    names = [str(n) for n in arrays["names"]]
    name = arrays["name"]
    parent = arrays["parent"]
    op = arrays["op"]
    dur = arrays["end"] - arrays["start"]
    selfs = self_times(arrays)
    # A span is outermost unless its parent has the same name (a method
    # that re-enters itself through ``super()``).
    outer = np.ones(len(name), dtype=bool)
    has_parent = parent >= 0
    outer[has_parent] = name[parent[has_parent]] != name[has_parent]

    layers = LAYERS + (OTHER,)
    layer_idx = np.array([layers.index(layer_of(n)) for n in names], dtype=np.int64)
    by_layer = np.bincount(
        layer_idx[name], weights=selfs, minlength=len(layers)
    ) if len(name) else np.zeros(len(layers))
    layer_self = {layer: float(by_layer[i]) for i, layer in enumerate(layers)}

    calls = np.bincount(name[outer], minlength=len(names))
    inclusive = np.bincount(name[outer], weights=dur[outer], minlength=len(names))

    # A child must lie inside its parent's interval; otherwise the self
    # times no longer partition the op's wall time.
    escaped = np.zeros(len(name), dtype=bool)
    escaped[has_parent] = (
        arrays["start"][has_parent] < arrays["start"][parent[has_parent]]
    ) | (arrays["end"][has_parent] > arrays["end"][parent[has_parent]])
    # Op ids start at -1 (spans outside every op), hence the shift.
    op_self = np.bincount(op + 1, weights=selfs)
    op_escaped = np.bincount(op + 1, weights=escaped)
    ops = {
        int(op[r]): (
            float(dur[r]),
            float(op_self[op[r] + 1]),
            int(op_escaped[op[r] + 1]),
        )
        for r in np.nonzero((parent < 0) & (op >= 0))[0]
    }
    stray = sorted(
        int(i) - 1 for i in np.nonzero(np.bincount(op + 1))[0] if int(i) - 1 not in ops
    )
    return {
        "layer_self_s": layer_self,
        "calls": {names[i]: int(calls[i]) for i in range(len(names))},
        "inclusive_s": {names[i]: float(inclusive[i]) for i in range(len(names))},
        "ops": ops,
        "stray_ops": stray,
    }


def check_accounting(summary: dict, rel_tol: float = 1e-9) -> List[str]:
    """Layer self times plus the ``other`` remainder must add up to each
    op's traced wall time, and no span may lie outside an op."""
    errs = []
    for op_id, (wall, self_sum, escaped) in sorted(summary["ops"].items()):
        if escaped:
            errs.append(f"op {op_id}: {escaped} spans outside their parent's interval")
        if abs(wall - self_sum) > rel_tol * max(wall, 1.0):
            errs.append(f"op {op_id}: self times sum to {self_sum!r}, wall {wall!r}")
    if summary["stray_ops"]:
        errs.append(f"spans of ops {summary['stray_ops']} lie outside any op root")
    return errs


# ---------------------------------------------------------------------- #
# Patch points
# ---------------------------------------------------------------------- #


def _patch(rec: SpanRecorder, owner, attr: str, name: str, after=None) -> None:
    """Wrap ``owner.attr`` when ``owner`` itself defines it as a plain
    function. Missing entry points are skipped: the layer then reads zero."""
    original = vars(owner).get(attr) if owner is not None else None
    if isinstance(original, types.FunctionType):
        setattr(owner, attr, rec.wrap(name, original, after))


def _module(path: str):
    try:
        return importlib.import_module(path)
    except ImportError:
        return None


def _subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def install(rec: SpanRecorder) -> None:
    """Wrap every layer's entry points in spans of ``rec``."""
    counts = rec.counts

    def patch(owner, attr, name, after=None):
        _patch(rec, owner, attr, name, after)

    def rows_after(n_rows: Callable):
        def after(args, _result):
            counts["memsim.contention.rows"] += n_rows(args)
        return after

    contention = _module("repro.memsim.contention")
    kernel = _module("repro.engine.kernel")
    sim = _module("repro.engine.sim")
    scheduler = _module("repro.fleet.scheduler")
    backend = _module("repro.fleet.backend")
    faults = _module("repro.fleet.faults")
    cluster = _module("repro.fleet.cluster")
    common = _module("repro.experiments.common")
    store = _module("repro.store")
    canonical = _module("repro.core.canonical")
    arrivals = _module("repro.workloads.arrivals")
    _module("repro.core")  # registers the tuner classes

    # memsim.contention: every solve entry point, where its caller looks it up.
    patch(kernel, "solve_batch_arrays", "memsim.contention",
          rows_after(lambda a: len(a[1])))
    patch(scheduler, "solve_batch_fleet_lazy", "memsim.contention",
          rows_after(lambda a: len(a[0])))
    patch(backend, "solve", "memsim.contention", rows_after(lambda a: 1))
    patch(scheduler, "candidate_rate_bound", "memsim.contention.bound")
    cache_cls = getattr(contention, "SolverCache", None)
    patch(cache_cls, "solve", "memsim.contention.cached")

    # Every cache path (kernel epochs, keyed solves, the fleet's canonical
    # cache) goes through ``lookup``; it is counted, not spanned.
    if cache_cls is not None and "lookup" in vars(cache_cls):
        lookup = cache_cls.lookup

        @functools.wraps(lookup)
        def counted_lookup(self, key):
            result = lookup(self, key)
            counts["memsim.contention.cache_lookups"] += 1
            counts["memsim.contention.cache_hits"] += result is not None
            return result

        cache_cls.lookup = counted_lookup

    # engine: the simulator's run loop (epochs read off the simulator).
    simulator = getattr(sim, "Simulator", None)

    def count_epochs(args, _result):
        counts["engine.epochs"] += int(getattr(args[0], "epoch", 0))

    patch(simulator, "run", "engine", count_epochs)
    patch(simulator, "migrate_placement", "memsim.migration")

    # core.dwp: every on-line tuner the core package defines.
    tuner_base = getattr(sim, "Tuner", None)
    if tuner_base is not None:
        for cls in _subclasses(tuner_base):
            if cls.__module__.startswith("repro.core"):
                patch(cls, "on_epoch", "core.dwp.on_epoch")
                patch(cls, "on_start", "core.dwp.on_start")

    patch(getattr(canonical, "CanonicalTuner", None), "bw_profile", "core.canonical")
    patch(common, "machine_a", "topology")
    patch(common, "machine_b", "topology")
    patch(cluster, "class_machine", "topology")

    result_store = getattr(store, "ResultStore", None)
    patch(result_store, "put", "store.put")
    patch(result_store, "get", "store.get")
    patch(common, "scenario_fingerprint", "store.fingerprint")

    patch(getattr(scheduler, "FleetScheduler", None), "run", "fleet.scheduler")
    machine_backend = getattr(backend, "MachineBackend", None)

    def count_evictions(_args, result):
        counts["fleet.backend.evictions"] += len(result)

    if machine_backend is not None:
        for cls in [machine_backend] + _subclasses(machine_backend):
            patch(cls, "advance", "fleet.backend.advance")
            patch(cls, "admit", "fleet.backend.admit")
            patch(cls, "evict_all", "fleet.backend.evict", count_evictions)

    injector = getattr(faults, "FleetFaultInjector", None)
    for attr in _FAULT_METHODS:
        patch(injector, attr, "fleet.faults")
    tracker = getattr(faults, "HealthTracker", None)
    for attr in ("record_crash", "allows"):
        patch(tracker, attr, "fleet.faults")

    patch(arrivals, "build_trace", "workloads.arrivals")


def layer_metrics(summary: dict, counts: Counter) -> Dict[str, float]:
    """The per-layer metrics the spans and span-boundary counters give."""
    calls = summary["calls"]
    incl = summary["inclusive_s"]
    selfs = summary["layer_self_s"]
    lookups = counts["memsim.contention.cache_lookups"]
    return {
        "memsim.contention.calls": sum(
            c for n, c in calls.items() if layer_of(n) == "memsim.contention"
        ),
        "memsim.contention.rows": counts["memsim.contention.rows"],
        "memsim.contention.self_s": selfs["memsim.contention"],
        "memsim.contention.cache_hit_ratio": (
            counts["memsim.contention.cache_hits"] / lookups if lookups else 0.0
        ),
        "engine.runs": calls.get("engine", 0),
        "engine.epochs": counts["engine.epochs"],
        "engine.self_s": selfs["engine"],
        "core.dwp.on_epoch_calls": calls.get("core.dwp.on_epoch", 0),
        "core.dwp.self_s": selfs["core.dwp"],
        "memsim.migration.calls": calls.get("memsim.migration", 0),
        "memsim.migration.self_s": selfs["memsim.migration"],
        "core.canonical.build_s": incl.get("core.canonical", 0.0),
        "topology.build_s": incl.get("topology", 0.0),
        "store.put_calls": calls.get("store.put", 0),
        "store.put_s": incl.get("store.put", 0.0),
        "store.fingerprint_s": incl.get("store.fingerprint", 0.0),
        "fleet.scheduler.self_s": selfs["fleet.scheduler"],
        "fleet.backend.advance_calls": calls.get("fleet.backend.advance", 0),
        "fleet.backend.advance_s": incl.get("fleet.backend.advance", 0.0),
        "fleet.backend.admit_s": incl.get("fleet.backend.admit", 0.0),
        "fleet.backend.evictions": counts["fleet.backend.evictions"],
        "fleet.faults.self_s": selfs["fleet.faults"],
        "workloads.arrivals.build_s": incl.get("workloads.arrivals", 0.0),
        "other.self_s": selfs[OTHER],
    }
