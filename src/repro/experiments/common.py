"""Shared machinery for the paper's experiments.

Every figure/table runner builds on :func:`run_scenario`: deploy a
benchmark with one placement policy — stand-alone or co-scheduled against
Swaptions, exactly as Section IV does — and measure its execution time.
"""

from __future__ import annotations

import dataclasses
import os
import zlib
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

from repro.core import BWAPConfig, CanonicalTuner, bwap_init, combine_weights
from repro.engine import Application, Simulator, pick_worker_nodes
from repro.faults import FaultPlan
from repro.obs import Heartbeat
from repro.store import (
    SCHEMA_VERSION,
    ResultStore,
    canonical_bytes,
    fingerprint,
    get_default_store,
)
from repro.memsim import (
    AutoNUMA,
    CarrefourLike,
    FirstTouch,
    UniformAll,
    UniformWorkers,
    WeightedInterleave,
)
from repro.topology import Machine, machine_a, machine_b
from repro.workloads import WorkloadSpec, swaptions

#: Policy labels in the paper's legend order.
BASELINE_POLICIES: Tuple[str, ...] = (
    "first-touch",
    "uniform-workers",
    "uniform-all",
    "autonuma",
)
ALL_POLICIES: Tuple[str, ...] = BASELINE_POLICIES + ("bwap-uniform", "bwap")

_MACHINES: Dict[str, Machine] = {}
_CANONICAL: Dict[str, CanonicalTuner] = {}


def get_machine(name: str) -> Machine:
    """The paper's machine A or B (cached singletons)."""
    key = name.upper()
    if key not in _MACHINES:
        if key == "A":
            _MACHINES[key] = machine_a()
        elif key == "B":
            _MACHINES[key] = machine_b()
        else:
            raise KeyError(f"unknown machine {name!r}; use 'A' or 'B'")
    return _MACHINES[key]


def get_canonical(machine: Machine) -> CanonicalTuner:
    """Cached canonical tuner for a machine (profiles are reused across
    experiments, as the paper's install-time step intends)."""
    if machine.name not in _CANONICAL:
        _CANONICAL[machine.name] = CanonicalTuner(machine)
    return _CANONICAL[machine.name]


@dataclass(frozen=True)
class RunOutcome:
    """Everything an experiment needs from one scenario run.

    The trailing fault/hardening fields stay at their zero defaults on
    fault-free runs with plain tuners, so pre-existing consumers are
    unaffected.
    """

    exec_time_s: float
    mean_stall: float
    throughput_gbps: float
    pages_moved: int
    final_dwp: Optional[float] = None
    tuner_iterations: Optional[int] = None
    pages_failed: int = 0
    migration_rejections: int = 0
    migration_retries: int = 0
    rollbacks: int = 0
    degraded: bool = False

    def speedup_over(self, baseline: "RunOutcome") -> float:
        """Speedup of this run relative to a baseline run."""
        return baseline.exec_time_s / self.exec_time_s

    def to_payload(self) -> Dict[str, object]:
        """JSON-safe dict for the result store.

        Every field is a Python scalar (float/int/bool/None); JSON
        round-trips those exactly (floats serialise via ``repr``), so a
        store-served outcome is bit-for-bit the recomputed one. Numpy
        scalars are converted to the equal-valued Python scalar (json
        refuses them outright).
        """

        def scalar(v):
            if v is None or isinstance(v, bool):
                return v
            if isinstance(v, (int, np.integer)):
                return int(v)
            if isinstance(v, (float, np.floating)):
                return float(v)
            raise TypeError(f"non-scalar outcome field {v!r}")

        return {
            f.name: scalar(getattr(self, f.name)) for f in dataclasses.fields(self)
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "RunOutcome":
        """Rebuild an outcome from :meth:`to_payload`; raises on a payload
        whose keys do not match this schema (the store treats that as a
        corrupt entry and recomputes)."""
        names = {f.name for f in dataclasses.fields(cls)}
        if set(payload) != names:
            raise ValueError(
                f"outcome payload keys {sorted(payload)} != schema {sorted(names)}"
            )
        return cls(**payload)


def _make_policy(name: str, static_weights: Optional[np.ndarray]):
    if name == "first-touch":
        return FirstTouch()
    if name == "uniform-workers":
        return UniformWorkers()
    if name == "uniform-all":
        return UniformAll()
    if name == "autonuma":
        return AutoNUMA()
    if name == "carrefour":
        return CarrefourLike()
    if name == "weighted":
        if static_weights is None:
            raise ValueError("policy 'weighted' requires static_weights")
        return WeightedInterleave(static_weights)
    if name in ("bwap", "bwap-uniform"):
        return None  # the tuner owns placement
    raise KeyError(f"unknown policy {name!r}; known: {ALL_POLICIES + ('weighted',)}")


def run_scenario(
    machine: Machine,
    workload: WorkloadSpec,
    num_workers: int,
    policy: str,
    *,
    coscheduled: bool = False,
    num_threads: Optional[int] = None,
    static_weights: Optional[np.ndarray] = None,
    static_dwp: Optional[float] = None,
    bwap_config: Optional[BWAPConfig] = None,
    canonical: Optional[CanonicalTuner] = None,
    seed: int = 42,
    max_time: float = 36000.0,
    faults: Optional[FaultPlan] = None,
) -> RunOutcome:
    """Deploy ``workload`` under one placement policy and measure it.

    Parameters
    ----------
    policy:
        One of ``first-touch``, ``uniform-workers``, ``uniform-all``,
        ``autonuma``, ``bwap-uniform``, ``bwap``, ``weighted`` (requires
        ``static_weights``), or ``bwap-static`` (requires ``static_dwp``:
        canonical weights shifted by a fixed DWP, no on-line search — used
        for the Fig. 4 static sweep).
    coscheduled:
        When True, Swaptions (the non-memory-intensive app A) runs on all
        remaining nodes, continuously, with its pages placed locally; the
        measured app B uses the co-scheduled BWAP variant.
    faults:
        Optional :class:`~repro.faults.FaultPlan` injected into the
        simulator (counter noise, migration faults, link degradation,
        phase shocks). ``None`` keeps the run bit-for-bit fault-free.
    """
    workers = pick_worker_nodes(machine, num_workers)
    if canonical is None:
        canonical = get_canonical(machine)
    sim = Simulator(machine, seed=seed, faults=faults)

    a_id: Optional[str] = None
    if coscheduled:
        rest = tuple(n for n in machine.node_ids if n not in workers)
        if not rest:
            raise ValueError(
                f"co-scheduling needs free nodes; {num_workers} workers fill the machine"
            )
        a_id = "A"
        sim.add_app(
            Application(
                a_id, swaptions(), machine, rest, policy=FirstTouch(), looping=True
            )
        )

    _app, tuner = deploy_app(
        sim,
        "B",
        workload,
        workers,
        policy,
        canonical=canonical,
        num_threads=num_threads,
        static_weights=static_weights,
        static_dwp=static_dwp,
        bwap_config=bwap_config,
        high_priority_app_id=a_id,
    )
    result = sim.run(max_time=max_time)
    return outcome_for_app(result, "B", tuner)


def deploy_app(
    sim: Simulator,
    app_id: str,
    workload: WorkloadSpec,
    workers: Sequence[int],
    policy: str,
    *,
    canonical: CanonicalTuner,
    num_threads: Optional[int] = None,
    static_weights: Optional[np.ndarray] = None,
    static_dwp: Optional[float] = None,
    bwap_config: Optional[BWAPConfig] = None,
    high_priority_app_id: Optional[str] = None,
):
    """Deploy one measured application under a named policy.

    Adds the :class:`Application` (and, for ``bwap``/``bwap-uniform``, its
    DWP tuner) to ``sim`` and returns ``(app, tuner)``. This is the body
    of :func:`run_scenario`'s deployment, factored out so the fleet's
    simulator-backed machines admit arriving apps through the identical
    code path — the 1-machine-fleet reduction property rests on it.
    """
    if policy == "bwap-static":
        if static_dwp is None:
            raise ValueError("policy 'bwap-static' requires static_dwp")
        weights = combine_weights(canonical.weights(workers), workers, static_dwp)
        app_policy = WeightedInterleave(weights)
    else:
        app_policy = _make_policy(policy, static_weights)

    app = sim.add_app(
        Application(
            app_id,
            workload,
            sim.machine,
            tuple(workers),
            num_threads=num_threads,
            policy=app_policy,
        )
    )

    tuner = None
    if policy in ("bwap", "bwap-uniform"):
        config = bwap_config or BWAPConfig(use_canonical=(policy == "bwap"))
        if config.use_canonical != (policy == "bwap"):
            config = dataclasses.replace(config, use_canonical=(policy == "bwap"))
        tuner = bwap_init(
            sim,
            app,
            canonical_tuner=canonical,
            config=config,
            high_priority_app_id=high_priority_app_id,
        )
    return app, tuner


def outcome_for_app(result, app_id: str, tuner) -> RunOutcome:
    """Fold one app's results out of a ``SimResult`` into a :class:`RunOutcome`."""
    tele = result.telemetry[app_id]
    migration = result.migration[app_id]
    return RunOutcome(
        exec_time_s=result.execution_time(app_id),
        mean_stall=tele.mean_stall_fraction,
        throughput_gbps=tele.mean_throughput_gbps,
        pages_moved=migration.pages_moved,
        final_dwp=None if tuner is None else tuner.final_dwp,
        tuner_iterations=None if tuner is None else tuner.iterations,
        pages_failed=migration.pages_failed,
        migration_rejections=migration.rejected_calls,
        migration_retries=migration.retries,
        rollbacks=getattr(tuner, "rollbacks", 0),
        degraded=getattr(tuner, "degraded", False),
    )


# --------------------------------------------------------------------- #
# Parallel scenario fan-out
# --------------------------------------------------------------------- #

#: Scenario-level parallelism used when a runner is not given an explicit
#: ``jobs`` argument. 1 = serial. Set via :func:`set_default_jobs` (the CLI's
#: ``--jobs`` flag) or the ``BWAP_JOBS`` environment variable.
_DEFAULT_JOBS = max(1, int(os.environ.get("BWAP_JOBS", "1")))


def set_default_jobs(jobs: int) -> None:
    """Set the process count sweeps use when ``jobs`` is not passed."""
    global _DEFAULT_JOBS
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    _DEFAULT_JOBS = jobs


def get_default_jobs() -> int:
    """Current default scenario-level parallelism."""
    return _DEFAULT_JOBS


def derive_seed(base_seed: int, *components) -> int:
    """Deterministic per-scenario seed from a base seed and scenario labels.

    Stable across processes and Python invocations (unlike ``hash()``,
    which is salted), so a parallel sweep reproduces the serial one
    bit-for-bit. Components are canonically encoded
    (:func:`repro.store.canonical_bytes`) rather than ``repr()``-ed: a
    large numpy array contributes its full contents — ``repr`` elides
    everything past the print threshold, which let distinct scenarios
    collide onto one seed — and an unsupported component type raises
    ``TypeError`` instead of hashing an address-dependent string.
    """
    return zlib.crc32(canonical_bytes((int(base_seed),) + components)) & 0x7FFFFFFF


@dataclass(frozen=True)
class ScenarioSpec:
    """One (machine, workload, deployment, policy) scenario, picklable so it
    can be shipped to a worker process.

    ``machine`` is the registry name (``"A"``/``"B"``) or a concrete
    :class:`Machine` — names are preferred: the worker then reuses its
    per-process cached machine and canonical-tuner profiles.
    """

    machine: Union[str, Machine]
    workload: WorkloadSpec
    num_workers: int
    policy: str
    coscheduled: bool = False
    num_threads: Optional[int] = None
    static_weights: Optional[np.ndarray] = None
    static_dwp: Optional[float] = None
    bwap_config: Optional[BWAPConfig] = None
    seed: int = 42
    max_time: float = 36000.0
    fault_plan: Optional[FaultPlan] = None

    def resolve_machine(self) -> Machine:
        """The concrete machine this scenario runs on."""
        if isinstance(self.machine, str):
            return get_machine(self.machine)
        return self.machine


def scenario_fingerprint(spec: ScenarioSpec) -> str:
    """Canonical content fingerprint of one scenario.

    Folds in everything :func:`run_spec` acts on — the resolved machine
    topology (structurally, so ``machine="A"`` and ``machine=machine_a()``
    key identically), every other spec field, and the store schema version
    (the stand-in for "code-relevant config": bumping it on behavioural
    changes retires every old entry).
    """
    rest = tuple(
        (f.name, getattr(spec, f.name))
        for f in dataclasses.fields(spec)
        if f.name != "machine"
    )
    return fingerprint("bwap.run_spec", SCHEMA_VERSION, spec.resolve_machine(), rest)


def _run_spec_cold(spec: ScenarioSpec) -> RunOutcome:
    machine = spec.resolve_machine()
    return run_scenario(
        machine,
        spec.workload,
        spec.num_workers,
        spec.policy,
        coscheduled=spec.coscheduled,
        num_threads=spec.num_threads,
        static_weights=spec.static_weights,
        static_dwp=spec.static_dwp,
        bwap_config=spec.bwap_config,
        seed=spec.seed,
        max_time=spec.max_time,
        faults=spec.fault_plan,
    )


def run_spec(
    spec: ScenarioSpec, *, store: Optional[ResultStore] = None
) -> RunOutcome:
    """Run one :class:`ScenarioSpec` (module-level, hence pool-mappable).

    Consults the content-addressed result store first (``store`` argument,
    else the process default — disabled via ``BWAP_STORE=0`` or the CLI's
    ``--no-store``): a hit replays the stored :class:`RunOutcome`, bit-for-
    bit equal to recomputing, and a miss computes then persists it, so
    repeated sweeps and concurrent ``--jobs`` workers share results. A
    corrupt or schema-incompatible entry is treated as a miss and
    overwritten.
    """
    if store is None:
        store = get_default_store()
    if store is None:
        return _run_spec_cold(spec)
    fp = scenario_fingerprint(spec)
    payload = store.get(fp)
    if payload is not None:
        try:
            return RunOutcome.from_payload(payload)
        except (TypeError, ValueError):
            # Valid JSON, wrong shape (e.g. hand-edited): recompute.
            store.stats.hits -= 1
            store.stats.misses += 1
            store.stats.corrupt += 1
    outcome = _run_spec_cold(spec)
    store.put(fp, outcome.to_payload())
    return outcome


_T = TypeVar("_T")
_R = TypeVar("_R")


def fan_out(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    *,
    jobs: Optional[int] = None,
    label: str = "run_specs",
) -> List[_R]:
    """Run ``fn`` over ``items``, across processes when ``jobs`` > 1.

    Results come back in input order regardless of completion order, so
    parallel and serial execution produce identical outputs (each item
    must carry its own seed). The opt-in :class:`Heartbeat` reports
    progress on stderr; when it is disabled the parallel path is a plain
    ``pool.map``, and when enabled the same futures are collected in
    submission order — outputs are identical either way.
    """
    items = list(items)
    jobs = _DEFAULT_JOBS if jobs is None else jobs
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    heartbeat = Heartbeat(len(items), label=label)
    if jobs == 1 or len(items) <= 1:
        out: List[_R] = []
        for i, item in enumerate(items):
            out.append(fn(item))
            heartbeat.beat(i + 1)
        return out
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        if not heartbeat.enabled:
            return list(pool.map(fn, items))
        futures = [pool.submit(fn, item) for item in items]
        done = 0
        for future in as_completed(futures):
            future.result()  # surface worker failures promptly
            done += 1
            heartbeat.beat(done)
        return [f.result() for f in futures]


def run_specs(
    specs: Sequence[ScenarioSpec], *, jobs: Optional[int] = None
) -> List[RunOutcome]:
    """Run many scenarios, fanning out across processes when ``jobs`` > 1.

    Results come back in input order regardless of completion order, and
    each scenario carries its own seed, so parallel and serial execution
    produce identical outcomes.
    """
    return fan_out(run_spec, specs, jobs=jobs, label="run_specs")


def policy_comparison(
    machine: Machine,
    workload: WorkloadSpec,
    num_workers: int,
    policies: Sequence[str] = ALL_POLICIES,
    *,
    coscheduled: bool = False,
    num_threads: Optional[int] = None,
    seed: int = 42,
    jobs: Optional[int] = None,
) -> Dict[str, RunOutcome]:
    """Run a benchmark under several policies on the same scenario.

    With ``jobs`` > 1 (or a process-level default from
    :func:`set_default_jobs` / ``BWAP_JOBS``), the per-policy runs fan out
    across worker processes; results are merged back in policy order.
    """
    machine_ref: Union[str, Machine] = machine
    if machine.name in ("machine-A", "machine-B"):
        # Ship the registry name, not the object: workers then share their
        # per-process cached canonical profiles.
        machine_ref = machine.name[-1]
    specs = [
        ScenarioSpec(
            machine=machine_ref,
            workload=workload,
            num_workers=num_workers,
            policy=p,
            coscheduled=coscheduled,
            num_threads=num_threads,
            seed=seed,
        )
        for p in policies
    ]
    outcomes = run_specs(specs, jobs=jobs)
    return dict(zip(policies, outcomes))


def speedups_vs(
    outcomes: Dict[str, RunOutcome], reference: str = "uniform-workers"
) -> Dict[str, float]:
    """Normalise a comparison to one policy (the paper plots speedup vs
    uniform-workers)."""
    base = outcomes[reference]
    return {p: o.speedup_over(base) for p, o in outcomes.items()}


def optimal_worker_count(
    machine: Machine,
    workload: WorkloadSpec,
    candidates: Sequence[int],
    *,
    policy: str = "uniform-all",
    seed: int = 42,
) -> int:
    """The worker count minimising execution time under a given policy
    (the paper's "optimal parallelism level", Fig. 3c/d).

    The sweep defaults to uniform-all: a rational user tunes parallelism
    under a placement that does not artificially bottleneck the candidate
    deployments (on machine A, uniform-workers at 4W is throttled by the
    weak inter-worker links, which would distort the comparison).
    """
    best_n, best_t = None, float("inf")
    for n in candidates:
        out = run_scenario(machine, workload, n, policy, seed=seed)
        if out.exec_time_s < best_t - 1e-9:
            best_n, best_t = n, out.exec_time_s
    assert best_n is not None
    return best_n
