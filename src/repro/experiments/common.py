"""Shared machinery for the paper's experiments.

Every figure/table runner builds on :func:`run_scenario`: deploy a
benchmark with one placement policy — stand-alone or co-scheduled against
Swaptions, exactly as Section IV does — and measure its execution time.

The layers below own what the runners share: the machine registry
(:func:`repro.topology.get_machine`), the canonical-tuner cache
(:func:`repro.core.canonical.canonical_tuner`, re-exported here as
``get_canonical``), deployment (:func:`repro.core.bwap.deploy_app`),
seeds (:func:`repro.store.derive_seed`) and fan-out
(:func:`repro.obs.fan_out`); this module re-exports them (``X as X``
marks a name kept only for that) for the runners.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core import BWAPConfig, CanonicalTuner
from repro.core.bwap import (
    ALL_POLICIES,
    BASELINE_POLICIES as BASELINE_POLICIES,
    RunOutcome,
    deploy_app,
    outcome_for_app,
)
from repro.core.canonical import canonical_tuner as get_canonical
from repro.engine import Application, Simulator, pick_worker_nodes
from repro.faults import FaultPlan
from repro.memsim import FirstTouch
from repro.obs import (
    fan_out,
    get_default_jobs as get_default_jobs,
    set_default_jobs as set_default_jobs,
)
from repro.store import (
    SCHEMA_VERSION,
    ResultStore,
    derive_seed as derive_seed,
    fingerprint,
    get_default_store,
)
from repro.topology import Machine, get_machine
from repro.workloads import WorkloadSpec, swaptions


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
    if machine.name in ("machine-A", "machine-B") and machine is get_machine(machine.name[-1]):
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
