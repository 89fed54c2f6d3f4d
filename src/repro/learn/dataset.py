"""Training-data generation for learned DWP prediction.

Each row is one (machine, workload, worker-set) deployment:

* **features** — :func:`repro.learn.features.feature_vector` (counter
  features from a short profiling run ++ topology features);
* **label** — the oracle-best DWP from the batched analytic probe
  (:class:`repro.core.dwp.DWPProbeSession`): a coarse ladder over the
  whole [0, 1] range, then a fine refinement around the coarse argmin
  that re-enters the *same* session, so the refinement re-scores only the
  DWPs it has not already seen.

Every row is content-addressed through :mod:`repro.store` (same
discipline as :func:`repro.experiments.common.run_spec`): re-running a
dataset build after an interruption recomputes only the missing rows, and
a repeat build is served almost entirely from the store.

The on-disk dataset is a ``.npz`` written deterministically (fixed zip
timestamps, no compression), so the same rows always produce a
byte-identical file — the property the resumability test pins down.
"""

from __future__ import annotations

import dataclasses
import io
import zipfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.canonical import canonical_tuner
from repro.core.dwp import DWPProbeSession
from repro.engine.threads import pick_worker_nodes
from repro.learn.features import FEATURE_NAMES, feature_vector
from repro.obs import fan_out
from repro.store import SCHEMA_VERSION, fingerprint, get_default_store
from repro.topology.builders import random_machine
from repro.topology.machine import Machine
from repro.topology.registry import get_machine
from repro.workloads.generator import random_workload
from repro.workloads.suites import paper_benchmarks

#: Version of the on-disk dataset layout (bump on incompatible change).
DATASET_VERSION = 1

#: Default DWP ladder resolutions for the oracle label.
COARSE_STEP = 0.05
REFINE_STEP = 0.01

#: The paper's five stand-alone deployments (machine, worker nodes).
SUITE_DEPLOYMENTS: Tuple[Tuple[str, int], ...] = (
    ("A", 1),
    ("A", 2),
    ("A", 4),
    ("B", 1),
    ("B", 2),
)


@dataclass(frozen=True)
class RowSpec:
    """One dataset row, picklable so builds can fan out across processes.

    ``machine`` is the registry name (``"A"``/``"B"``) or a concrete
    :class:`Machine` (random topologies ship the object; its structural
    encoding — not its name — is what the row fingerprint keys on).
    """

    machine: Union[str, Machine]
    workload: object  # WorkloadSpec; typed loosely to avoid import cycle
    num_workers: int
    coarse_step: float = COARSE_STEP
    refine_step: float = REFINE_STEP

    def resolve_machine(self) -> Machine:
        if isinstance(self.machine, str):
            return get_machine(self.machine)
        return self.machine

    def label(self) -> str:
        """Human-readable row tag, e.g. ``"A/OC/2W"``."""
        m = self.machine if isinstance(self.machine, str) else self.machine.name
        return f"{m}/{self.workload.name}/{self.num_workers}W"


def row_fingerprint(spec: RowSpec) -> str:
    """Canonical content fingerprint of one dataset row.

    Folds in the resolved machine topology (structurally), the workload
    spec, the deployment, the label-grid resolutions, the feature schema
    (so appending a feature retires stale rows), and the store schema
    version.
    """
    rest = tuple(
        (f.name, getattr(spec, f.name))
        for f in dataclasses.fields(spec)
        if f.name != "machine"
    )
    return fingerprint(
        "bwap.learn.row", SCHEMA_VERSION, FEATURE_NAMES, spec.resolve_machine(), rest
    )


def _oracle_dwp(
    machine: Machine,
    workload,
    workers: Sequence[int],
    canonical: np.ndarray,
    *,
    coarse_step: float,
    refine_step: float,
) -> float:
    """Coarse-then-refine analytic argmin over the DWP range.

    Both ladders share one :class:`DWPProbeSession`, so the refinement
    around the coarse argmin re-scores only unseen DWPs (this is the
    narrower re-entry the session memo exists for).
    """
    session = DWPProbeSession(machine, workload, workers, canonical)
    coarse = np.round(np.arange(0.0, 1.0 + coarse_step / 2, coarse_step), 6)
    best, _ = session.best(coarse)
    lo = max(0.0, best - coarse_step)
    hi = min(1.0, best + coarse_step)
    fine = np.round(np.arange(lo, hi + refine_step / 2, refine_step), 6)
    best, _ = session.best(fine)
    return float(best)


def _compute_row(spec: RowSpec) -> Dict[str, object]:
    machine = spec.resolve_machine()
    workers = pick_worker_nodes(machine, spec.num_workers)
    canonical = canonical_tuner(machine).weights(workers)
    features = feature_vector(machine, spec.workload, workers, canonical)
    label = _oracle_dwp(
        machine,
        spec.workload,
        workers,
        canonical,
        coarse_step=spec.coarse_step,
        refine_step=spec.refine_step,
    )
    return {
        "features": [float(x) for x in features],
        "label": label,
        "row": spec.label(),
    }


def build_row(spec: RowSpec) -> Dict[str, object]:
    """Featurise and oracle-label one row, through the result store.

    A hit replays the stored row bit-for-bit (floats JSON-round-trip via
    ``repr``); a miss computes then persists it. A payload whose feature
    width no longer matches the current schema is treated as corrupt and
    recomputed.
    """
    store = get_default_store()
    if store is None:
        return _compute_row(spec)
    fp = row_fingerprint(spec)
    payload = store.get(fp)
    if payload is not None:
        feats = payload.get("features")
        if (
            isinstance(feats, list)
            and len(feats) == len(FEATURE_NAMES)
            and isinstance(payload.get("label"), float)
        ):
            return payload
        store.stats.hits -= 1
        store.stats.misses += 1
        store.stats.corrupt += 1
    payload = _compute_row(spec)
    store.put(fp, payload)
    return payload


@dataclass(frozen=True)
class Dataset:
    """An assembled training set.

    ``X`` is (rows, features) float64 in :data:`FEATURE_NAMES` order,
    ``y`` the oracle DWP per row, ``rows`` the human-readable row tags.
    """

    X: np.ndarray
    y: np.ndarray
    feature_names: Tuple[str, ...]
    rows: Tuple[str, ...]

    def save(self, path) -> None:
        """Write a byte-deterministic ``.npz`` (fixed zip metadata)."""
        write_npz(
            path,
            {
                "version": np.array([DATASET_VERSION], dtype=np.int64),
                "X": np.asarray(self.X, dtype=np.float64),
                "y": np.asarray(self.y, dtype=np.float64),
                "feature_names": np.array(self.feature_names, dtype=np.str_),
                "rows": np.array(self.rows, dtype=np.str_),
            },
        )

    @classmethod
    def load(cls, path) -> "Dataset":
        with np.load(path, allow_pickle=False) as data:
            version = int(data["version"][0])
            if version != DATASET_VERSION:
                raise ValueError(
                    f"dataset version {version} != supported {DATASET_VERSION}"
                )
            return cls(
                X=np.array(data["X"], dtype=np.float64),
                y=np.array(data["y"], dtype=np.float64),
                feature_names=tuple(str(s) for s in data["feature_names"]),
                rows=tuple(str(s) for s in data["rows"]),
            )


def write_npz(path, arrays: Dict[str, np.ndarray]) -> None:
    """``np.savez`` with deterministic bytes.

    ``np.savez`` stamps each zip member with the current mtime, so two
    identical saves differ byte-wise. This writer fixes every zip header
    field (epoch timestamp, stored — not compressed — members, constant
    permissions) while keeping the file a regular ``np.load``-able npz.
    """
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name, arr in arrays.items():
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.asarray(arr), allow_pickle=False)
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_STORED
            info.external_attr = 0o644 << 16
            zf.writestr(info, buf.getvalue())


def suite_row_specs(*, work_bytes: Optional[float] = None) -> List[RowSpec]:
    """The Table-I suite across the paper's five deployments (25 rows)."""
    specs: List[RowSpec] = []
    for machine_name, num_workers in SUITE_DEPLOYMENTS:
        for wl in paper_benchmarks():
            if work_bytes is not None:
                wl = dataclasses.replace(wl, work_bytes=float(work_bytes))
            specs.append(RowSpec(machine_name, wl, num_workers))
    return specs


def random_row_specs(num_rows: int, seed: int = 20260808) -> List[RowSpec]:
    """``num_rows`` random-topology x random-workload rows.

    Deterministic in ``seed``; each row gets its own machine seed, so a
    dataset can grow (``num_rows`` 24 -> 48) without relabelling the
    first 24 rows.
    """
    if num_rows < 0:
        raise ValueError(f"num_rows must be non-negative, got {num_rows}")
    specs: List[RowSpec] = []
    for i in range(num_rows):
        machine = random_machine(seed + i)
        rng = np.random.default_rng(seed + i)
        workload = random_workload(rng, name=f"synthetic-{seed + i}")
        num_workers = int(rng.integers(1, machine.num_nodes + 1))
        specs.append(RowSpec(machine, workload, num_workers))
    return specs


def default_row_specs(
    *, num_random: int = 24, seed: int = 20260808, include_suite: bool = True
) -> List[RowSpec]:
    """The standard training mix: Table-I suite + random topologies."""
    specs = suite_row_specs() if include_suite else []
    specs.extend(random_row_specs(num_random, seed=seed))
    return specs


def build_dataset(
    specs: Sequence[RowSpec], *, jobs: Optional[int] = None
) -> Dataset:
    """Build (or resume) a dataset over ``specs``.

    Fans out across processes via :func:`repro.obs.fan_out` (honouring ``--jobs`` /
    ``BWAP_JOBS`` and the opt-in heartbeat); each row consults the result
    store first, so an interrupted build resumes where it stopped.
    """
    rows = fan_out(build_row, list(specs), jobs=jobs, label="learn-dataset")
    X = np.array([r["features"] for r in rows], dtype=np.float64)
    y = np.array([r["label"] for r in rows], dtype=np.float64)
    return Dataset(
        X=X,
        y=y,
        feature_names=FEATURE_NAMES,
        rows=tuple(str(r["row"]) for r in rows),
    )
