"""Persistent content-addressed result store.

Every experiment run is a pure function of its :class:`ScenarioSpec` (the
simulator is seeded end to end), so its outcome can be stored on disk under
a *canonical fingerprint* of the inputs and replayed forever: sweeps, the
fault matrix, robustness grids, and ``--jobs`` worker pools resume
incrementally and share results across processes.

Two layers live here:

* :func:`canonical_bytes` / :func:`fingerprint` — a canonical byte encoding
  of scenario inputs (scalars, strings, tuples, numpy arrays, dataclasses,
  :class:`~repro.topology.Machine` topologies). Unlike ``repr()``, the
  encoding is *total* over the value: a numpy array contributes its dtype,
  shape, and raw bytes, never a print-truncated summary, and an
  unsupported type raises ``TypeError`` instead of silently degrading to
  an address-dependent or lossy string.
* :class:`ResultStore` — a directory of JSON entries keyed by fingerprint,
  with atomic writes (temp file + ``os.replace``), corruption-tolerant
  reads (a truncated, garbled, or stale-schema entry is a *miss*, never a
  crash), and hit/miss statistics.

The store itself is value-agnostic (it moves JSON dicts); the
``RunOutcome`` payload codec and the ``run_spec`` wiring live in
:mod:`repro.experiments.common`. Environment knobs:

``BWAP_STORE=0``
    Disable the default store entirely (the CLI's ``--no-store``).
``BWAP_STORE_DIR``
    Store root (default ``~/.cache/bwap-repro/store``, honouring
    ``XDG_CACHE_HOME``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

from repro.topology import Machine

#: Version of both the fingerprint recipe and the entry payload layout.
#: Bump whenever the simulator's observable behaviour, the fingerprint
#: encoding, or the ``RunOutcome`` payload changes: old entries then simply
#: stop matching and are recomputed (never misread). ``tests/test_result_store.py``
#: pins every stored payload's fields to this version.
SCHEMA_VERSION = 3


# --------------------------------------------------------------------- #
# Canonical fingerprinting
# --------------------------------------------------------------------- #


def canonical_bytes(obj: Any) -> bytes:
    """A canonical, total byte encoding of a scenario component.

    Supported: ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``,
    numpy scalars and arrays, tuples/lists, dicts (sorted by encoded key),
    dataclasses (class name + every field, recursively), and
    :class:`~repro.topology.Machine` (structural: nodes, links, routing
    parameters). Every branch is length- and type-tagged, so distinct
    values cannot collide by concatenation, and nothing is ever truncated
    (the failure mode of ``repr()`` on large arrays). Raises ``TypeError``
    for anything else.
    """
    parts = []
    _encode(obj, parts)
    return b"".join(parts)


def _tag(parts, kind: str, payload: bytes) -> None:
    parts.append(f"{kind}:{len(payload)}:".encode())
    parts.append(payload)


def _encode(obj: Any, parts) -> None:
    if obj is None:
        _tag(parts, "N", b"")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        _tag(parts, "b", b"1" if obj else b"0")
    elif isinstance(obj, (int, np.integer)):
        _tag(parts, "i", str(int(obj)).encode())
    elif isinstance(obj, (float, np.floating)):
        # 0.0 == -0.0 and every NaN payload collapse under ==; encode the
        # IEEE bits so the fingerprint distinguishes exactly what the
        # simulator would see.
        _tag(parts, "f", np.float64(obj).tobytes())
    elif isinstance(obj, str):
        _tag(parts, "s", obj.encode())
    elif isinstance(obj, bytes):
        _tag(parts, "y", obj)
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        head = f"{arr.dtype.str}|{arr.shape}".encode()
        _tag(parts, "a", head + b"|" + arr.tobytes())
    elif isinstance(obj, (tuple, list)):
        parts.append(f"t:{len(obj)}[".encode())
        for item in obj:
            _encode(item, parts)
        parts.append(b"]")
    elif isinstance(obj, dict):
        items = sorted((canonical_bytes(k), v) for k, v in obj.items())
        parts.append(f"d:{len(items)}{{".encode())
        for key_bytes, value in items:
            _tag(parts, "k", key_bytes)
            _encode(value, parts)
        parts.append(b"}")
    elif isinstance(obj, Machine):
        _encode_machine(obj, parts)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        parts.append(f"D:{cls.__module__}.{cls.__qualname__}(".encode())
        for f in dataclasses.fields(obj):
            _tag(parts, "k", f.name.encode())
            _encode(getattr(obj, f.name), parts)
        parts.append(b")")
    else:
        raise TypeError(
            f"cannot canonically fingerprint {type(obj).__module__}."
            f"{type(obj).__qualname__}: {obj!r}"
        )


def _encode_machine(machine: Machine, parts) -> None:
    """Structural encoding: two machines with equal topology fingerprint
    equally, however they were constructed. Machines are immutable, so the
    encoding is built once per instance and kept on it."""
    encoded = getattr(machine, "_store_encoding", None)
    if encoded is None:
        sub = [b"M("]
        _encode(machine.name, sub)
        _encode(machine.hop_efficiency, sub)
        _encode(machine.remote_ingress_factor, sub)
        _encode(tuple(machine.node(i) for i in machine.node_ids), sub)
        _encode(tuple(sorted(machine.links, key=lambda li: li.endpoints)), sub)
        sub.append(b")")
        encoded = machine._store_encoding = b"".join(sub)  # type: ignore[attr-defined]
    parts.append(encoded)


def fingerprint(*components: Any) -> str:
    """SHA-256 hex digest of the canonical encoding of ``components``."""
    return hashlib.sha256(canonical_bytes(components)).hexdigest()


# --------------------------------------------------------------------- #
# The store
# --------------------------------------------------------------------- #


@dataclass
class StoreStats:
    """Per-process counters of one :class:`ResultStore` instance."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> str:
        return (
            f"{self.hits} hits / {self.misses} misses "
            f"(hit rate {self.hit_rate:.3f}, {self.puts} writes, "
            f"{self.corrupt} corrupt entries skipped)"
        )


@dataclass
class PruneStats:
    """What one :meth:`ResultStore.prune` pass did."""

    examined: int = 0
    pruned: int = 0
    pruned_bytes: int = 0
    kept: int = 0
    kept_bytes: int = 0

    def summary(self) -> str:
        return (
            f"pruned {self.pruned}/{self.examined} entries "
            f"({self.pruned_bytes / 1e6:.2f} MB), kept {self.kept} "
            f"({self.kept_bytes / 1e6:.2f} MB)"
        )


class ResultStore:
    """A directory of content-addressed JSON entries.

    Entries live at ``<root>/<fp[:2]>/<fp>.json`` and carry their own
    ``schema`` and ``fingerprint`` fields, so a stale or misplaced file is
    detected on read. Writers are atomic (temp file in the target
    directory + ``os.replace``), so concurrent ``--jobs`` workers racing
    on one key leave a complete entry from *some* writer and a reader
    never observes a partial file. Reads tolerate any corruption —
    truncated JSON, garbage bytes, a schema/fingerprint mismatch, a
    non-dict payload — by reporting a miss (counted in
    :attr:`stats`\\ ``.corrupt``) so the caller recomputes and overwrites.
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        self.stats = StoreStats()

    def path_for(self, fp: str) -> Path:
        """Entry file for a fingerprint (two-level fan-out by prefix)."""
        return self.root / fp[:2] / f"{fp}.json"

    def get(self, fp: str) -> Optional[Dict[str, Any]]:
        """The payload stored under ``fp``, or None on a miss.

        Never raises for a bad entry: unreadable or invalid files count as
        (corrupt) misses.
        """
        path = self.path_for(fp)
        try:
            raw = path.read_text()
        except (OSError, UnicodeDecodeError):
            self.stats.misses += 1
            return None
        try:
            entry = json.loads(raw)
            if (
                not isinstance(entry, dict)
                or entry.get("schema") != SCHEMA_VERSION
                or entry.get("fingerprint") != fp
                or not isinstance(entry.get("payload"), dict)
            ):
                raise ValueError("invalid store entry")
        except (ValueError, TypeError):
            self.stats.misses += 1
            self.stats.corrupt += 1
            return None
        self.stats.hits += 1
        return entry["payload"]

    def put(self, fp: str, payload: Dict[str, Any]) -> None:
        """Atomically write ``payload`` under ``fp`` (last writer wins)."""
        path = self.path_for(fp)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"schema": SCHEMA_VERSION, "fingerprint": fp, "payload": payload}
        fd, tmp = tempfile.mkstemp(
            prefix=f".{fp[:12]}.", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(entry, handle)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.puts += 1

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for entry in list(self.root.glob("*/*.json")):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def prune(
        self,
        *,
        max_age_s: Optional[float] = None,
        max_bytes: Optional[int] = None,
        dry_run: bool = False,
    ) -> "PruneStats":
        """Evict entries by age and/or total size; returns what happened.

        Age first: anything older than ``max_age_s`` (by mtime) goes.
        Then, if the survivors still exceed ``max_bytes``, oldest entries
        are evicted until the store fits. Ties and ordering are by
        ``(mtime, path)`` so a prune is deterministic for a given tree.
        A pruned entry is simply a future clean miss — the content
        address recomputes and rewrites it, so pruning can never corrupt
        a result, only un-cache it.
        """
        if max_age_s is None and max_bytes is None:
            raise ValueError("prune needs max_age_s and/or max_bytes")
        if max_age_s is not None and max_age_s < 0:
            raise ValueError(f"max_age_s must be >= 0, got {max_age_s}")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = []
        for path in self.root.glob("*/*.json"):
            try:
                st = path.stat()
            except OSError:
                continue
            entries.append((st.st_mtime, str(path), path, st.st_size))
        entries.sort()
        stats = PruneStats(examined=len(entries))
        now = time.time()
        keep_bytes = 0
        victims = []
        survivors = []
        for mtime, _key, path, size in entries:
            if max_age_s is not None and now - mtime > max_age_s:
                victims.append((path, size))
            else:
                survivors.append((path, size))
                keep_bytes += size
        if max_bytes is not None:
            # survivors are oldest-first; evict from the front until we fit.
            idx = 0
            while keep_bytes > max_bytes and idx < len(survivors):
                path, size = survivors[idx]
                victims.append((path, size))
                keep_bytes -= size
                idx += 1
        for path, size in victims:
            stats.pruned += 1
            stats.pruned_bytes += size
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    stats.pruned -= 1
                    stats.pruned_bytes -= size
        stats.kept = stats.examined - stats.pruned
        stats.kept_bytes = keep_bytes
        return stats


# --------------------------------------------------------------------- #
# The process-default store
# --------------------------------------------------------------------- #

_DEFAULT_STORE: Optional[ResultStore] = None
_DEFAULT_STORE_ROOT: Optional[Path] = None


def default_store_root() -> Path:
    """Store root: ``BWAP_STORE_DIR``, else the user cache directory."""
    env = os.environ.get("BWAP_STORE_DIR")
    if env:
        return Path(env)
    cache_home = os.environ.get("XDG_CACHE_HOME")
    base = Path(cache_home) if cache_home else Path.home() / ".cache"
    return base / "bwap-repro" / "store"


def store_enabled() -> bool:
    """False when ``BWAP_STORE`` is set to ``0``/``off``/``false``/empty."""
    return os.environ.get("BWAP_STORE", "1").strip().lower() not in (
        "0",
        "off",
        "false",
        "no",
        "",
    )


def get_default_store() -> Optional[ResultStore]:
    """The process-wide store, or None when disabled.

    The instance is cached per root so hit/miss statistics accumulate
    across an experiment run; changing ``BWAP_STORE_DIR`` mid-process
    takes effect on the next call.
    """
    global _DEFAULT_STORE, _DEFAULT_STORE_ROOT
    if not store_enabled():
        return None
    root = default_store_root()
    if _DEFAULT_STORE is None or _DEFAULT_STORE_ROOT != root:
        _DEFAULT_STORE = ResultStore(root)
        _DEFAULT_STORE_ROOT = root
    return _DEFAULT_STORE
