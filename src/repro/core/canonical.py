"""The canonical tuner (paper Section III-A).

Offline, per machine: profile the effective node-to-node bandwidths with a
bandwidth-intensive reference benchmark, then compute the *canonical weight
distribution* for a worker-node set ``W``::

    minbw(n_i) = min_{w in W} bw(n_i -> w)            (weakest path to W)
    w_i        = minbw(n_i) / sum_j minbw(n_j)        (Eq. 5; Eq. 2 for |W|=1)

The canonical weights maximise the memory throughput of the idealised
canonical application (all-shared, read-only, uniformly accessed,
bandwidth-bound) and serve as the starting distribution that the on-line
DWP tuner then adapts to the real application.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.memsim.contention import proportional_profile
from repro.memsim.controller import DEFAULT_MC_MODEL, MCModel
from repro.topology.machine import Machine


def minimum_bandwidths(
    bw_matrix: np.ndarray, worker_nodes: Sequence[int]
) -> np.ndarray:
    """``minbw(n_i)`` for every node: the weakest bandwidth from node ``i``
    to any worker (paper Section III-A2, multi-worker scenario)."""
    m = np.asarray(bw_matrix, dtype=float)
    workers = list(worker_nodes)
    if not workers:
        raise ValueError("worker_nodes must not be empty")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"bw matrix must be square, got shape {m.shape}")
    for w in workers:
        if not 0 <= w < m.shape[0]:
            raise ValueError(f"worker node {w} outside matrix of size {m.shape[0]}")
    return m[:, workers].min(axis=1)


def weights_from_bandwidths(minbw: np.ndarray) -> np.ndarray:
    """Normalise minimum bandwidths into a weight distribution (Eq. 2/5)."""
    v = np.asarray(minbw, dtype=float)
    if (v < 0).any():
        raise ValueError("bandwidths must be non-negative")
    total = v.sum()
    if total <= 0:
        raise ValueError("at least one node must have positive bandwidth")
    return v / total


class CanonicalTuner:
    """Computes and caches canonical weight distributions for a machine.

    The profiling step mirrors the paper's methodology (Section III-A3):
    run the canonical benchmark on the worker set with pages uniformly
    interleaved across *all* nodes and record the observed per-pair
    throughputs; these — not the machine's nominal link specs — feed
    Eq. 5, which is what lets the tuner absorb contention and congestion
    effects without modelling them explicitly.

    Parameters
    ----------
    machine:
        Target machine.
    mc_model:
        Memory-controller model used during profiling.
    """

    def __init__(self, machine: Machine, mc_model: MCModel = DEFAULT_MC_MODEL):
        self.machine = machine
        self.mc_model = mc_model
        self._profiles: Dict[Tuple[int, ...], np.ndarray] = {}
        self._weights: Dict[Tuple[int, ...], np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # Profiling
    # ------------------------------------------------------------------ #

    def bw_profile(self, worker_nodes: Sequence[int]) -> np.ndarray:
        """Profiled ``bw(src -> dst)`` matrix for one worker set (cached).

        Only the worker columns are meaningful; non-worker destinations are
        zero (nothing consumes there during profiling).
        """
        key = self._key(worker_nodes)
        if key not in self._profiles:
            self._profiles[key] = proportional_profile(
                self.machine, list(key), self.mc_model
            )
        return self._profiles[key]

    # ------------------------------------------------------------------ #
    # Weights
    # ------------------------------------------------------------------ #

    def weights(self, worker_nodes: Sequence[int]) -> np.ndarray:
        """Canonical weight distribution for one worker set (cached)."""
        key = self._key(worker_nodes)
        if key not in self._weights:
            profile = self.bw_profile(key)
            minbw = minimum_bandwidths(profile, key)
            self._weights[key] = weights_from_bandwidths(minbw)
        return self._weights[key].copy()

    def worker_mass(self, worker_nodes: Sequence[int]) -> float:
        """Fraction of canonical weight living on the worker nodes.

        This is the DWP = 0 point of the DWP scale.
        """
        w = self.weights(worker_nodes)
        return float(w[list(self._key(worker_nodes))].sum())

    # ------------------------------------------------------------------ #
    # Install-time precomputation (paper Section III-A3, last paragraph)
    # ------------------------------------------------------------------ #

    def precompute(
        self, sizes: Iterable[int], *, use_symmetry: bool = True
    ) -> int:
        """Profile all worker sets of the given sizes, as the paper's
        install-time step does.

        With ``use_symmetry``, worker sets whose profiled environment is a
        relabelling of an already-computed one are filled in by permuting
        the cached result instead of re-profiling (the paper's optimisation
        (ii)). Returns the number of *profiling runs* performed.
        """
        runs = 0
        for size in sizes:
            for combo in self.machine.worker_sets_of_size(size):
                key = self._key(combo)
                if key in self._weights:
                    continue
                if use_symmetry:
                    hit = self._symmetric_cached(key)
                    if hit is not None:
                        perm, cached_key = hit
                        self._weights[key] = self._weights[cached_key][perm]
                        continue
                self.weights(key)
                runs += 1
        return runs

    def _symmetric_cached(
        self, key: Tuple[int, ...]
    ) -> Optional[Tuple[np.ndarray, Tuple[int, ...]]]:
        """Find a cached worker set related to ``key`` by a bandwidth-
        preserving node relabelling; returns (inverse permutation, cached
        key) when found."""
        m = self.machine.nominal_bandwidth_matrix()
        n = self.machine.num_nodes
        for cached_key in list(self._weights):
            if len(cached_key) != len(key):
                continue
            perm = _find_relabelling(m, cached_key, key)
            if perm is not None:
                # weights transform by the inverse relabelling:
                # new_w[perm[a]] = old_w[a]  =>  new_w = old_w[argsort(perm)]
                return (np.argsort(perm), cached_key)
        return None

    def _key(self, worker_nodes: Sequence[int]) -> Tuple[int, ...]:
        key = tuple(sorted(worker_nodes))
        if not key:
            raise ValueError("worker_nodes must not be empty")
        if len(set(key)) != len(key):
            raise ValueError(f"duplicate worker nodes: {worker_nodes}")
        for w in key:
            if not 0 <= w < self.machine.num_nodes:
                raise ValueError(f"worker node {w} outside machine")
        return key


def canonical_tuner(machine: Machine) -> CanonicalTuner:
    """The memoised default :class:`CanonicalTuner` of an (immutable)
    machine: its install-time profile, shared by every experiment, fleet
    backend and dataset row that runs on this machine object."""
    tuner = getattr(machine, "_canonical_tuner", None)
    if tuner is None:
        tuner = machine._canonical_tuner = CanonicalTuner(machine)  # type: ignore[attr-defined]
    return tuner


def _find_relabelling(
    bw: np.ndarray, from_set: Tuple[int, ...], to_set: Tuple[int, ...]
) -> Optional[np.ndarray]:
    """A node permutation mapping ``from_set`` onto ``to_set`` that
    preserves the bandwidth matrix, or None.

    Only *simple* relabellings are attempted: the permutation must map
    worker to worker (in sorted order) and is extended greedily over
    non-workers; this covers the socket symmetries real machines have
    without a full graph-isomorphism search.
    """
    n = bw.shape[0]
    perm = np.full(n, -1, dtype=int)
    for a, b in zip(from_set, to_set):
        perm[a] = b
    used = set(to_set)
    rest_from = [i for i in range(n) if perm[i] < 0]
    rest_to = [i for i in range(n) if i not in used]
    # Greedy matching of non-workers by bandwidth signature toward the sets.
    for a in rest_from:
        match = None
        for b in rest_to:
            ok = True
            for fa, fb in zip(from_set, to_set):
                if not (
                    np.isclose(bw[a, fa], bw[b, fb]) and np.isclose(bw[fa, a], bw[fb, b])
                ):
                    ok = False
                    break
            if ok and np.isclose(bw[a, a], bw[b, b]):
                match = b
                break
        if match is None:
            return None
        perm[a] = match
        rest_to.remove(match)
    # Verify the full matrix is preserved.
    p = perm
    if not np.allclose(bw[np.ix_(p, p)], bw):
        return None
    return perm
