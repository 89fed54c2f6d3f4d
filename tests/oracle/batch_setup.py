"""Per-slot loop forms of the batched solver's contractions.

:mod:`repro.memsim.contention` computes these with loop-free numpy
(``np.add.accumulate`` and boolean scatters); these are the per-slot
loops they replaced, and the production forms must match them bitwise —
padded dead slots included.
"""

from __future__ import annotations

import numpy as np


def axis_n_dot(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum_j A[..., :, j] * x[..., j]``, one slot at a time, left to
    right."""
    out = np.zeros(A.shape[:-1])
    for j in range(A.shape[-1]):
        out += A[..., j] * x[..., j, None]
    return out


def ingress_touched(
    touched: np.ndarray, ingress_rows: np.ndarray, node_idx: np.ndarray, live: np.ndarray
) -> np.ndarray:
    """``touched`` with every ingress row cleared, then set for each live
    slot resident on that ingress port's node."""
    touched = touched.copy()
    num_batch, num_slots = node_idx.shape
    batch_range = np.arange(num_batch)
    ingress_of_slot = ingress_rows[node_idx]
    valid_ingress = ingress_rows[ingress_rows >= 0]
    if valid_ingress.size:
        touched[:, valid_ingress] = False
        for j in range(num_slots):
            ok = live[:, j] & (ingress_of_slot[:, j] >= 0)
            rows = np.where(ok, ingress_of_slot[:, j], 0)
            touched[batch_range, rows] |= ok
    return touched


def node_present(node_idx: np.ndarray, mix: np.ndarray) -> np.ndarray:
    """``(batch, consumer node, memory node)`` flags: some slot on the
    consumer node reads the memory node (``mix > 0``)."""
    num_batch, num_slots, num_nodes = mix.shape
    batch_range = np.arange(num_batch)
    present = mix > 0.0
    out = np.zeros((num_batch, num_nodes, num_nodes), dtype=bool)
    for j in range(num_slots):
        out[batch_range, node_idx[:, j], :] |= present[:, j, :]
    return out
