"""The max-min progressive fill as it was first vectorised, kept as the
bitwise reference for :func:`repro.memsim.contention._progressive_fill`.

Each round recomputes the room on every resource under ``np.errstate``,
clips the room rather than the step, masks every update with the alive
elements, and attributes bottlenecks with an ``argmax`` whether or not any
resource has a user. The production fill must match it on ``rates``,
``load``, ``util`` and ``bottleneck_row`` bit for bit, and raise where it
raises.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.memsim.contention import _EPS


def _axis_n_dot(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum_j A[..., :, j] * x[..., j]``, accumulated left to right."""
    if not A.shape[-1]:
        return np.zeros(A.shape[:-1])
    return np.add.accumulate(A * x[..., None, :], axis=-1)[..., -1]


def progressive_fill(
    A: np.ndarray,
    caps: np.ndarray,
    touched: np.ndarray,
    demand: np.ndarray,
    live: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(rates, load, util, bottleneck_row)`` of a dense fill."""
    num_batch, num_res, num_slots = A.shape
    saturation_slack = _EPS * np.maximum(caps, 1.0)
    batch_range = np.arange(num_batch)

    rates = np.zeros((num_batch, num_slots))
    active = live.copy()
    bottleneck_row = np.full((num_batch, num_slots), -1, dtype=np.intp)
    stopped = np.zeros(num_batch, dtype=bool)
    uses = A > _EPS

    load = _axis_n_dot(A, rates)
    for _ in range(num_res + num_slots + 1):
        alive = active.any(axis=1) & ~stopped
        if not alive.any():
            break
        growth = _axis_n_dot(A, active.astype(float))
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(growth > _EPS, (caps - load) / growth, np.inf)
        room = np.clip(room, 0.0, None)
        headroom = np.where(active, demand - rates, np.inf)
        delta = np.minimum(room.min(axis=1), headroom.min(axis=1))
        if (alive & ~np.isfinite(delta)).any():
            raise RuntimeError(
                "unbounded allocation: consumer touches no finite resource"
            )
        grow = active & alive[:, None]
        rates = np.where(grow, rates + delta[:, None], rates)

        load = _axis_n_dot(A, rates)
        saturated = ((caps - load) <= saturation_slack) & touched
        users = uses & saturated[:, :, None] & active[:, None, :]
        has_user = users.any(axis=1)
        first_row = users.argmax(axis=1)
        take = has_user & (bottleneck_row < 0) & alive[:, None]
        bottleneck_row = np.where(take, first_row, bottleneck_row)

        newly_frozen = has_user | (active & (rates >= demand - _EPS))
        newly_frozen &= alive[:, None]

        need_fallback = alive & ~newly_frozen.any(axis=1)
        if need_fallback.any():
            gaps = np.where(touched, caps - load, np.inf)
            tight = gaps.argmin(axis=1)
            tight_users = uses[batch_range, tight, :] & active
            any_tight = tight_users.any(axis=1)
            stopped |= need_fallback & ~any_tight
            freeze = need_fallback & any_tight
            newly_frozen |= tight_users & freeze[:, None]
        active &= ~newly_frozen

    with np.errstate(divide="ignore", invalid="ignore"):
        util = np.where(
            touched & (caps > 0), load / np.where(caps > 0, caps, 1.0), 0.0
        )
    return rates, load, util, bottleneck_row
