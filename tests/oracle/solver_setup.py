"""The contention solver's setup as it was written twice, kept as the
bitwise reference for the one setup pipeline in
:mod:`repro.memsim.contention`.

* :func:`batch_setup` is the dense path's setup: coefficients from the
  live-masked mixes, touched rows with the ingress rule applied over the
  whole batch, MC reader counts from a ``(batch, node, node)`` presence
  scatter, and the capacity scale multiplied in before untouched rows go
  to infinity.
* :func:`solve_batch_arrays` / :func:`solve_batch` run it through the
  unchanged :func:`~repro.memsim.contention._progressive_fill`;
  :func:`solve` is the batch of one. :func:`solve_batch` packs many
  consumer sets into one dense batch, through this module's setup or the
  production one.
* :func:`solve_batch_fleet_lazy` is the fleet gather: per-row terms
  derived one row at a time (as ``ConsumerRows.add`` derived them),
  gathered per machine group onto a padded resource axis, and scaled per
  entry after the infinity masking.

The production pipeline must match these on ``rates``, ``load``,
``caps``, ``util``, ``touched`` and ``bottleneck_row`` bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.memsim.contention import (
    Allocation,
    BatchArrays,
    _progressive_fill,
    allocation_from_rows,
    batch_coefficients,
    consumer_rows,
    machine_tables,
)
from repro.memsim.controller import DEFAULT_MC_MODEL


def live_consumers(machine, consumers):
    """Validated non-idle consumers of one solve input."""
    num_nodes = machine.num_nodes
    lv = [c for c in consumers if not c.is_idle]
    keys = [c.key() for c in lv]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate consumer keys: {sorted(keys)}")
    for c in lv:
        if not 0 <= c.node < num_nodes:
            raise ValueError(f"consumer node {c.node} outside machine")
        if len(c.mix) > num_nodes:
            raise ValueError(f"mix has {len(c.mix)} entries for a {num_nodes}-node machine")
    return lv


def batch_setup(
    machine, node_idx, mix, demand, write_fraction, live, mc_model,
    coefficients=None, capacity_scale=None,
):
    """``(tables, A, caps, touched, demand, live)`` of a dense batch."""
    t = machine_tables(machine)
    mix = np.asarray(mix, dtype=float)
    num_batch, _, num_nodes = mix.shape
    num_res = t.num_res
    live = np.asarray(live, dtype=bool)
    node_idx = np.asarray(node_idx, dtype=np.intp)
    demand = np.asarray(demand, dtype=float)
    mix = np.where(live[:, :, None], mix, 0.0)

    A = coefficients
    if A is None:
        A = batch_coefficients(machine, node_idx, mix, write_fraction, mc_model)

    touched = ((A > 0.0) & live[:, None, :]).any(axis=2)
    ingress_of_slot = t.ingress_rows[node_idx]
    valid_ingress = t.ingress_rows[t.ingress_rows >= 0]
    if valid_ingress.size:
        touched[:, valid_ingress] = False
        b, j = np.nonzero(live & (ingress_of_slot >= 0))
        touched[b, ingress_of_slot[b, j]] = True

    node_present = np.zeros((num_batch, num_nodes, num_nodes), dtype=bool)
    b, j, n = np.nonzero(mix > 0.0)
    node_present[b, node_idx[b, j], n] = True
    reader_counts = node_present.sum(axis=1)
    caps = np.broadcast_to(t.static_caps, (num_batch, num_res)).copy()
    caps[:, t.mc_rows] = t.eff_table(mc_model)[np.arange(num_nodes)[None, :], reader_counts]
    if capacity_scale is not None:
        scale = np.asarray(capacity_scale, dtype=float)
        if scale.shape != (num_res,):
            raise ValueError(f"capacity_scale must have shape ({num_res},), got {scale.shape}")
        if (scale <= 0).any():
            raise ValueError("capacity_scale entries must be positive")
        caps = caps * scale
    caps = np.where(touched, caps, np.inf)
    return t, A, caps, touched, demand, live


def solve_batch_arrays(
    machine, node_idx, mix, demand, write_fraction, live, mc_model=DEFAULT_MC_MODEL,
    *, coefficients=None, capacity_scale=None,
) -> BatchArrays:
    """The dense solve through :func:`batch_setup`."""
    t, A, caps, touched, demand, live = batch_setup(
        machine, node_idx, mix, demand, write_fraction, live, mc_model,
        coefficients, capacity_scale,
    )
    rates, load, util, bottleneck_row = _progressive_fill(A, caps, touched, demand, live)
    return BatchArrays(t, rates, load, caps, util, touched, bottleneck_row)


def solve_batch(
    machine, consumer_batches, mc_model=DEFAULT_MC_MODEL, *, capacity_scale=None,
    dense=solve_batch_arrays,
) -> List[Allocation]:
    """One :class:`Allocation` per consumer set, through one dense solve.

    ``dense`` is the dense solver the packed batch runs through: this
    module's reference by default, or the production
    :func:`repro.memsim.contention.solve_batch_arrays` to batch many
    consumer sets through the production pipeline.
    """
    batches = [list(cs) for cs in consumer_batches]
    if not batches:
        return []
    lives = [live_consumers(machine, cs) for cs in batches]
    max_live = max(len(lv) for lv in lives)
    if max_live == 0:
        return [
            Allocation(
                rates={c.key(): 0.0 for c in cs},
                utilization={},
                bottleneck={c.key(): None for c in cs},
                capacities={},
            )
            for cs in batches
        ]
    num_batch, num_nodes = len(batches), machine.num_nodes
    node_idx = np.zeros((num_batch, max_live), dtype=np.intp)
    mix = np.zeros((num_batch, max_live, num_nodes))
    demand = np.zeros((num_batch, max_live))
    write_frac = np.zeros((num_batch, max_live))
    live_mask = np.zeros((num_batch, max_live), dtype=bool)
    for b, lv in enumerate(lives):
        for j, c in enumerate(lv):
            node_idx[b, j] = c.node
            m = np.asarray(c.mix, dtype=float)
            mix[b, j, : len(m)] = m
            demand[b, j] = c.demand
            write_frac[b, j] = c.write_fraction
            live_mask[b, j] = True
    arrays = dense(
        machine, node_idx, mix, demand, write_frac, live_mask, mc_model,
        capacity_scale=capacity_scale,
    )
    return [
        allocation_from_rows(
            [c.key() for c in batches[b]],
            [c.key() for c in lives[b]],
            arrays.tables.res_keys,
            arrays.rates[b],
            arrays.bottleneck_row[b],
            arrays.touched[b],
            arrays.util[b],
            arrays.caps[b],
        )
        for b in range(num_batch)
    ]


def solve(machine, consumers, mc_model=DEFAULT_MC_MODEL, *, capacity_scale=None) -> Allocation:
    """The batch of one."""
    return solve_batch(machine, [consumers], mc_model, capacity_scale=capacity_scale)[0]


def row_terms(store, row: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(coef, touch, reads)`` of one stored row, derived as the row
    store derived them when the row was created."""
    t = store.tables
    n = t.num_nodes
    if row == 0:  # the all-zero padding row
        return np.zeros(t.num_res), np.zeros(t.num_res, dtype=bool), np.zeros(n * n, dtype=bool)
    node, mix = store.node[row], store.mix[row]
    coef = batch_coefficients(
        store.machine,
        np.array([[node]], dtype=np.intp),
        mix[None, None, :],
        np.array([[store.write_fraction[row]]]),
        store.mc_model,
    )[0, :, 0]
    touch = coef > 0.0
    touch[t.ingress_rows[t.ingress_rows >= 0]] = False
    if t.ingress_rows[node] >= 0:
        touch[t.ingress_rows[node]] = True
    reads = np.zeros(n * n, dtype=bool)
    reads[node * n : (node + 1) * n] = mix > 0.0
    return coef, touch, reads


def fleet_inputs(entries, mc_model=DEFAULT_MC_MODEL, capacity_scales=None):
    """``(A, caps, touched, demand, live)`` of the fleet gather, and the
    entries' slot counts."""
    rows: List[Sequence[int]] = []
    groups: Dict[int, Tuple[object, List[int]]] = {}
    for i, (machine, entry_rows) in enumerate(entries):
        group = groups.setdefault(id(machine), (consumer_rows(machine, mc_model), []))
        group[1].append(i)
        rows.append(entry_rows)
    num_batch = len(rows)
    lens = [len(r) for r in rows]
    max_live = max(lens, default=0)
    live_all = np.arange(max_live) < np.array(lens, dtype=np.intp)[:, None]
    idx = np.zeros((num_batch, max_live), dtype=np.intp)
    idx[live_all] = [r for entry in rows for r in entry]
    max_res = max((store.tables.num_res for store, _m in groups.values()), default=0)
    A_all = np.zeros((num_batch, max_res, max_live))
    caps_all = np.full((num_batch, max_res), np.inf)
    touched_all = np.zeros((num_batch, max_res), dtype=bool)
    demand_all = np.zeros((num_batch, max_live))
    tables = {}
    for store, members in groups.values():
        t = store.tables
        n = t.num_nodes
        for i in members:
            tables[i] = t
        at = idx[members]
        terms = [[row_terms(store, int(r)) for r in entry] for entry in at]
        coef = np.array([[c for c, _t, _r in e] for e in terms]).reshape(len(at), max_live, t.num_res)
        touch = np.array([[tt for _c, tt, _r in e] for e in terms], dtype=bool).reshape(len(at), max_live, t.num_res)
        reads = np.array([[r for _c, _t, r in e] for e in terms], dtype=bool).reshape(len(at), max_live, n * n)
        touched = touch.any(axis=1)
        readers = reads.any(axis=1).reshape(-1, n, n).sum(axis=1)
        caps = np.tile(t.static_caps, (len(at), 1))
        caps[:, t.mc_rows] = t.eff_table(mc_model)[np.arange(n)[None, :], readers]
        A_all[members, : t.num_res, :] = coef.transpose(0, 2, 1)
        caps_all[members, : t.num_res] = np.where(touched, caps, np.inf)
        touched_all[members, : t.num_res] = touched
        demand_all[members] = np.array(store.demand)[at]
    if capacity_scales is not None:
        if len(capacity_scales) != num_batch:
            raise ValueError(
                f"capacity_scales has {len(capacity_scales)} entries for {num_batch} solve entries"
            )
        for i, scale in enumerate(capacity_scales):
            if scale is None:
                continue
            num_res = tables[i].num_res
            scale = np.asarray(scale, dtype=float)
            if scale.shape != (num_res,):
                raise ValueError(f"capacity_scales[{i}] must have shape ({num_res},)")
            if (scale <= 0).any():
                raise ValueError(f"capacity_scales[{i}] entries must be positive")
            caps_all[i, :num_res] *= scale
    return A_all, caps_all, touched_all, demand_all, live_all, lens


def solve_batch_fleet_lazy(entries, mc_model=DEFAULT_MC_MODEL, *, capacity_scales=None):
    """Each entry's slot rates, and the fill's inputs and outputs as
    ``(A, caps, touched, demand, live)`` and ``(rates, load, util,
    bottleneck_row)``."""
    A, caps, touched, demand, live, lens = fleet_inputs(list(entries), mc_model, capacity_scales)
    outputs = _progressive_fill(A, caps, touched, demand, live)
    rates = [tuple(row[:n]) for row, n in zip(outputs[0].tolist(), lens)]
    return rates, (A, caps, touched, demand, live), outputs
