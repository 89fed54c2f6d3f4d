"""The epoch kernel's per-app record derivation as it was first
vectorised, kept as the bitwise reference for
:meth:`repro.engine.kernel.EpochKernel._compute_derived`.

Path latencies add one hop column at a time, the mix-weighted totals one
source column at a time, the thread-weighted stall average is
``np.average`` and per-pair values are read element by element. The
production derivation must return equal records.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.engine.kernel import _AppEpoch
from repro.memsim.contention import latency_path_rows, machine_tables
from repro.perf.latency import _MAX_UTILIZATION


def compute_derived(kernel, ws, apps, rates_row, util_row) -> List[_AppEpoch]:
    """The records of ``apps`` from one solve's rates and utilisations."""
    sim = kernel.sim
    tables = machine_tables(sim.machine)
    num_nodes = tables.num_nodes

    u = np.minimum(util_row, _MAX_UTILIZATION)
    qd = sim.latency_model.queue_scale_ns * u / (1.0 - u)
    qd_pad = np.concatenate((qd, (0.0,)))
    rows = latency_path_rows(sim.machine)[ws.node_idx]  # (P, N, K)
    lat = tables.lat0[ws.node_idx]  # fancy index -> fresh (P, N) array
    for k in range(rows.shape[2]):
        lat = lat + qd_pad[rows[:, :, k]]
    total = np.zeros(ws.num_pairs)
    for s in range(num_nodes):
        frac = ws.mix[:, s]
        total = total + np.where(frac > 0.0, frac * lat[:, s], 0.0)
    local0 = tables.lat0[ws.node_idx, ws.node_idx]
    lat_final = np.where(ws.mix_nonzero, total, local0)

    lw = np.empty(ws.num_pairs)
    useful = np.empty(ws.num_pairs)
    for app, sl in zip(apps, ws.slices):
        wl = app.workload
        lw[sl] = wl.latency_weight
        useful[sl] = wl.node_efficiency(len(app.worker_nodes))
    ach = np.maximum(rates_row, 1e-12)
    bw = np.where(ach >= ws.demand, 1.0, ws.demand / ach)
    lat_part = lat_final / local0
    s_arr = (1.0 - lw) * bw + lw * lat_part
    stall = np.where(s_arr <= 1.0, 0.0, (s_arr - 1.0) / s_arr)
    prog = ws.demand / s_arr * useful * 1e9  # bytes/s

    records: List[_AppEpoch] = []
    for app, sl in zip(apps, ws.slices):
        act = ws.active[sl]
        if act.any():
            vals = stall[sl][act]
            weights = ws.threads[sl][act]
            frac = float(np.average(vals, weights=weights))
        else:
            frac = 0.0
        throughput = sum(float(r) for r in rates_row[sl])
        freq = sim._worker_frequency_ghz(app)
        per_node_stall: Dict[int, float] = {}
        active_pairs: List[Tuple[int, float]] = []
        for j in range(sl.start, sl.stop):
            if ws.active[j]:
                w = int(ws.node_idx[j])
                per_node_stall[w] = float(stall[j])
                active_pairs.append((w, float(prog[j])))
        records.append(
            _AppEpoch(
                frac=frac,
                throughput=throughput,
                stall_rate=frac * freq * 1e9,
                per_node_stall=per_node_stall,
                active_pairs=active_pairs,
            )
        )
    return records
