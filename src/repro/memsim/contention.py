"""Steady-state bandwidth allocation under contention and congestion.

This module computes what the real memory system does implicitly: given the
traffic every worker node generates (its demand and source mix), determine
the rate each worker actually achieves once memory-controller contention,
link congestion, and ingress-port limits are accounted for. The paper's
Section III-A3 lists exactly these phenomena as the reason the
``bw(src -> dst)`` function is demand-dependent.

Two allocation disciplines are provided:

* max-min fair **progressive filling** across consumers, used to model
  steady-state application execution: all consumers' rates rise together
  until a resource saturates, which freezes the consumers crossing it;
  the remainder keep growing.
* :func:`proportional_profile` — **proportional throttling** of independent
  per-pair flows, used to model the canonical tuner's profiling benchmark:
  with deep memory-level parallelism each source channel runs at its own
  capability, and when a shared resource saturates all of its flows scale
  down proportionally. This preserves the relative asymmetry between pairs,
  which is the signal the canonical tuner needs.

Progressive filling has one pipeline. :func:`_slot_terms` derives what a
consumer slot costs, touches and reads; :func:`_fill_inputs` turns those
per-slot terms into capacities and touched flags over a dense
``(batch, resources, consumers)`` tensor whose *canonical* resource axis is
fixed per machine (see :class:`MachineTables`); :func:`_progressive_fill`
runs the filling loop. Three thin adapters feed it:
:func:`solve_batch_arrays` (dense slot arrays: the epoch kernel and the
weight search), :func:`solve_batch_fleet_lazy` (the stored terms of
:class:`ConsumerRows`, for many machines at once: the fleet) and
:func:`solve` (a ``Consumer`` list, packed as one dense batch element).
Batch elements are independent and padding is an exact no-op, so every
adapter returns bitwise what solving one consumer set alone returns.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.memsim.controller import DEFAULT_MC_MODEL, MCModel
from repro.memsim.flows import Consumer
from repro.topology.machine import Machine

#: Numerical slack used when deciding resource saturation.
_EPS = 1e-9

#: Resource keys are ('mc', node), ('link', src, dst), or ('ingress', node).
ResourceKey = Tuple


@dataclass
class Allocation:
    """Result of a contention solve.

    Attributes
    ----------
    rates:
        Achieved aggregate rate (GB/s) per consumer, keyed by
        ``(app_id, node)``.
    utilization:
        Load / capacity per resource (see module docs for key format).
    bottleneck:
        For each consumer, the resource that froze its growth (None when
        the consumer was satisfied by its own demand cap).
    capacities:
        Effective capacity per resource used by this solve (after MC
        de-rating).
    """

    rates: Dict[Tuple[str, int], float]
    utilization: Dict[ResourceKey, float]
    bottleneck: Dict[Tuple[str, int], Optional[ResourceKey]]
    capacities: Dict[ResourceKey, float]
    #: Lazily-built per-app grouping of ``rates`` (and its totals), so
    #: asking for every app does not rescan the dict once per app.
    _app_groups: Optional[Dict[str, Dict[int, float]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _app_totals: Optional[Dict[str, float]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def rate(self, app_id: str, node: int) -> float:
        """Achieved rate of one consumer."""
        return self.rates[(app_id, node)]

    def _grouped(self) -> Dict[str, Dict[int, float]]:
        if self._app_groups is None:
            groups: Dict[str, Dict[int, float]] = {}
            for (aid, node), r in self.rates.items():
                groups.setdefault(aid, {})[node] = r
            self._app_groups = groups
            self._app_totals = {
                aid: sum(by_node.values()) for aid, by_node in groups.items()
            }
        return self._app_groups

    def app_rates(self, app_id: str) -> Dict[int, float]:
        """Per-worker-node rates of one application."""
        return dict(self._grouped().get(app_id, {}))

    def app_total_rate(self, app_id: str) -> float:
        """Aggregate achieved rate of one application across its workers."""
        self._grouped()
        assert self._app_totals is not None
        return self._app_totals.get(app_id, 0.0)

    def resource_utilization(self, key: ResourceKey) -> float:
        """Utilization of one resource (0 when unused)."""
        return self.utilization.get(key, 0.0)


class SolverCache:
    """LRU cache of :func:`solve` results keyed by input fingerprint.

    The simulator's inner loop re-solves the machine-wide allocation every
    epoch, but between placement changes (DWP steps, policy migrations, app
    arrival/finish) the consumer set is bit-for-bit identical — the solve
    is pure, so its previous :class:`Allocation` can be replayed. A small
    LRU (rather than a single slot) also captures tuner probe phases that
    alternate between a handful of placements.
    """

    def __init__(self, maxsize: int = 128):
        if maxsize < 1:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, key: Hashable):
        """Cached value for ``key`` (None on a miss; statistics updated).
        Callers key on an exact solve-input identity (the epoch kernel on
        its workspace digest); one cache holds one kind of value."""
        hit = self._entries.get(key)
        if hit is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return hit
        self.misses += 1
        return None

    def store(self, key: Hashable, value) -> None:
        """Insert ``value`` under ``key`` (after the :meth:`lookup` miss
        that counted it), evicting the LRU entry past ``maxsize``.
        Re-storing a key refreshes its recency."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop all entries (statistics are kept)."""
        self._entries.clear()


def _pair_link_table(
    machine: Machine,
) -> Dict[Tuple[int, int], Tuple[Tuple[ResourceKey, float, float], ...]]:
    """Per-machine table of link resources on every remote (src, dst) pair.

    Each entry is ``(link_key, per-unit coefficient, capacity)`` with the
    multi-hop forwarding overhead folded into the coefficient. Machines are
    immutable, so the table is computed once and memoised on the machine —
    the contention solver runs every simulated epoch and must not re-walk
    routes each time.
    """
    cache = getattr(machine, "_contention_pair_links", None)
    if cache is None:
        cache = {}
        for src in range(machine.num_nodes):
            for dst in range(machine.num_nodes):
                if src == dst:
                    continue
                route = machine.route(src, dst)
                overhead = 1.0 / (machine.hop_efficiency ** max(0, route.hops - 1))
                cache[(src, dst)] = tuple(
                    (("link", link.src, link.dst), overhead, link.capacity)
                    for link in route.links
                )
        machine._contention_pair_links = cache  # type: ignore[attr-defined]
    return cache


class MachineTables:
    """Canonical array-native view of one machine's contended resources.

    The batched solver works on dense ``(batch, resources, consumers)``
    arrays. For scalar/batch bitwise equivalence the resource axis must be
    identical for *every* solve on a machine — resources a particular
    consumer set never touches keep an infinite capacity and a cleared
    ``touched`` flag instead of being dropped from the axis. Rows are
    sorted by resource key, which makes per-row scans (bottleneck
    attribution, the tightest-resource fallback) visit resources in the
    same order the dict-era solver did.

    Attributes
    ----------
    res_keys / res_index:
        The sorted canonical resource axis and its inverse mapping.
    mc_rows / ingress_rows:
        Row index of each node's memory controller / ingress port
        (``ingress_rows[w] == -1`` when ingress limiting is disabled).
    static_caps:
        Per-row capacities that do not depend on the consumer set (links
        and ingress ports; MC rows are de-rated per solve).
    G_rest:
        ``(nodes, resources, nodes)`` per-unit-rate coefficients of a
        consumer resident on node ``w`` pulling from source ``s`` —
        everything except the MC share: route links (with multi-hop
        overhead folded in) and the ingress indicator.
    Q / lat0:
        Latency incidence used by the batched analytic evaluator:
        ``Q[w, s, r]`` counts how often resource ``r``'s queueing delay is
        added to a ``s -> w`` access, and ``lat0[w, s]`` is the unloaded
        latency of that access.
    """

    __slots__ = (
        "res_keys",
        "res_index",
        "num_nodes",
        "num_res",
        "mc_rows",
        "ingress_rows",
        "static_caps",
        "G_rest",
        "Q",
        "lat0",
        "local_bw",
        "node_ids",
        "_eff_tables",
    )

    def __init__(self, machine: Machine):
        num_nodes = machine.num_nodes
        has_ingress = [
            bool(np.isfinite(machine.ingress_capacity(w))) for w in range(num_nodes)
        ]
        keys: List[ResourceKey] = [("mc", s) for s in range(num_nodes)]
        keys.extend(("link", link.src, link.dst) for link in machine.links)
        keys.extend(("ingress", w) for w in range(num_nodes) if has_ingress[w])
        self.res_keys: List[ResourceKey] = sorted(keys)
        self.res_index: Dict[ResourceKey, int] = {
            k: i for i, k in enumerate(self.res_keys)
        }
        self.num_nodes = num_nodes
        self.num_res = len(self.res_keys)
        self.node_ids = np.arange(num_nodes)

        self.mc_rows = np.array([self.res_index[("mc", s)] for s in range(num_nodes)], dtype=np.intp)
        self.ingress_rows = np.array(
            [self.res_index[("ingress", w)] if has_ingress[w] else -1 for w in range(num_nodes)],
            dtype=np.intp,
        )

        caps = np.zeros(self.num_res)
        for link in machine.links:
            caps[self.res_index[("link", link.src, link.dst)]] = link.capacity
        for w in range(num_nodes):
            if has_ingress[w]:
                caps[self.ingress_rows[w]] = machine.ingress_capacity(w)
        self.static_caps = caps

        pair_links = _pair_link_table(machine)
        G = np.zeros((num_nodes, self.num_res, num_nodes))
        Q = np.zeros((num_nodes, num_nodes, self.num_res))
        for w in range(num_nodes):
            for s in range(num_nodes):
                Q[w, s, self.mc_rows[s]] += 1.0
                if s == w:
                    continue
                for key_l, overhead, _cap in pair_links[(s, w)]:
                    ri = self.res_index[key_l]
                    G[w, ri, s] += overhead
                    Q[w, s, ri] += 1.0
                if has_ingress[w]:
                    G[w, self.ingress_rows[w], s] += 1.0
                    Q[w, s, self.ingress_rows[w]] += 1.0
        self.G_rest = G

        self.Q = Q
        self.lat0 = np.array(
            [
                [machine.access_latency_ns(s, w) for s in range(num_nodes)]
                for w in range(num_nodes)
            ]
        )
        self.local_bw = np.array([machine.node(s).local_bandwidth for s in range(num_nodes)])
        self._eff_tables: Dict[Tuple[float, float, float], np.ndarray] = {}

    def eff_table(self, mc_model: MCModel) -> np.ndarray:
        """``(nodes, nodes + 1)`` de-rated MC capacity by reader count."""
        key = (
            mc_model.efficiency_floor,
            mc_model.contention_decay,
            mc_model.write_cost_factor,
        )
        table = self._eff_tables.get(key)
        if table is None:
            n = self.num_nodes
            table = self._eff_tables[key] = np.array([
                [mc_model.effective_capacity(float(self.local_bw[s]), k) for k in range(n + 1)]
                for s in range(n)
            ])
        return table


def machine_tables(machine: Machine) -> MachineTables:
    """The memoised :class:`MachineTables` of an (immutable) machine."""
    tables = getattr(machine, "_contention_tables", None)
    if tables is None:
        tables = MachineTables(machine)
        machine._contention_tables = tables  # type: ignore[attr-defined]
    return tables


def latency_path_rows(machine: Machine) -> np.ndarray:
    """``(nodes, nodes, K)`` canonical resource rows of every ``s -> w`` path.

    ``[w, s]`` lists the rows whose queueing delays
    :meth:`repro.perf.latency.LatencyModel.consumer_latency_ns` adds to an
    access from source ``s`` by a consumer on node ``w``: the source MC,
    the route's links in route order, then (remote paths with ingress
    limiting only) the destination ingress port. Entries are padded to a
    common length ``K`` with ``num_res``; callers gather from a per-row
    delay vector with a 0.0 appended, so each pad adds an exact zero and
    the sum accumulates the scalar model's terms in its order. Memoised
    on the (immutable) machine.
    """
    cached = getattr(machine, "_latency_path_rows", None)
    if cached is not None:
        return cached
    t = machine_tables(machine)
    pair_links = _pair_link_table(machine)
    paths: Dict[Tuple[int, int], List[int]] = {}
    kmax = 1
    for w in range(t.num_nodes):
        for s in range(t.num_nodes):
            rows = [int(t.mc_rows[s])]
            if s != w:
                rows.extend(t.res_index[key] for key, _ov, _cap in pair_links[(s, w)])
                if t.ingress_rows[w] >= 0:
                    rows.append(int(t.ingress_rows[w]))
            paths[(w, s)] = rows
            kmax = max(kmax, len(rows))
    out = np.full((t.num_nodes, t.num_nodes, kmax), t.num_res, dtype=np.intp)
    for (w, s), rows in paths.items():
        out[w, s, : len(rows)] = rows
    machine._latency_path_rows = out  # type: ignore[attr-defined]
    return out


def _axis_n_dot(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum_j A[..., :, j] * x[..., j]`` accumulated sequentially over j.

    Equivalent to ``A @ x[..., None]`` but with a left-to-right order
    (``np.add.accumulate`` is sequential by definition) that is independent
    of the batch shape and exact under zero padding: the operands are
    non-negative, so a zero term is a bitwise no-op. Batched solves are
    bitwise solves alone because of this; BLAS-style blocked reductions
    change results with the operand shape.
    """
    if not A.shape[-1]:
        return np.zeros(A.shape[:-1])
    return np.add.accumulate(A * x[..., None, :], axis=-1)[..., -1]


class BatchArrays(NamedTuple):
    """Raw array outputs of one batched progressive-filling solve.

    ``rates``/``bottleneck_row`` are indexed ``(batch, consumer-slot)``;
    ``load``/``caps``/``util``/``touched`` are ``(batch, resource-row)``
    over the canonical axis of ``tables.res_keys``. ``bottleneck_row`` is
    -1 for consumers frozen by their own demand cap (or never frozen).
    """

    tables: MachineTables
    rates: np.ndarray
    load: np.ndarray
    caps: np.ndarray
    util: np.ndarray
    touched: np.ndarray
    bottleneck_row: np.ndarray


def batch_coefficients(
    machine: Machine,
    node_idx: np.ndarray,
    mix: np.ndarray,
    write_fraction: np.ndarray,
    mc_model: MCModel = DEFAULT_MC_MODEL,
) -> np.ndarray:
    """Per-unit-rate incidence matrix ``A[b, r, j]`` of a consumer batch.

    What one GB/s of consumer slot ``j`` costs at canonical resource row
    ``r``: the write-amplified MC share plus route-link overheads and the
    ingress indicator. ``A`` is independent of which slots are live — a
    dead slot's rate is pinned at zero, so its column never contributes —
    which lets callers that re-solve the same consumers under a shrinking
    live mask (the batched analytic evaluator) build it once and pass it to
    :func:`solve_batch_arrays` via ``coefficients``.
    """
    t = machine_tables(machine)
    num_batch, num_slots, _ = mix.shape
    write_scale = 1.0 + np.asarray(write_fraction, dtype=float) * (
        mc_model.write_cost_factor - 1.0
    )
    A = np.zeros((num_batch, t.num_res, num_slots))
    A[:, t.mc_rows, :] = np.swapaxes(mix * write_scale[:, :, None], 1, 2)
    # When every batch row has the same consumer-node layout (one search
    # scoring many mixes for one deployment), the per-batch coefficient
    # gather collapses to a single row — the einsum is elementwise over
    # the batch either way.
    if num_batch > 1 and (node_idx == node_idx[0]).all():
        A += np.einsum("jrk,bjk->brj", t.G_rest[node_idx[0]], mix)
    else:
        A += np.einsum("bjrk,bjk->brj", t.G_rest[node_idx], mix)
    return A


def _slot_terms(
    machine: Machine,
    node_idx: np.ndarray,
    mix: np.ndarray,
    write_fraction: np.ndarray,
    mc_model: MCModel,
    coefficients: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What each slot of a ``(batch, slot)`` consumer layout costs, touches
    and reads — the one derivation every solve's setup starts from:

    * ``A[b, r, j]``, the slot's :func:`batch_coefficients` column
      (``coefficients`` when the caller already built it);
    * ``touch[b, j, r]``, the resources the slot marks touched: each MC or
      link it has a positive coefficient on (a positive mix entry on the
      row's paths) and, whatever its mix, its own node's ingress port;
    * ``reads[b, j, w, s]``, set when the slot sits on node ``w`` and
      reads memory node ``s`` (MC reader counts follow from these).
    """
    t = machine_tables(machine)
    A = coefficients
    if A is None:
        A = batch_coefficients(machine, node_idx, mix, write_fraction, mc_model)
    touch = np.swapaxes(A > 0.0, 1, 2)
    # A slot's coefficients reach no ingress port but its own node's.
    ingress = t.ingress_rows[node_idx]
    b, j = np.nonzero(ingress >= 0)
    touch[b, j, ingress[b, j]] = True
    reads = (node_idx[..., None] == t.node_ids)[..., None] & (mix > 0.0)[..., None, :]
    return A, touch, reads


def _check_consumer(c: Consumer, num_nodes: int) -> None:
    if not 0 <= c.node < num_nodes:
        raise ValueError(f"consumer node {c.node} outside machine")
    if len(c.mix) > num_nodes:
        raise ValueError(f"mix has {len(c.mix)} entries for a {num_nodes}-node machine")


class ConsumerRows:
    """Validated consumer rows of one machine, shared by every fleet solve.

    A row holds what the solver reads of one consumer (node, demand, write
    fraction, mix) and, computed once at creation by :func:`_slot_terms`,
    what a solve derives from it: ``coef``, its coefficient column;
    ``touch``, the resources it marks touched; ``reads``, its ``(node,
    source)`` presence. Rows are deduplicated by value, so a row id
    stands for its values (the fleet's machine states key on row ids) and
    the store grows with the distinct consumers seen, not with solves.
    Row 0 is all zeros: the padding of dead slots.
    """

    def __init__(self, machine: Machine, mc_model: MCModel = DEFAULT_MC_MODEL):
        self.machine = machine
        self.mc_model = mc_model
        self.tables = t = machine_tables(machine)
        n = t.num_nodes
        self.eff = t.eff_table(mc_model)
        self.node: List[int] = [0]
        self.demand: List[float] = [0.0]
        self.write_fraction: List[float] = [0.0]
        self.threads: List[int] = [0]
        self._index: Dict[tuple, int] = {}
        self.mix = np.zeros((16, n))
        self.coef = np.zeros((16, t.num_res))
        self.touch = np.zeros((16, t.num_res), dtype=bool)
        self.reads = np.zeros((16, n, n), dtype=bool)
        self.demand_arr = np.zeros(16)

    def add(self, c: Consumer) -> int:
        """Row index of consumer ``c`` (created and validated on first use)."""
        n = self.tables.num_nodes
        _check_consumer(c, n)
        mix = np.zeros(n)
        mix[: len(c.mix)] = c.mix
        key = (c.node, float(c.demand), float(c.write_fraction), mix.tobytes())
        row = self._index.get((key, c.threads))
        if row is not None:
            return row
        row = len(self.node)
        if row == len(self.mix):
            for name in ("mix", "coef", "touch", "reads", "demand_arr"):
                old = getattr(self, name)
                grown = np.zeros((2 * len(old),) + old.shape[1:], dtype=old.dtype)
                grown[: len(old)] = old
                setattr(self, name, grown)
        A, touch, reads = _slot_terms(
            self.machine,
            np.array([[c.node]], dtype=np.intp),
            mix[None, None, :],
            np.array([[key[2]]]),
            self.mc_model,
        )
        self.mix[row] = mix
        self.coef[row] = A[0, :, 0]
        self.touch[row] = touch[0, 0]
        self.reads[row] = reads[0, 0]
        self.demand_arr[row] = key[1]
        self.node.append(c.node)
        self.demand.append(key[1])
        self.write_fraction.append(key[2])
        self.threads.append(c.threads)
        self._index[(key, c.threads)] = row
        return row

    def add_live(self, consumers: Sequence[Consumer]) -> List[int]:
        """Rows of the non-idle consumers of one solve input, after the
        same validation :func:`solve` applies (duplicate keys, nodes and
        mix lengths) — the adapter from ``Consumer`` lists to rows."""
        return [self.add(c) for c in _live_consumers(self.machine, consumers)]

    def consumer(self, row: int, app_id: str) -> Consumer:
        """Row ``row`` as a :class:`Consumer` of ``app_id``."""
        return Consumer(
            app_id, self.node[row], self.threads[row], self.mix[row].copy(),
            self.demand[row], self.write_fraction[row],
        )


def consumer_rows(machine: Machine, mc_model: MCModel = DEFAULT_MC_MODEL) -> ConsumerRows:
    """The shared :class:`ConsumerRows` of an (immutable) machine."""
    by_model = getattr(machine, "_consumer_rows", None)
    if by_model is None:
        by_model = machine._consumer_rows = {}  # type: ignore[attr-defined]
    key = (mc_model.efficiency_floor, mc_model.contention_decay, mc_model.write_cost_factor)
    rows = by_model.get(key)
    if rows is None:
        rows = by_model[key] = ConsumerRows(machine, mc_model)
    return rows


def _fill_inputs(
    groups: Sequence[tuple],
    live: np.ndarray,
    capacity_scales: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The :func:`_progressive_fill` inputs ``(A, caps, touched, demand)``
    of gathered per-slot terms: the setup of every solve.

    ``groups`` holds one ``(tables, eff, members, A, touch, reads,
    demand)`` per machine: the :func:`_slot_terms` of batch entries
    ``members`` (``None`` for all of them) and the machine's
    :meth:`MachineTables.eff_table`. ``live`` masks the ``(entry, slot)``
    grid. A resource is touched by any live slot that touches it; an MC is
    de-rated by the number of distinct nodes with a live slot reading it;
    untouched rows are unconstrained (``inf``). ``capacity_scales`` holds
    an optional multiplier per entry over its machine's canonical
    resource axis. Entries on machines with fewer resources than the
    largest get padded rows (untouched, ``inf``, zero incidence), which
    are exact no-ops in the fill.
    """
    num_batch, num_slots = live.shape
    if capacity_scales is not None and len(capacity_scales) != num_batch:
        raise ValueError(f"capacity_scales has {len(capacity_scales)} entries for {num_batch} solve entries")
    if len(groups) != 1:
        max_res = max((group[0].num_res for group in groups), default=0)
        A_all = np.zeros((num_batch, max_res, num_slots))
        caps_all = np.full((num_batch, max_res), np.inf)
        touched_all = np.zeros((num_batch, max_res), dtype=bool)
        demand_all = np.zeros((num_batch, num_slots))
    for t, eff, members, A, touch, reads, demand in groups:
        sel = slice(None) if members is None or len(members) == num_batch else members
        lv = live[sel]
        touched = (touch & lv[:, :, None]).any(axis=1)
        readers = (reads & lv[:, :, None, None]).any(axis=1).sum(axis=1)
        caps = np.repeat(t.static_caps[None, :], len(lv), axis=0)
        caps[:, t.mc_rows] = eff[t.node_ids, readers]
        caps = np.where(touched, caps, np.inf)
        if capacity_scales is not None:
            for k, i in enumerate(range(num_batch) if members is None else members):
                scale = capacity_scales[i]
                if scale is None:
                    continue
                scale = np.asarray(scale, dtype=float)
                if scale.shape != (t.num_res,):
                    raise ValueError(f"capacity scale of entry {i} must have shape ({t.num_res},), got {scale.shape}")
                if not (np.isfinite(scale) & (scale > 0)).all():  # NaN fails too
                    raise ValueError(f"capacity scale of entry {i} must be positive and finite")
                # Untouched rows are inf and stay inf under a positive scale.
                caps[k] *= scale
        if len(groups) == 1:
            return A, caps, touched, demand
        A_all[sel, : t.num_res, :] = A
        caps_all[sel, : t.num_res] = caps
        touched_all[sel, : t.num_res] = touched
        demand_all[sel] = demand
    return A_all, caps_all, touched_all, demand_all


def _progressive_fill(
    A: np.ndarray,
    caps: np.ndarray,
    touched: np.ndarray,
    demand: np.ndarray,
    live: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Machine-independent max-min progressive-filling loop.

    Operates purely on dense ``(batch, resources, consumers)`` tensors;
    batch elements are independent, and padded resource rows (zero
    incidence, infinite capacity, untouched) and dead consumer slots are
    exact no-ops — which is what lets heterogeneous machine groups share
    one fleet-wide tensor. Live slots need non-negative demands. Returns
    ``(rates, load, util, bottleneck_row)``. The per-round steps are in
    ``docs/model.md`` §3; an element that stops has every slot frozen, so
    ``active`` alone says which elements are still filling.
    """
    num_batch, num_res, num_slots = A.shape
    saturation_slack = _EPS * np.maximum(caps, 1.0)
    demand_lo = demand - _EPS
    uses = A > _EPS

    rates = np.zeros((num_batch, num_slots))
    load = np.zeros((num_batch, num_res))
    gap = caps  # caps - load at zero load
    active = live.copy()
    bottleneck_row = np.full((num_batch, num_slots), -1, dtype=np.intp)
    for _ in range(num_res + num_slots + 1):
        alive = active.any(axis=1)
        if not alive.any():
            break
        growth = _axis_n_dot(A, active)
        room = np.full((num_batch, num_res), np.inf)
        np.divide(gap, growth, out=room, where=growth > _EPS)
        headroom = np.where(active, demand - rates, np.inf)
        delta = np.maximum(np.minimum(room.min(axis=1), headroom.min(axis=1)), 0.0)
        if (alive & ~np.isfinite(delta)).any():
            # Every active consumer is unbounded and touches no finite
            # resource — cannot happen on a real machine, but guard anyway.
            raise RuntimeError(
                "unbounded allocation: consumer touches no finite resource"
            )
        np.add(rates, delta[:, None], out=rates, where=active)

        load = _axis_n_dot(A, rates)
        gap = caps - load
        saturated = (gap <= saturation_slack) & touched
        users = uses & saturated[:, :, None] & active[:, None, :]
        has_user = users.any(axis=1)
        # First saturated resource (in canonical row order) claims each
        # consumer's bottleneck attribution, once.
        if has_user.any():
            take = has_user & (bottleneck_row < 0)
            bottleneck_row = np.where(take, users.argmax(axis=1), bottleneck_row)

        frozen = has_user | (active & (rates >= demand_lo))
        need_fallback = alive & ~frozen.any(axis=1)
        if need_fallback.any():
            # Nothing froze: numerical corner; freeze the tightest
            # resource's users to guarantee progress, or stop the element
            # (freeze every slot) when even that resource has none.
            tight = np.where(touched, gap, np.inf).argmin(axis=1)
            tight_users = uses[np.arange(num_batch), tight, :] & active
            frozen |= tight_users & need_fallback[:, None]
            frozen |= (need_fallback & ~tight_users.any(axis=1))[:, None]
        active &= ~frozen

    util = np.zeros((num_batch, num_res))
    np.divide(load, caps, out=util, where=touched & (caps > 0))
    return rates, load, util, bottleneck_row


def solve_batch_arrays(
    machine: Machine,
    node_idx: np.ndarray,
    mix: np.ndarray,
    demand: np.ndarray,
    write_fraction: np.ndarray,
    live: np.ndarray,
    mc_model: MCModel = DEFAULT_MC_MODEL,
    *,
    coefficients: Optional[np.ndarray] = None,
    capacity_scale: Optional[np.ndarray] = None,
) -> BatchArrays:
    """Vectorised max-min progressive filling over a batch of consumer sets.

    Inputs are dense arrays over ``(batch, consumer-slot)``: ``node_idx``
    holds each consumer's worker node, ``mix`` its per-source traffic
    fractions (``(batch, slot, nodes)``), ``demand``/``write_fraction`` per
    slot, and ``live`` the slot-validity mask — trailing padding and idle
    consumers are simply dead slots. Each batch element's results are
    bitwise those of solving it alone. ``capacity_scale`` is an optional
    per-resource multiplier over ``machine_tables(machine).res_keys``
    (fault plans degrade link capacities with it), applied to every
    element; ``None`` leaves the solve bit-for-bit unchanged.
    """
    t = machine_tables(machine)
    mix = np.asarray(mix, dtype=float)
    if mix.ndim != 3 or mix.shape[2] != t.num_nodes:
        raise ValueError(
            f"mix must be (batch, consumers, {t.num_nodes}), got {mix.shape}"
        )
    live = np.asarray(live, dtype=bool)
    node_idx = np.asarray(node_idx, dtype=np.intp)
    A, touch, reads = _slot_terms(
        machine, node_idx, mix, write_fraction, mc_model, coefficients
    )
    group = (t, t.eff_table(mc_model), None, A, touch, reads, np.asarray(demand, dtype=float))
    scales = None if capacity_scale is None else [capacity_scale] * len(live)
    A, caps, touched, demand = _fill_inputs([group], live, scales)
    rates, load, util, bottleneck_row = _progressive_fill(
        A, caps, touched, demand, live
    )
    return BatchArrays(t, rates, load, caps, util, touched, bottleneck_row)


def allocation_from_rows(
    keys: Sequence[Tuple[str, int]],
    live_keys: Sequence[Tuple[str, int]],
    res_keys: Sequence[ResourceKey],
    rates_row: np.ndarray,
    bottleneck_row: np.ndarray,
    touched_row: np.ndarray,
    util_row: np.ndarray,
    caps_row: np.ndarray,
) -> Allocation:
    """Unpack one batch element's dense rows into an :class:`Allocation`.

    ``keys`` are every consumer's keys in order (dead ones keep a 0.0 rate
    and a None bottleneck); ``rates_row``/``bottleneck_row`` are indexed
    like ``live_keys``. ``touched_row`` may be longer than ``res_keys``
    (fleet tensors pad the resource axis); padded rows are never touched,
    so the scan stays within the machine's own canonical axis.
    """
    rates: Dict[Tuple[str, int], float] = {k: 0.0 for k in keys}
    bottleneck: Dict[Tuple[str, int], Optional[ResourceKey]] = {k: None for k in keys}
    for j, k in enumerate(live_keys):
        rates[k] = float(rates_row[j])
        row = int(bottleneck_row[j])
        if row >= 0:
            bottleneck[k] = res_keys[row]
    touched_rows = np.nonzero(touched_row)[0]
    utilization = {res_keys[i]: float(util_row[i]) for i in touched_rows}
    capacities = {res_keys[i]: float(caps_row[i]) for i in touched_rows}
    return Allocation(
        rates=rates,
        utilization=utilization,
        bottleneck=bottleneck,
        capacities=capacities,
    )


def _live_consumers(machine: Machine, consumers: Sequence[Consumer]) -> List[Consumer]:
    """Validated non-idle consumers of one solve input."""
    lv = [c for c in consumers if not c.is_idle]
    keys = [c.key() for c in lv]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate consumer keys: {sorted(keys)}")
    for c in lv:
        _check_consumer(c, machine.num_nodes)
    return lv


def solve_batch_fleet_lazy(
    entries: Iterable[Tuple[Machine, Sequence[int]]],
    mc_model: MCModel = DEFAULT_MC_MODEL,
    *,
    capacity_scales: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> List[Tuple[float, ...]]:
    """Solve consumer sets on *heterogeneous* machines in one filling pass;
    returns each entry's slot rates in slot order.

    Each entry is ``(machine, rows)``: non-idle row indices into the
    machine's shared :func:`consumer_rows`, in slot order — the fleet
    scheduler gathers a machine's resident rows, then a candidate's
    (:meth:`ConsumerRows.add_live` turns a ``Consumer`` list into rows,
    after :func:`solve`'s checks). The rows' stored :func:`_slot_terms`
    are gathered per machine into :func:`_fill_inputs`, so each entry's
    rates are bitwise what ``solve(machine, consumers)`` gives the
    consumers behind its rows, run alone. ``capacity_scales`` holds one
    ``(num_res,)`` multiplier (or ``None``) per entry, like :func:`solve`'s
    ``capacity_scale``: the fleet degrades single machines' links with it.
    """
    rows: List[Sequence[int]] = []
    # Entries grouped by machine: one shared row store per group.
    groups: Dict[int, Tuple[ConsumerRows, List[int]]] = {}
    for i, (machine, entry_rows) in enumerate(entries):
        group = groups.get(id(machine))
        if group is None:
            group = groups[id(machine)] = (consumer_rows(machine, mc_model), [])
        group[1].append(i)
        rows.append(entry_rows)
    lens = [len(r) for r in rows]
    # Slot-major row matrix, padded with row 0 (all zeros: a dead slot).
    live = np.arange(max(lens, default=0)) < np.array(lens, dtype=np.intp)[:, None]
    idx = np.zeros(live.shape, dtype=np.intp)
    idx[live] = [r for entry in rows for r in entry]
    parts = []
    for store, members in groups.values():
        at = idx[members] if len(members) < len(rows) else idx
        parts.append((
            store.tables, store.eff, members, store.coef[at].transpose(0, 2, 1),
            store.touch[at], store.reads[at], store.demand_arr[at],
        ))
    A, caps, touched, demand = _fill_inputs(parts, live, capacity_scales)
    rates = _progressive_fill(A, caps, touched, demand, live)[0]
    return [tuple(row[:n]) for row, n in zip(rates.tolist(), lens)]


def solve(
    machine: Machine,
    consumers: Sequence[Consumer],
    mc_model: MCModel = DEFAULT_MC_MODEL,
    *,
    capacity_scale: Optional[np.ndarray] = None,
) -> Allocation:
    """Max-min fair progressive filling across consumers.

    All non-idle consumers' rates grow at the same pace. When a resource
    saturates, every consumer with positive share in it freezes; when a
    consumer reaches its demand cap it freezes satisfied. Terminates after
    at most ``len(resources) + len(consumers)`` rounds. The validated
    non-idle consumers are solved as one :func:`solve_batch_arrays` batch
    element; idle ones keep a 0.0 rate and no bottleneck.
    """
    lv = _live_consumers(machine, consumers)
    mix = np.zeros((1, len(lv), machine.num_nodes))
    for j, c in enumerate(lv):
        mix[0, j, : len(c.mix)] = c.mix
    arrays = solve_batch_arrays(
        machine,
        [[c.node for c in lv]],
        mix,
        [[c.demand for c in lv]],
        [[c.write_fraction for c in lv]],
        np.ones((1, len(lv)), dtype=bool),
        mc_model,
        capacity_scale=capacity_scale,
    )
    rows = (arrays.rates, arrays.bottleneck_row, arrays.touched, arrays.util, arrays.caps)
    return allocation_from_rows(
        [c.key() for c in consumers], [c.key() for c in lv], arrays.tables.res_keys,
        *(row[0] for row in rows),
    )


def proportional_profile(
    machine: Machine,
    worker_nodes: Sequence[int],
    mc_model: MCModel = DEFAULT_MC_MODEL,
    *,
    max_iterations: int = 100,
) -> np.ndarray:
    """Effective ``bw(src -> dst)`` matrix under concurrent profiling load.

    Models the canonical tuner's profiling run (Section III-A3): the
    bandwidth-intensive reference benchmark runs on ``worker_nodes`` with
    pages uniformly interleaved across *all* nodes, and per-pair throughput
    is observed. Each pair's flow starts at its nominal (isolated)
    bandwidth; shared resources that end up overloaded scale all their
    flows down proportionally until everything fits.

    Returns an ``N x len(worker_nodes)``-shaped matrix restricted to the
    worker columns embedded in a full ``N x N`` array: entries for
    non-worker destinations are 0.
    """
    workers = list(worker_nodes)
    if not workers:
        raise ValueError("worker_nodes must not be empty")
    if len(set(workers)) != len(workers):
        raise ValueError(f"duplicate worker nodes: {workers}")
    n = machine.num_nodes
    for w in workers:
        if not 0 <= w < n:
            raise ValueError(f"worker node {w} outside machine")

    flows: List[Tuple[int, int]] = [(src, w) for w in workers for src in range(n)]
    rates = np.array([machine.nominal_bandwidth(s, d) for s, d in flows])

    def _waterfill(idx: List[int], coefs_: List[float], cap: float) -> None:
        """Equal-share (max-min) reduction: find the level t such that
        ``sum(min(rate, t) * coef) == cap`` and clip rates at t.

        Memory controllers arbitrate roughly fairly among requestors
        (FR-FCFS), so an overloaded controller equalises its flows instead
        of scaling them proportionally — this is what makes the profiled
        inter-worker bandwidths tend to uniformity as the worker set grows
        (the paper's Section IV-A observation).
        """
        pairs = sorted(zip((rates[m] for m in idx), coefs_, idx))
        remaining = cap
        coef_sum = sum(c for _, c, _ in pairs)
        level = None
        for r, c, _ in pairs:
            if r * coef_sum <= remaining:
                remaining -= r * c
                coef_sum -= c
            else:
                level = remaining / coef_sum
                break
        if level is not None:
            for m in idx:
                rates[m] = min(rates[m], level)

    # Resource membership and capacities (same resources as `solve`).
    # Every worker reads every source, so each MC has len(workers) readers.
    res_caps: Dict[ResourceKey, float] = {}
    res_members: Dict[ResourceKey, List[int]] = {}
    res_coef: Dict[ResourceKey, List[float]] = {}

    def add(key: ResourceKey, cap: float, fi: int, coef: float) -> None:
        res_caps[key] = cap
        res_members.setdefault(key, []).append(fi)
        res_coef.setdefault(key, []).append(coef)

    for fi, (src, dst) in enumerate(flows):
        peak = machine.node(src).local_bandwidth
        add(("mc", src), mc_model.effective_capacity(peak, len(workers)), fi, 1.0)
        if src != dst:
            route = machine.route(src, dst)
            overhead = 1.0 / (machine.hop_efficiency ** max(0, route.hops - 1))
            for link in route.links:
                add(("link", link.src, link.dst), link.capacity, fi, overhead)
            ingress = machine.ingress_capacity(dst)
            if np.isfinite(ingress):
                add(("ingress", dst), ingress, fi, 1.0)

    # Dense resource x flow coefficient matrix: the overload scan each
    # iteration is then two matrix ops instead of a per-flow Python loop.
    res_keys: List[ResourceKey] = list(res_caps)
    B = np.zeros((len(res_keys), len(flows)))
    for ri, key in enumerate(res_keys):
        B[ri, res_members[key]] = res_coef[key]
    cap_vec = np.array([res_caps[k] for k in res_keys])
    member_idx = {k: np.asarray(res_members[k]) for k in res_keys}

    for _ in range(max_iterations):
        loads = B @ rates
        with np.errstate(divide="ignore", invalid="ignore"):
            factors = np.where(loads > 0, cap_vec / loads, np.inf)
        overloaded = loads > cap_vec * (1 + _EPS)
        if not overloaded.any():
            break
        worst = int(np.argmin(np.where(overloaded, factors, np.inf)))
        worst_key = res_keys[worst]
        if worst_key[0] == "mc":
            # Controllers arbitrate fairly among requestors: equal-share.
            _waterfill(res_members[worst_key], res_coef[worst_key], res_caps[worst_key])
        else:
            # Links and ingress ports throttle in-flight traffic
            # proportionally, preserving path asymmetry.
            rates[member_idx[worst_key]] *= factors[worst]

    out = np.zeros((n, n))
    for (src, dst), rate in zip(flows, rates):
        out[src, dst] = rate
    return out


def isolated_bandwidth_matrix(machine: Machine) -> np.ndarray:
    """Pair-at-a-time profiled bandwidth matrix (no concurrent load).

    This is what a pairwise streaming microbenchmark measures and is how we
    regenerate Fig. 1a; it equals the machine's nominal matrix because a
    single flow meets no contention.
    """
    return machine.nominal_bandwidth_matrix()
