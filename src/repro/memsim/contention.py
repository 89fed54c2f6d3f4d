"""Steady-state bandwidth allocation under contention and congestion.

This module computes what the real memory system does implicitly: given the
traffic every worker node generates (its demand and source mix), determine
the rate each worker actually achieves once memory-controller contention,
link congestion, and ingress-port limits are accounted for. The paper's
Section III-A3 lists exactly these phenomena as the reason the
``bw(src -> dst)`` function is demand-dependent.

Two allocation disciplines are provided:

* :func:`solve` — max-min fair **progressive filling** across consumers,
  used to model steady-state application execution: all consumers' rates
  rise together until a resource saturates, which freezes the consumers
  crossing it; the remainder keep growing.
* :func:`proportional_profile` — **proportional throttling** of independent
  per-pair flows, used to model the canonical tuner's profiling benchmark:
  with deep memory-level parallelism each source channel runs at its own
  capability, and when a shared resource saturates all of its flows scale
  down proportionally. This preserves the relative asymmetry between pairs,
  which is the signal the canonical tuner needs.

The progressive-filling solver is array-native: every solve runs over a
dense ``(batch, resources, consumers)`` tensor with a *canonical* resource
axis fixed per machine (see :class:`MachineTables`), so :func:`solve_batch`
can evaluate many candidate consumer sets in one vectorised pass. The
scalar :func:`solve` is the batch of one, which makes the scalar and
batched paths bitwise-identical by construction.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

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
    #: Lazily-built per-app grouping of ``rates`` (and its totals); the
    #: simulator's telemetry loop asks for every app every epoch, which
    #: would otherwise rescan the machine-wide dict once per app.
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


def consumers_fingerprint(
    consumers: Sequence[Consumer], mc_model: MCModel = DEFAULT_MC_MODEL
) -> Hashable:
    """Exact, hashable identity of a contention-solve input.

    Two inputs with equal fingerprints produce bitwise-identical
    :class:`Allocation` results from :func:`solve` (the machine is assumed
    fixed — cache per machine). Every quantity `solve` reads is folded in:
    the consumer identities, demands, write fractions, and the raw bytes of
    each mix vector, plus the MC model parameters.
    """
    return (
        mc_model.efficiency_floor,
        mc_model.contention_decay,
        mc_model.write_cost_factor,
        tuple(
            (
                c.app_id,
                c.node,
                c.demand,
                c.write_fraction,
                np.ascontiguousarray(c.mix, dtype=float).tobytes(),
            )
            for c in consumers
        ),
    )


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

        Generic companion to :meth:`solve_keyed` for callers that cache
        something richer than a bare :class:`Allocation` — the simulator's
        epoch kernel stores ``(allocation, rate-row, utilization-row)``
        tuples so fingerprint-identical epochs replay the dense arrays too.
        One cache instance must only ever hold one kind of value.
        """
        hit = self._entries.get(key)
        if hit is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return hit
        self.misses += 1
        return None

    def store(self, key: Hashable, value) -> None:
        """Insert ``value`` under ``key``, evicting the LRU entry past
        ``maxsize``. Pairs with :meth:`lookup` (which already counted the
        miss that led here). Re-storing an existing key refreshes its
        recency — dict assignment alone keeps the old insertion order, and
        a freshly overwritten entry must not remain first in line for
        eviction."""
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

    def solve(
        self,
        machine: Machine,
        consumers: Sequence[Consumer],
        mc_model: MCModel = DEFAULT_MC_MODEL,
        *,
        capacity_scale: Optional[np.ndarray] = None,
    ) -> Allocation:
        """Like :func:`solve`, but replaying a cached result when possible.

        One cache instance must only ever see one machine: the fingerprint
        deliberately excludes the (immutable, identity-stable) machine.
        """
        key: Hashable = consumers_fingerprint(consumers, mc_model)
        if capacity_scale is not None:
            key = (key, np.ascontiguousarray(capacity_scale, dtype=float).tobytes())
        return self.solve_keyed(
            key, machine, consumers, mc_model, capacity_scale=capacity_scale
        )

    def solve_keyed(
        self,
        key: Hashable,
        machine: Machine,
        consumers: Sequence[Consumer],
        mc_model: MCModel = DEFAULT_MC_MODEL,
        *,
        capacity_scale: Optional[np.ndarray] = None,
    ) -> Allocation:
        """Like :meth:`solve` with a precomputed fingerprint.

        For callers (the simulator) that also key their own derived caches
        on the fingerprint and must not pay for computing it twice. When
        ``capacity_scale`` is given the caller's key must already encode it
        (the simulator folds the fault injector's scale key in).
        """
        hit = self.lookup(key)
        if hit is not None:
            return hit
        alloc = solve(machine, consumers, mc_model, capacity_scale=capacity_scale)
        self.store(key, alloc)
        return alloc


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

        self.mc_rows = np.array(
            [self.res_index[("mc", s)] for s in range(num_nodes)], dtype=np.intp
        )
        self.ingress_rows = np.array(
            [
                self.res_index[("ingress", w)] if has_ingress[w] else -1
                for w in range(num_nodes)
            ],
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
        self.local_bw = np.array(
            [machine.node(s).local_bandwidth for s in range(num_nodes)]
        )
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
            table = np.empty((n, n + 1))
            for s in range(n):
                for k in range(n + 1):
                    table[s, k] = mc_model.effective_capacity(
                        float(self.local_bw[s]), k
                    )
            self._eff_tables[key] = table
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

    ``latency_path_rows(m)[w, s]`` lists the rows (into
    :attr:`MachineTables.res_keys`) whose queueing delays
    :meth:`repro.perf.latency.LatencyModel.consumer_latency_ns` adds to an
    access from source ``s`` by a consumer on node ``w`` — the source MC,
    then the route's links in route order, then the destination ingress
    port (remote paths only; omitted when ingress limiting is disabled,
    where the scalar model reads an absent key as zero utilization).
    Entries are padded to a common length ``K`` with ``num_res``: callers
    gather from a per-row delay vector with a 0.0 appended, so each pad
    contributes an exact additive zero and the vectorised sum accumulates
    the same terms in the same order as the scalar model. Memoised on the
    (immutable) machine.
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

    Equivalent to ``A @ x[..., None]`` but with a left-to-right accumulation
    order that is independent of the batch shape and exact under trailing
    zero padding: the operands are non-negative, so adding a zero term is a
    bitwise no-op. The scalar/batch equivalence guarantee rests on this —
    BLAS-style blocked reductions change results with the operand shape.
    ``np.add.accumulate`` is sequential by definition, so its last
    partial sum is that left-to-right sum.
    """
    if not A.shape[-1]:
        return np.zeros(A.shape[:-1])
    return np.add.accumulate(A * x[..., None, :], axis=-1)[..., -1]


class BatchArrays:
    """Raw array outputs of one batched progressive-filling solve.

    ``rates``/``bottleneck_row`` are indexed ``(batch, consumer-slot)``;
    ``load``/``caps``/``util``/``touched`` are ``(batch, resource-row)``
    over the canonical axis of ``tables.res_keys``. ``bottleneck_row`` is
    -1 for consumers frozen by their own demand cap (or never frozen).
    """

    __slots__ = ("tables", "rates", "load", "caps", "util", "touched", "bottleneck_row")

    def __init__(
        self,
        tables: MachineTables,
        rates: np.ndarray,
        load: np.ndarray,
        caps: np.ndarray,
        util: np.ndarray,
        touched: np.ndarray,
        bottleneck_row: np.ndarray,
    ):
        self.tables = tables
        self.rates = rates
        self.load = load
        self.caps = caps
        self.util = util
        self.touched = touched
        self.bottleneck_row = bottleneck_row


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


class ConsumerRows:
    """Validated consumer rows of one machine, shared by every fleet solve.

    A row holds what the solver reads of one consumer (node, demand, write
    fraction, mix) and, computed once at creation, what a solve derives
    from it: ``coef``, its :func:`batch_coefficients` column; ``touch``,
    the resources it marks touched; ``reads``, its flattened ``(node,
    source)`` presence, from which MC reader counts follow; and ``key``,
    the value identity the fleet's canonical solve cache keys on. Rows are
    deduplicated by value, so the store grows with the distinct consumers
    seen, not with solves. Row 0 is all zeros: the padding of dead slots.
    """

    def __init__(self, machine: Machine, mc_model: MCModel = DEFAULT_MC_MODEL):
        self.machine = machine
        self.mc_model = mc_model
        self.tables = t = machine_tables(machine)
        n = t.num_nodes
        self.eff = t.eff_table(mc_model)
        self.sources = np.arange(n)[None, :]
        self.node: List[int] = [0]
        self.demand: List[float] = [0.0]
        self.write_fraction: List[float] = [0.0]
        self.threads: List[int] = [0]
        self.key: List[tuple] = [()]
        self._index: Dict[tuple, int] = {}
        self.mix = np.zeros((16, n))
        self.coef = np.zeros((16, t.num_res))
        self.touch = np.zeros((16, t.num_res), dtype=bool)
        self.reads = np.zeros((16, n * n), dtype=bool)
        self.demand_arr = np.zeros(16)

    def add(self, c: Consumer) -> int:
        """Row index of consumer ``c`` (created and validated on first use)."""
        t = self.tables
        n = t.num_nodes
        if not 0 <= c.node < n:
            raise ValueError(f"consumer node {c.node} outside machine")
        if len(c.mix) > n:
            raise ValueError(f"mix has {len(c.mix)} entries for a {n}-node machine")
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
        coef = batch_coefficients(
            self.machine,
            np.array([[c.node]], dtype=np.intp),
            mix[None, None, :],
            np.array([[key[2]]]),
            self.mc_model,
        )[0, :, 0]
        touch = coef > 0.0
        touch[t.ingress_rows[t.ingress_rows >= 0]] = False
        if t.ingress_rows[c.node] >= 0:
            touch[t.ingress_rows[c.node]] = True
        self.mix[row] = mix
        self.coef[row] = coef
        self.touch[row] = touch
        self.reads[row, c.node * n : (c.node + 1) * n] = mix > 0.0
        self.demand_arr[row] = key[1]
        self.node.append(c.node)
        self.demand.append(key[1])
        self.write_fraction.append(key[2])
        self.threads.append(c.threads)
        self.key.append(key)
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
            app_id,
            self.node[row],
            self.threads[row],
            self.mix[row].copy(),
            self.demand[row],
            self.write_fraction[row],
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


def _is_rows(payload: Sequence) -> bool:
    """Whether a solve payload holds row indices (else ``Consumer`` objects)."""
    return len(payload) > 0 and not isinstance(payload[0], Consumer)


def _batch_setup(
    machine: Machine,
    node_idx: np.ndarray,
    mix: np.ndarray,
    demand: np.ndarray,
    write_fraction: np.ndarray,
    live: np.ndarray,
    mc_model: MCModel,
    coefficients: Optional[np.ndarray] = None,
    capacity_scale: Optional[np.ndarray] = None,
) -> Tuple[MachineTables, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-machine setup phase of a batched solve.

    Returns ``(tables, A, caps, touched, demand, live)`` — everything the
    machine-independent :func:`_progressive_fill` loop needs.
    """
    t = machine_tables(machine)
    mix = np.asarray(mix, dtype=float)
    if mix.ndim != 3 or mix.shape[2] != t.num_nodes:
        raise ValueError(
            f"mix must be (batch, consumers, {t.num_nodes}), got {mix.shape}"
        )
    num_batch, _, num_nodes = mix.shape
    num_res = t.num_res
    live = np.asarray(live, dtype=bool)
    node_idx = np.asarray(node_idx, dtype=np.intp)
    demand = np.asarray(demand, dtype=float)
    mix = np.where(live[:, :, None], mix, 0.0)

    A = coefficients
    if A is None:
        A = batch_coefficients(machine, node_idx, mix, write_fraction, mc_model)

    # Touched resources, replicating the dict-era capacity table exactly:
    # an MC or link is touched by any *live* consumer with a positive
    # coefficient on it (write scales and route overheads are >= 1, so
    # A > 0 is equivalent to a positive mix entry on the row's paths); an
    # ingress port by any live consumer *resident* on its node,
    # mix-independent.
    touched = ((A > 0.0) & live[:, None, :]).any(axis=2)
    ingress_of_slot = t.ingress_rows[node_idx]
    valid_ingress = t.ingress_rows[t.ingress_rows >= 0]
    if valid_ingress.size:
        touched[:, valid_ingress] = False
        b, j = np.nonzero(live & (ingress_of_slot >= 0))
        touched[b, ingress_of_slot[b, j]] = True

    # Effective capacities: links/ingress are static; MCs de-rate with the
    # number of distinct consumer nodes reading them; untouched rows are
    # unconstrained.
    node_present = np.zeros((num_batch, num_nodes, num_nodes), dtype=bool)
    b, j, n = np.nonzero(mix > 0.0)
    node_present[b, node_idx[b, j], n] = True
    reader_counts = node_present.sum(axis=1)
    caps = np.broadcast_to(t.static_caps, (num_batch, num_res)).copy()
    caps[:, t.mc_rows] = t.eff_table(mc_model)[
        np.arange(num_nodes)[None, :], reader_counts
    ]
    if capacity_scale is not None:
        scale = np.asarray(capacity_scale, dtype=float)
        if scale.shape != (num_res,):
            raise ValueError(
                f"capacity_scale must have shape ({num_res},), got {scale.shape}"
            )
        if (scale <= 0).any():
            raise ValueError("capacity_scale entries must be positive")
        caps = caps * scale
    caps = np.where(touched, caps, np.inf)
    return t, A, caps, touched, demand, live


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
    one fleet-wide tensor. Returns ``(rates, load, util, bottleneck_row)``.
    """
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
            # Every active consumer is unbounded and touches no finite
            # resource — cannot happen on a real machine, but guard anyway.
            raise RuntimeError(
                "unbounded allocation: consumer touches no finite resource"
            )
        grow = active & alive[:, None]
        rates = np.where(grow, rates + delta[:, None], rates)

        load = _axis_n_dot(A, rates)
        saturated = ((caps - load) <= saturation_slack) & touched
        users = uses & saturated[:, :, None] & active[:, None, :]
        has_user = users.any(axis=1)
        # First saturated resource (in canonical row order) claims each
        # consumer's bottleneck attribution, once.
        first_row = users.argmax(axis=1)
        take = has_user & (bottleneck_row < 0) & alive[:, None]
        bottleneck_row = np.where(take, first_row, bottleneck_row)

        newly_frozen = has_user | (active & (rates >= demand - _EPS))
        newly_frozen &= alive[:, None]

        need_fallback = alive & ~newly_frozen.any(axis=1)
        if need_fallback.any():
            # Nothing froze: numerical corner; freeze the tightest
            # resource's users to guarantee progress, or stop the element
            # when even that resource has no active users.
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
    consumers are simply dead slots. Batch elements are independent; each
    element's results are bitwise-identical to solving it alone, because
    reductions over the consumer axis accumulate sequentially (dead-slot
    zeros are exact no-ops) and all other contractions run over fixed-size
    machine axes.

    ``capacity_scale`` is an optional per-resource multiplier over the
    canonical ``machine_tables(machine).res_keys`` axis (fault plans use
    it to degrade link capacities mid-run); ``None`` leaves the solve
    bit-for-bit unchanged.
    """
    t, A, caps, touched, demand, live = _batch_setup(
        machine,
        node_idx,
        mix,
        demand,
        write_fraction,
        live,
        mc_model,
        coefficients,
        capacity_scale,
    )
    rates, load, util, bottleneck_row = _progressive_fill(
        A, caps, touched, demand, live
    )
    return BatchArrays(t, rates, load, caps, util, touched, bottleneck_row)


def _empty_allocation(consumers: Sequence[Consumer]) -> Allocation:
    rates = {c.key(): 0.0 for c in consumers}
    bottleneck: Dict[Tuple[str, int], Optional[ResourceKey]] = {
        c.key(): None for c in consumers
    }
    return Allocation(
        rates=rates, utilization={}, bottleneck=bottleneck, capacities={}
    )


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
    num_nodes = machine.num_nodes
    lv = [c for c in consumers if not c.is_idle]
    keys = [c.key() for c in lv]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate consumer keys: {sorted(keys)}")
    for c in lv:
        if not 0 <= c.node < num_nodes:
            raise ValueError(f"consumer node {c.node} outside machine")
        if len(c.mix) > num_nodes:
            raise ValueError(
                f"mix has {len(c.mix)} entries for a {num_nodes}-node machine"
            )
    return lv


def _pack_consumers(
    lives: Sequence[Sequence[Consumer]], num_nodes: int, num_slots: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pack validated consumer lists into dense padded slot arrays."""
    num_batch = len(lives)
    node_idx = np.zeros((num_batch, num_slots), dtype=np.intp)
    mix = np.zeros((num_batch, num_slots, num_nodes))
    demand = np.zeros((num_batch, num_slots))
    write_frac = np.zeros((num_batch, num_slots))
    live_mask = np.zeros((num_batch, num_slots), dtype=bool)
    for b, lv in enumerate(lives):
        for j, c in enumerate(lv):
            node_idx[b, j] = c.node
            m = np.asarray(c.mix, dtype=float)
            mix[b, j, : len(m)] = m
            demand[b, j] = c.demand
            write_frac[b, j] = c.write_fraction
            live_mask[b, j] = True
    return node_idx, mix, demand, write_frac, live_mask


def solve_batch(
    machine: Machine,
    consumer_batches: Iterable[Sequence[Consumer]],
    mc_model: MCModel = DEFAULT_MC_MODEL,
    *,
    capacity_scale: Optional[np.ndarray] = None,
) -> List[Allocation]:
    """Solve many independent consumer sets in one vectorised pass.

    Returns one :class:`Allocation` per input set, each bitwise-identical
    to what :func:`solve` produces for that set alone — :func:`solve` *is*
    the batch of one. Use this to score candidate placements (the oracle
    search's neighbour sets, DWP probe curves, sweep grids) without paying
    per-candidate solver setup.
    """
    batches = [list(cs) for cs in consumer_batches]
    if not batches:
        return []
    lives = [_live_consumers(machine, cs) for cs in batches]
    max_live = max(len(lv) for lv in lives)
    if max_live == 0:
        return [_empty_allocation(cs) for cs in batches]

    num_batch = len(batches)
    node_idx, mix, demand, write_frac, live_mask = _pack_consumers(
        lives, machine.num_nodes, max_live
    )
    arrays = solve_batch_arrays(
        machine,
        node_idx,
        mix,
        demand,
        write_frac,
        live_mask,
        mc_model,
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


class FleetBatch:
    """Lazy view over one fleet-batched solve.

    :meth:`tail_rates` reads candidate scores straight off the dense rate
    tensor; for ``Consumer`` entries, :meth:`allocation` materialises a
    full :class:`Allocation` (memoised) and :meth:`app_total_rate` sums one
    application's rates. All are bitwise what ``solve(machine, consumers)``
    gives for that entry alone.
    """

    __slots__ = (
        "_consumers",
        "_lens",
        "_tables",
        "_rates",
        "_util",
        "_bottleneck",
        "_touched",
        "_caps",
        "_allocs",
    )

    def __init__(self, consumers, lens, tables, rates, util, bottleneck, touched, caps):
        self._consumers = consumers
        self._lens = lens
        self._tables = tables
        self._rates = rates
        self._util = util
        self._bottleneck = bottleneck
        self._touched = touched
        self._caps = caps
        self._allocs: List[Optional[Allocation]] = [None] * len(lens)

    def __len__(self) -> int:
        return len(self._allocs)

    def _entry_consumers(self, i: int):
        if self._consumers[i] is None:
            raise ValueError(f"entry {i} was given as rows, not Consumers")
        return self._consumers[i]

    def allocation(self, i: int) -> Allocation:
        """Full :class:`Allocation` of ``Consumer`` entry ``i`` (built on
        first use)."""
        alloc = self._allocs[i]
        if alloc is None:
            consumers, live = self._entry_consumers(i)
            if self._rates is None:  # every entry in the batch was idle
                alloc = _empty_allocation(consumers)
            else:
                alloc = allocation_from_rows(
                    [c.key() for c in consumers],
                    [c.key() for c in live],
                    self._tables[i].res_keys,
                    self._rates[i],
                    self._bottleneck[i],
                    self._touched[i],
                    self._util[i],
                    self._caps[i],
                )
            self._allocs[i] = alloc
        return alloc

    def app_total_rate(self, i: int, app_id: str) -> float:
        """Aggregate rate of ``app_id`` in ``Consumer`` entry ``i``.

        Sums the app's live-consumer rates in consumer order — the same
        floats in the same order as
        ``allocation(i).app_total_rate(app_id)`` (idle consumers only
        ever contribute an exact ``+ 0.0``), so scores taken here and
        scores taken from materialised allocations are interchangeable.
        """
        _consumers, live = self._entry_consumers(i)
        if self._rates is None:
            return 0.0
        total = 0.0
        row = self._rates[i]
        for j, c in enumerate(live):
            if c.app_id == app_id:
                total += float(row[j])
        return total

    def tail_rates(self, tails: Sequence[int]) -> List[float]:
        """Per entry ``i``, the sum of its last ``tails[i]`` slot rates in
        slot order — for a candidate whose rows trail its machine's
        residents, the floats :meth:`app_total_rate` adds, in its order."""
        if self._rates is None:
            return [0.0] * len(tails)
        return [
            sum(self._rates[i, n - k : n].tolist(), 0.0)
            for i, (n, k) in enumerate(zip(self._lens, tails))
        ]


def solve_batch_fleet_lazy(
    entries: Iterable[Tuple[Machine, Sequence]],
    mc_model: MCModel = DEFAULT_MC_MODEL,
    *,
    capacity_scales: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> FleetBatch:
    """Solve consumer sets on *heterogeneous* machines in one filling pass.

    Each entry is ``(machine, rows)``: non-idle row indices into the
    machine's shared :func:`consumer_rows`, in slot order — the fleet
    scheduler gathers a machine's resident rows, then a candidate's. A
    ``Consumer`` list instead goes through :meth:`ConsumerRows.add_live`
    (:func:`solve`'s checks; idle consumers dropped), and only such entries
    support :meth:`FleetBatch.allocation` and :meth:`~FleetBatch.app_total_rate`.

    Each entry's result is bitwise-identical to ``solve(machine,
    consumers)`` run alone: the gathered coefficient columns, touched
    flags, MC reader counts and demands are what :func:`solve`'s setup
    derives, and on the fleet-wide ``(entries, resources, consumers)``
    tensor padded resource rows (untouched, infinite capacity, zero
    incidence) and dead slots are exact no-ops in :func:`_progressive_fill`.

    ``capacity_scales`` is an optional per-*entry* counterpart of
    :func:`solve`'s ``capacity_scale``: one ``(num_res,)`` multiplier
    array (or ``None``) per entry over that entry's own canonical
    resource axis — the fleet scheduler degrades individual machines'
    links mid-run with it. A scaled entry is bitwise-identical to
    ``solve(machine, consumers, capacity_scale=scale)`` run alone: the
    multiply commutes with the untouched-row infinity masking (padded and
    untouched rows are ``inf`` and stay ``inf`` under a positive scale),
    and unscaled entries are never multiplied at all.
    """
    rows: List[Sequence[int]] = []
    tables: List[MachineTables] = []
    consumers: List[Optional[Tuple[List[Consumer], List[Consumer]]]] = []
    # Entries grouped by machine: one shared row store per group.
    groups: Dict[int, Tuple[ConsumerRows, List[int]]] = {}
    for i, (machine, payload) in enumerate(entries):
        group = groups.get(id(machine))
        if group is None:
            group = groups[id(machine)] = (consumer_rows(machine, mc_model), [])
        store, members = group
        members.append(i)
        tables.append(store.tables)
        if _is_rows(payload):
            rows.append(payload)
            consumers.append(None)
        else:
            payload = list(payload)
            live = _live_consumers(machine, payload)
            rows.append([store.add(c) for c in live])
            consumers.append((payload, live))
    num_batch = len(rows)
    if capacity_scales is not None and len(capacity_scales) != num_batch:
        raise ValueError(
            f"capacity_scales has {len(capacity_scales)} entries "
            f"for {num_batch} solve entries"
        )
    lens = [len(r) for r in rows]
    max_live = max(lens, default=0)
    if max_live == 0:
        return FleetBatch(consumers, lens, None, None, None, None, None, None)

    # Slot-major row matrix, padded with row 0 (all zeros: a dead slot).
    live_all = np.arange(max_live) < np.array(lens)[:, None]
    idx = np.zeros((num_batch, max_live), dtype=np.intp)
    idx[live_all] = [r for entry in rows for r in entry]

    max_res = max(store.tables.num_res for store, _members in groups.values())
    A_all = np.zeros((num_batch, max_res, max_live))
    caps_all = np.full((num_batch, max_res), np.inf)
    touched_all = np.zeros((num_batch, max_res), dtype=bool)
    demand_all = np.zeros((num_batch, max_live))
    for store, members in groups.values():
        t = store.tables
        n = t.num_nodes
        sel = members if len(members) < num_batch else slice(None)
        at = idx[sel]
        touched = store.touch[at].any(axis=1)
        # Distinct consumer nodes reading each source's MC.
        readers = store.reads[at].any(axis=1).reshape(-1, n, n).sum(axis=1)
        caps = np.tile(t.static_caps, (len(at), 1))
        caps[:, t.mc_rows] = store.eff[store.sources, readers]
        A_all[sel, : t.num_res, :] = store.coef[at].transpose(0, 2, 1)
        caps_all[sel, : t.num_res] = np.where(touched, caps, np.inf)
        touched_all[sel, : t.num_res] = touched
        demand_all[sel] = store.demand_arr[at]

    if capacity_scales is not None:
        for i, scale in enumerate(capacity_scales):
            if scale is None:
                continue
            num_res = tables[i].num_res
            scale = np.asarray(scale, dtype=float)
            if scale.shape != (num_res,):
                raise ValueError(
                    f"capacity_scales[{i}] must have shape ({num_res},), "
                    f"got {scale.shape}"
                )
            if (scale <= 0).any():
                raise ValueError(f"capacity_scales[{i}] entries must be positive")
            caps_all[i, :num_res] *= scale

    rates, _load, util, bottleneck_row = _progressive_fill(
        A_all, caps_all, touched_all, demand_all, live_all
    )
    return FleetBatch(
        consumers, lens, tables, rates, util, bottleneck_row, touched_all, caps_all
    )


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
    at most ``len(resources) + len(consumers)`` rounds.
    """
    return solve_batch(machine, [consumers], mc_model, capacity_scale=capacity_scale)[0]


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
    res_caps: Dict[ResourceKey, float] = {}
    res_members: Dict[ResourceKey, List[int]] = {}
    res_coef: Dict[ResourceKey, List[float]] = {}
    readers: Dict[int, set] = {}
    for fi, (src, dst) in enumerate(flows):
        readers.setdefault(src, set()).add(dst)

    def add(key: ResourceKey, cap: float, fi: int, coef: float) -> None:
        res_caps[key] = cap
        res_members.setdefault(key, []).append(fi)
        res_coef.setdefault(key, []).append(coef)

    for fi, (src, dst) in enumerate(flows):
        peak = machine.node(src).local_bandwidth
        add(("mc", src), mc_model.effective_capacity(peak, len(readers[src])), fi, 1.0)
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
