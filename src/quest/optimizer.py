"""Filter ordering and the cost model behind it.

Planning happens on the composite (join-expanded) tree.  Each query filter
becomes a ``PlanFilter`` pinned to a composite key; predicates on the same
column collapse into one entry (one scan evaluates them all), declared graph
patterns become a pseudo-filter at their anchor node, and joined schemas
with no filter of their own get an anchor entry so the wandering crosses
the join at least once.

``order_filters`` is a selectivity-aware walk: start at the most selective
filter anywhere in the tree, and keep draining the most selective remaining
filter inside the current subtree before ascending.  Because a subtree is
exhausted before the walk leaves it, the induced wandering never re-enters
a subtree, which is exactly what ``check_constraint`` verifies.

The wandering constraint applies to the filter walk; the fetch extension
after the last filter may legitimately revisit nodes (the engine re-applies
saved bitsets there), so ``WanderingSequence.filter_end`` marks where the
checked prefix stops.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

from .errors import PlanConstraintError, QueryError
from .query import CompositeTree, Key, Predicate, Query
from .schema import Link
from .store import DEFAULT_BLOCK_SIZE, DEFAULT_METADATA_UNIT, Store, estimate_selectivity

__all__ = [
    "CostParams",
    "PlanFilter",
    "WanderingSequence",
    "check_constraint",
    "cumulative_selectivity",
    "estimate_cost",
    "order_filters",
    "derive_wandering",
    "plan_query",
    "enumerate_valid_orders",
    "exhaustive_rank",
]


class CostParams:
    """Per-node sizes and unit costs feeding ``estimate_cost``.

    ``G`` is instance cardinality, ``S`` the per-value width in bytes; a
    block is ``DEFAULT_BLOCK_SIZE`` bytes and a metadata entry
    ``DEFAULT_METADATA_UNIT``.
    """

    __slots__ = ("G", "S")

    def __init__(self, G: dict[Key, float] | None = None, S: dict[Key, float] | None = None):
        self.G = {} if G is None else G
        self.S = {} if S is None else S

    def size_of(self, key: Key) -> tuple[float, float]:
        try:
            return self.G[key], self.S.get(key, 0.0)
        except KeyError:
            raise QueryError(f"no stats for node {key[0]}.{key[1]}") from None

    @classmethod
    def from_store(cls, store: Store, composite: CompositeTree) -> "CostParams":
        params = cls()
        for name in composite.schemas:
            G, S = store.data(name).sizes
            params.G.update(G)
            params.S.update(S)
        return params


class PlanFilter:
    """One stop of the filter order: a scan, a graph pattern, or a bare
    join anchor."""

    __slots__ = ("key", "selectivity", "predicates", "kind", "graph_path")

    def __init__(
        self,
        key: Key,
        selectivity: float,
        predicates: list[int] | None = None,
        kind: str = "scan",  # scan | pattern | anchor
        graph_path: int | None = None,
    ):
        self.key = key
        self.selectivity = selectivity
        self.predicates = [] if predicates is None else predicates
        self.kind = kind
        self.graph_path = graph_path


class WanderingSequence:
    """A filter order expanded into its per-level walk ``w``.

    The run counts (``rollups``, ``drilldowns``) and the ``cost`` are
    worked out on first read, as `explain_plan` reads them: evaluation
    reads only the order.  ``cost`` is None for a walk derived without a
    store to price it against.
    """

    __slots__ = ("order", "w", "stops", "filter_end", "fetch_keys", "tree", "store", "_runs", "_cost")

    def __init__(
        self,
        order: list[PlanFilter],
        w: list[Key],
        stops: list[Key],
        filter_end: int,  # prefix of ``w`` covered by the revisit constraint
        fetch_keys: list[Key],
        tree: CompositeTree,
        store: Store | None = None,
    ):
        self.order = order
        self.w = w
        self.stops = stops
        self.filter_end = filter_end
        self.fetch_keys = fetch_keys
        self.tree = tree
        self.store = store
        self._runs: tuple[dict[Key, int], dict[Key, int]] | None = None
        self._cost: dict | None = None

    @property
    def rollups(self) -> dict[Key, int]:
        """Steps up the walk takes over each moved-over node's link (#r)."""
        return self._run_counts()[0]

    @property
    def drilldowns(self) -> dict[Key, int]:
        """Steps down the walk takes over each moved-over node's link (#d)."""
        return self._run_counts()[1]

    def _run_counts(self) -> tuple[dict[Key, int], dict[Key, int]]:
        if self._runs is None:
            tree = self.tree
            rollups: dict[Key, int] = {}
            drilldowns: dict[Key, int] = {}
            for a, b in zip(self.w, self.w[1:]):
                if tree.parent_of(a) == b:
                    moved, counts = a, rollups
                else:
                    moved, counts = b, drilldowns
                if tree.is_join_root(moved) or tree.node(moved).link in (Link.COUNTER, Link.INDICATOR):
                    counts[moved] = counts.get(moved, 0) + 1
            self._runs = rollups, drilldowns
        return self._runs

    @property
    def cost(self) -> dict | None:
        """`estimate_cost`'s terms, priced against ``store`` on first read."""
        if self._cost is None and self.store is not None:
            self._cost = estimate_cost(self.tree, self, CostParams.from_store(self.store, self.tree))
        return self._cost


# ---------------------------------------------------------------------------
# constraint


def check_constraint(w: Sequence[Key], tree: CompositeTree) -> tuple[bool, int | None]:
    """Verify the no-re-entry rule: whenever w_i = w_j, every step between
    them stays inside that node's subtree.  Returns (ok, index of the first
    violating revisit).  Consecutive entries must be tree-adjacent."""
    if not w:
        raise PlanConstraintError("empty wandering sequence")
    for a, b in zip(w, w[1:]):
        if tree.parent_of(a) != b and tree.parent_of(b) != a and a != b:
            raise PlanConstraintError(
                f"wandering steps {a} and {b} are not adjacent in the tree"
            )
    last: dict[Key, int] = {}
    for j, v in enumerate(w):
        i = last.get(v)
        if i is not None:
            lo, hi = tree.interval(v)
            for k in range(i + 1, j):
                if not lo <= tree.index(w[k]) < hi:
                    return False, j
        last[v] = j
    return True, None


def cumulative_selectivity(order: Sequence[PlanFilter], item: PlanFilter | Key) -> float:
    """Product of selectivities strictly before ``item`` in the order, so
    the first filter scans its whole column."""
    acc = 1.0
    for f in order:
        if f is item or f.key == item:
            return acc
        acc *= f.selectivity
    raise QueryError(f"filter {item} is not part of the order")


# ---------------------------------------------------------------------------
# ordering (the selectivity-aware walk) and wandering derivation


def _rank(tree: CompositeTree, f: PlanFilter) -> tuple:
    first = f.predicates[0] if f.predicates else -1
    return (f.selectivity, tree.index(f.key), 0 if f.kind == "scan" else 1, first)


def order_filters(tree: CompositeTree, filters: Sequence[PlanFilter]) -> list[PlanFilter]:
    if not filters:
        return []
    remaining = list(filters)
    first = min(remaining, key=lambda f: _rank(tree, f))
    remaining.remove(first)
    order = [first]
    cur = first.key
    while remaining:
        inside = [f for f in remaining if f.key == cur or tree.contains(cur, f.key)]
        if inside:
            nxt = min(inside, key=lambda f: _rank(tree, f))
            remaining.remove(nxt)
            order.append(nxt)
            cur = nxt.key
            continue
        up = tree.parent_of(cur)
        if up is None:
            # the root's subtree holds everything, so this cannot happen
            raise PlanConstraintError("filter ordering walked past the root")
        cur = up
    return order


def derive_wandering(
    tree: CompositeTree,
    order: Sequence[PlanFilter],
    fetch_keys: Sequence[Key] = (),
) -> WanderingSequence:
    """Expand a filter order into the full per-level walk, routing between
    consecutive stops via their LCA, then extend to the fetch nodes in
    preorder.  Run counts attach to the moved-over child node: a step up
    consumes that node's boundary array once (#r), a step down once (#d);
    identity links move for free."""
    fetch_keys = sorted(dict.fromkeys(fetch_keys), key=tree.index)
    if order:
        start = order[0].key
    elif fetch_keys:
        start = (tree.host, tree.schemas[tree.host].root.id)
    else:
        raise QueryError("nothing to plan: no filters and no fetch")

    w: list[Key] = [start]
    stops: list[Key] = [start]

    def extend_to(target: Key) -> None:
        leg = tree.route(w[-1], target)
        w.extend(leg[1:])
        meet = tree.lca(stops[-1], target)
        for stop in (meet, target):
            if stops[-1] != stop:
                stops.append(stop)

    for f in order[1:]:
        extend_to(f.key)
    filter_end = len(w)
    for key in fetch_keys:
        extend_to(key)

    return WanderingSequence(
        order=list(order),
        w=w,
        stops=stops,
        filter_end=filter_end,
        fetch_keys=list(fetch_keys),
        tree=tree,
    )


# ---------------------------------------------------------------------------
# cost model


def estimate_cost(tree: CompositeTree, seq: WanderingSequence, params: CostParams) -> dict:
    """The I/O and CPU terms, exactly as modeled.

    io_filter_scan   sum over scan filters of G_v * sigma_v(W) * S_v / B
    io_metadata      sum over wandering nodes of G_p(v) * #r_v * m / B
    io_fetch_scan    sum over fetch nodes of G_v * S_v * sigma_T / B
    cpu: deserialization and filtering over scanned units, bitset delivery
    runs (both directions), fetch deserialization and regeneration over the
    total-selectivity survivors.
    """
    scans = [f for f in seq.order if f.kind == "scan"]
    scanned_units = 0.0
    io_filter_scan = 0.0
    for f in scans:
        g, s = params.size_of(f.key)
        frac = cumulative_selectivity(seq.order, f)
        scanned_units += g * frac
        io_filter_scan += g * frac * s / DEFAULT_BLOCK_SIZE

    io_metadata = 0.0
    run_units = 0.0
    for key, runs in seq.rollups.items():
        parent = tree.parent_of(key)
        g_parent, _ = params.size_of(parent) if parent is not None else (0.0, 0.0)
        io_metadata += g_parent * runs * DEFAULT_METADATA_UNIT / DEFAULT_BLOCK_SIZE
        run_units += g_parent * runs
    for key, runs in seq.drilldowns.items():
        g, _ = params.size_of(key)
        run_units += g * runs

    sigma_total = 1.0
    for f in seq.order:
        sigma_total *= f.selectivity
    io_fetch_scan = 0.0
    fetch_units = 0.0
    for key in seq.fetch_keys:
        g, s = params.size_of(key)
        io_fetch_scan += g * s * sigma_total / DEFAULT_BLOCK_SIZE
        fetch_units += g * sigma_total

    c_io = io_filter_scan + io_metadata + io_fetch_scan
    # deserialize and filter each scanned unit, move each run unit,
    # deserialize and regenerate each fetched unit
    c_cpu = scanned_units + run_units + scanned_units + fetch_units + fetch_units
    return {
        "io_filter_scan": io_filter_scan,
        "io_metadata": io_metadata,
        "io_fetch_scan": io_fetch_scan,
        "c_io": c_io,
        "c_cpu": c_cpu,
        "total": c_io + c_cpu,
        "sigma_total": sigma_total,
    }


# ---------------------------------------------------------------------------
# plan assembly


def _selectivity(store: Store, pred: Predicate) -> float:
    """The stated selectivity, else the column statistics' estimate, else 0.5."""
    if pred.selectivity is not None:
        return pred.selectivity
    stats = store.data(pred.site.schema).stats.get(pred.site.node)
    return estimate_selectivity(stats, pred.op, pred.value) if stats else 0.5


def _plan_filters(store: Store, query: Query) -> list[PlanFilter]:
    by_site: dict[Key, PlanFilter] = {}
    ordered: list[PlanFilter] = []
    for i, pred in enumerate(query.filters):
        if pred.graph_path is not None:
            continue
        key = (pred.site.schema, pred.site.node)
        entry = by_site.get(key)
        if entry is None:
            entry = PlanFilter(key=key, selectivity=1.0)
            by_site[key] = entry
            ordered.append(entry)
        entry.selectivity *= _selectivity(store, pred)
        entry.predicates.append(i)

    for gi, gp in enumerate(query.graph_paths):
        sigma = 1.0
        for i in gp.members:
            sigma *= _selectivity(store, query.filters[i])
        ordered.append(PlanFilter(
            key=(gp.schema, gp.anchor), selectivity=sigma,
            predicates=list(gp.members), kind="pattern", graph_path=gi,
        ))

    # Every joined schema needs at least one stop: membership restricts both
    # sides even when a side has no filters of its own.  A lone schema with
    # no filters needs none.
    covered = {f.key[0] for f in ordered}
    for name in query.schemas:
        if name in covered or (name == query.host and not query.joins):
            continue
        root = (name, query.composite.schemas[name].root.id)
        ordered.append(PlanFilter(key=root, selectivity=1.0, kind="anchor"))
    return ordered


def plan_query(store: Store, query: Query) -> WanderingSequence:
    """Order the query's filters, derive the wandering, and check it
    against the constraint.  The plan is priced against `store` when its
    ``cost`` is first read."""
    tree = query.composite
    filters = _plan_filters(store, query)
    order = order_filters(tree, filters)
    fetch_keys = [(f.site.schema, f.site.node) for f in query.fetch]
    seq = derive_wandering(tree, order, fetch_keys)
    if seq.filter_end > 1:
        ok, where = check_constraint(seq.w[: seq.filter_end], tree)
        if not ok:
            raise PlanConstraintError(
                f"derived wandering re-enters a subtree at step {where}"
            )
    seq.store = store
    return seq


def explain_plan(tree: CompositeTree, seq: WanderingSequence) -> dict:
    """JSON-ready view of a plan: the filter order, the walk, run counts,
    and the cost terms."""
    def label(key: Key) -> str:
        return f"{key[0]}.{tree.schemas[key[0]].path_of(key[1])}"

    return {
        "order": [
            {
                "node": label(f.key),
                "kind": f.kind,
                "selectivity": f.selectivity,
                "cumulative": cumulative_selectivity(seq.order, f),
            }
            for f in seq.order
        ],
        "wandering": [label(k) for k in seq.w],
        "stops": [label(k) for k in seq.stops],
        "filter_steps": seq.filter_end,
        "rollups": {label(k): n for k, n in sorted(seq.rollups.items())},
        "drilldowns": {label(k): n for k, n in sorted(seq.drilldowns.items())},
        "cost": seq.cost,
    }


# ---------------------------------------------------------------------------
# exhaustive search (small instances only; reports where the heuristic lands)


def enumerate_valid_orders(
    tree: CompositeTree, filters: Sequence[PlanFilter]
) -> list[tuple[PlanFilter, ...]]:
    valid = []
    for perm in itertools.permutations(filters):
        seq = derive_wandering(tree, perm)
        ok, _ = check_constraint(seq.w[: seq.filter_end], tree)
        if ok:
            valid.append(perm)
    return valid


def exhaustive_rank(
    tree: CompositeTree,
    filters: Sequence[PlanFilter],
    params: CostParams,
    fetch_keys: Sequence[Key] = (),
) -> dict:
    """Cost every constraint-valid order and report the heuristic's rank
    (1 = cheapest; ties share the better rank)."""
    if len(filters) > 6:
        raise QueryError("exhaustive enumeration is capped at 6 filters")
    heur = order_filters(tree, filters)
    heur_cost = estimate_cost(tree, derive_wandering(tree, heur, fetch_keys), params)["total"]
    costs = []
    for perm in enumerate_valid_orders(tree, filters):
        seq = derive_wandering(tree, perm, fetch_keys)
        costs.append(estimate_cost(tree, seq, params)["total"])
    if not costs:
        raise PlanConstraintError("no constraint-valid order exists")
    rank = 1 + sum(1 for c in costs if c < heur_cost - 1e-12)
    return {
        "heuristic_cost": heur_cost,
        "best_cost": min(costs),
        "worst_cost": max(costs),
        "orders": len(costs),
        "rank": rank,
    }
