"""Plan-driven query evaluation over the columnar store.

The evaluator walks the plan's filter order with one running bitset.
Between stops the bitset is delivered along the composite tree; at each
filter stop the engine scans the column at surviving positions only and
keeps the post-filter bits around.  Whenever a later leg descends, every
saved bitset whose meet with the destination lies below the leg's apex
is delivered in and ANDed, so the running context never widens past a
restriction that was already paid for.  A join edge is crossed as one
`Mapping` move, from each left key instance to its matching right key
instances, built once per store from the two key columns; a walk that
comes back through a join ANDs the returning bits with the bits that
left, so it keeps its left context and re-imposes nothing.  Graph
patterns run a forward reachability pass and a backward existential
pass over the declared hops.  Fetched rows are regenerated functionally
from the deepest fetched node; a one-column string answer is gathered
from the rows its dictionary keeps, so repeating it builds no tuple.
"""

from __future__ import annotations

import time
from functools import cached_property
from typing import Any

import numpy as np

from .delivery import Mapping, deliver, ones_bits, positions_of
from .errors import BudgetError, QueryError
from .optimizer import WanderingSequence, plan_query
from .query import JoinSpec, Key, Predicate, Query, parse_query
from .schema import Link
from .store import PrimitiveColumn, Store, collector_paused


def _row_tuples(columns: list[list]) -> list[tuple]:
    """The rows, one tuple per position of the fetched columns.

    Rows hold only str, float, bool and None, so the cyclic collector
    can free nothing among them.  It is paused while they are built:
    otherwise every few hundred new tuples start a collection that
    moves the query's live objects toward the oldest generation, and
    full collections come several times as often.
    """
    with collector_paused():
        return list(zip(*columns))


# the row of a null, as a one-element object array: numpy would unpack a bare tuple
_NULL_ROW = np.fromiter([(None,)], dtype=object, count=1)


def _kept_rows(column: PrimitiveColumn, codes: np.ndarray, valid: np.ndarray) -> list[tuple]:
    """The rows of a one-string-column fetch: the dictionary's kept row of
    each code, and one shared ``(None,)`` for every null.

    A repeated fetch allocates no tuple, so it starts no collection.
    """
    rows = column.dictionary.rows(codes)
    if column.has_nulls:
        rows[~valid] = _NULL_ROW
    return rows.tolist()


class ResultSet:
    __slots__ = ("rows", "stats", "plan", "query")

    def __init__(
        self,
        rows: list[tuple],
        stats: dict,
        plan: WanderingSequence | None = None,
        query: Query | None = None,
    ):
        self.rows = rows
        self.stats = stats
        self.plan = plan
        self.query = query

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


def _join_keys(vals: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Positions whose value can match: valid and, for numbers, not NaN."""
    if vals.dtype.kind == "f":
        valid = valid & ~np.isnan(vals)
    return np.flatnonzero(valid)


def _key_column(store: Store, name: str, node: int) -> tuple[np.ndarray, np.ndarray]:
    """A join key column read whole, and its validity: a string column's
    codes, or a number column's values.  Two number columns' offsets
    have different bases, so they never compare as offsets."""
    return store.scan_values(name, node, decode=store.column(name, node).dictionary is None)


def _right_keys(left: PrimitiveColumn, right: PrimitiveColumn, rvals: np.ndarray) -> np.ndarray:
    """The right key column in the left one's terms: a string as its left
    code (-1 where the left never holds it), a number as it is."""
    if right.dictionary is None:
        return rvals
    return left.dictionary.translate(right.dictionary)[rvals]


class _MatchRelation:
    """Every (left, right) position pair whose key values are equal.

    ``match`` is a `Mapping` from each left instance to its matching
    rights, a counter over the lefts plus one pointer per pair; when
    every left has exactly one match the counter would be the identity
    and is left out.  ``order`` holds the matchable left positions
    stably sorted by value and ``keys`` their values in that order.
    ``right_keys`` is the right key column in the left one's terms
    (`_right_keys`).  The relation depends only on the store and is
    shared by every later query on it, so its arrays are read-only.
    A crossing records one metadata read of ``nbytes`` under ``io_key``.
    """

    def __init__(self, lvals, lvalid, rvals, rvalid, io_key: str):
        self.io_key = io_key
        self.right_keys = rvals
        lpos = _join_keys(lvals, lvalid)
        self.order = lpos[np.argsort(lvals[lpos], kind="stable")]
        # in the right keys' dtype, which `host_of` searches them with
        self.keys = lvals[self.order].astype(rvals.dtype, copy=False)
        rpos = _join_keys(rvals, rvalid)
        rorder = rpos[np.argsort(rvals[rpos], kind="stable")]
        rsorted = rvals[rorder]
        lkeys = lvals[lpos]
        lo = np.searchsorted(rsorted, lkeys, side="left")
        counts = np.searchsorted(rsorted, lkeys, side="right") - lo
        # offset of each pair inside its left's run of matching rights
        run_start = np.repeat(np.cumsum(counts) - counts, counts)
        pointers = rorder[np.repeat(lo, counts) + np.arange(run_start.size) - run_start]
        if lpos.size == len(lvals) and (counts == 1).all():
            self.match = Mapping(len(rvals), pointers=pointers)
        else:
            per_left = np.zeros(len(lvals), dtype=np.int64)
            per_left[lpos] = counts
            self.match = Mapping(len(rvals), boundaries=np.cumsum(per_left), pointers=pointers)
        for arr in (self.order, self.keys, self.match.pointers, self.match.boundaries):
            if arr is not None:
                arr.flags.writeable = False
        # as if each pair were read as two 8-byte positions
        self.nbytes = 16 * self.match.pointers.size

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(l_pair, r_pair)``: the pairs with rights ascending and, per
        right, lefts ascending."""
        m = self.match
        lefts = np.arange(m.upper_cardinality) if m.boundaries is None else m.owner
        by_right = np.argsort(m.pointers, kind="stable")
        pairs = lefts[by_right], m.pointers[by_right]
        for arr in pairs:
            arr.flags.writeable = False
        return pairs


class JoinIndex:
    """Value-match index for one join, built from the two key columns.

    Crosses the join as one `Mapping` move in either direction, and
    keeps the value-sorted left keys used when rows are regenerated
    across the join.  String keys are compared as left dictionary
    codes.  The relation depends only on the store, so it is built once
    and kept in ``store.joins``.
    """

    def __init__(self, store: Store, join: JoinSpec):
        lname, lnode = join.left.schema, join.left.node
        rname, rnode = join.right.schema, join.right.node
        lvals, lvalid = _key_column(store, lname, lnode)
        rvals, rvalid = _key_column(store, rname, rnode)
        self.left_cardinality = len(lvals)
        self.right_cardinality = len(rvals)
        self.right = store.column(rname, rnode)
        cache_key = (lname, lnode, rname, rnode)
        relation = store.joins.get(cache_key)
        if relation is None:
            rkeys = _right_keys(store.column(lname, lnode), self.right, rvals)
            lpath = store.schema(lname).path_of(lnode)
            rpath = store.schema(rname).path_of(rnode)
            relation = store.joins[cache_key] = _MatchRelation(
                lvals, lvalid, rkeys, rvalid, f"{lname}.{lpath}~{rname}.{rpath}#join"
            )
        self._relation = relation
        self.right_keys, self.order, self.keys = relation.right_keys, relation.order, relation.keys
        self.match = relation.match

    @property
    def l_pair(self) -> np.ndarray:
        return self._relation.pairs[0]

    @property
    def r_pair(self) -> np.ndarray:
        return self._relation.pairs[1]

    def host_of(self, rights: np.ndarray, valid_left: np.ndarray | None) -> np.ndarray:
        """The one left instance (among ``valid_left``) matching each right.

        Raises `QueryError` when a right's key value matches no surviving
        left or more than one.
        """
        vals = self.right_keys[rights]
        lo = np.searchsorted(self.keys, vals, side="left")
        hi = np.searchsorted(self.keys, vals, side="right")
        if valid_left is None:
            first, count = lo, hi - lo
        else:
            alive = np.concatenate(([0], np.cumsum(valid_left[self.order])))
            count = alive[hi] - alive[lo]
            # first surviving sorted slot at or after lo
            first = np.searchsorted(alive, alive[lo] + 1, side="left") - 1
        bad = np.flatnonzero(count != 1)
        if bad.size:
            val = self.right.decode(self.right.stored[rights[bad[:1]]]).tolist()[0]
            raise QueryError(f"join key value {val!r} does not determine a single host instance")
        return self.order[first].astype(np.int64, copy=False)

    def _record(self, store: Store) -> None:
        store.io.record_metadata(self._relation.io_key, self._relation.nbytes)
        store.io.bitset_ops += 1

    def up(self, store: Store, key_bits: np.ndarray) -> np.ndarray:
        """Right-key bits to left bits: lefts with a set matching right."""
        self._record(store)
        return self.match.up(key_bits)

    def down(self, store: Store, left_bits: np.ndarray) -> np.ndarray:
        """Left bits to right-key bits: member rights whose left is set."""
        self._record(store)
        return self.match.down(left_bits)


# the clock a deadline is read on (`time.perf_counter`)
_clock = time.perf_counter


class _Evaluation:
    def __init__(
        self, store: Store, query: Query, plan: WanderingSequence, indexes: dict, deadline: float | None = None
    ):
        self.store = store
        self.q = query
        self.plan = plan
        self.deadline = deadline
        self.tree = query.composite
        self.indexes = dict(indexes)
        self.saved: dict[Key, np.ndarray] = {}
        self._joins: dict[str, JoinIndex] = {}

    # -- plumbing -------------------------------------------------------------

    def _on_time(self, before: str) -> None:
        if self.deadline is not None and _clock() > self.deadline:
            raise BudgetError(f"the time budget ran out before {before}")

    def _card(self, key: Key) -> int:
        return self.store.data(key[0]).cardinality[key[1]]

    def _deliver(self, name: str, src: int, dst: int, bits: np.ndarray) -> np.ndarray:
        return deliver(self.store, name, src, dst, bits, index=self.indexes.get(name))

    def join_index(self, join: JoinSpec) -> JoinIndex:
        guest = join.right.schema
        ji = self._joins.get(guest)
        if ji is None:
            ji = self._joins[guest] = JoinIndex(self.store, join)
        return ji

    # -- bitset movement ------------------------------------------------------

    def _segment(self, name: str, bits: np.ndarray, src: int, dst: int, fresh: bool = False) -> np.ndarray:
        """Move bits src -> dst inside one schema, re-imposing saved bits.

        A roll-up keeps every restriction the bits already carry, but a
        drill-down only keeps them at the apex's granularity.  Any saved
        bitset whose meet with the destination sits strictly below the
        apex is delivered to the destination and ANDed back in.  Bits
        that entered this schema through a join edge without the context
        they left it with (``fresh``: down into a guest, or up into a
        host the walk started below) carry nothing about it yet, so
        every saved site here is re-imposed.
        """
        out = self._deliver(name, src, dst, bits)
        dkey = (name, dst)
        # drilling into a shared vertex record merges the walks of every
        # host that reaches it, so instance lineage is lost and the apex
        # rule below no longer holds; re-impose everything instead
        mixes = self.tree.passes_vertex((name, src), dkey)
        apex_depth = self.tree.depth(self.tree.lca((name, src), dkey))
        for fkey, fbits in list(self.saved.items()):
            if fkey[0] != name or fkey == (name, src):
                continue
            if (
                not fresh
                and not mixes
                and self.tree.depth(self.tree.lca(fkey, dkey)) <= apex_depth
            ):
                continue
            out = out & self._deliver(name, fkey[1], dst, fbits)
            self.store.io.bitset_ops += 1
        return out

    def _cross_down(self, join: JoinSpec, left_bits: np.ndarray) -> np.ndarray:
        # the left context the walk leaves with; `_cross_up` keeps it
        self.saved[(join.left.schema, join.left.node)] = left_bits
        key_bits = self.join_index(join).down(self.store, left_bits)
        rkey = (join.right.schema, join.right.node)
        prev = self.saved.get(rkey)
        if prev is not None:
            key_bits = key_bits & prev
            self.store.io.bitset_ops += 1
        self.saved[rkey] = key_bits
        return key_bits

    def _cross_up(self, join: JoinSpec, root_bits: np.ndarray, root_node: int) -> tuple[np.ndarray, bool]:
        """Bits at the guest's root to bits at the join's left key, and
        whether they return without the left context.

        The composite is a tree, so a walk comes back through a join only
        after leaving through it, with no stop in the left schema since,
        unless it started below the join.  The bits that left are saved
        at the left key, and the returning bits are ANDed with them: they
        then carry every restriction the left schema's saved sites put on
        the bits that left, each at its instance lineage.
        """
        guest = join.right.schema
        key_bits = self._segment(guest, root_bits, root_node, join.right.node)
        # the guest context the walk leaves with; `_cross_down` keeps it
        self.saved[(guest, join.right.node)] = key_bits
        left_bits = self.join_index(join).up(self.store, key_bits)
        lkey = (join.left.schema, join.left.node)
        prev = self.saved.get(lkey)
        if prev is not None:
            left_bits = left_bits & prev
            self.store.io.bitset_ops += 1
        self.saved[lkey] = left_bits
        return left_bits, prev is None

    def _move(self, bits: np.ndarray, src: Key, dst: Key) -> np.ndarray:
        if src == dst:
            return bits
        route = self.tree.route(src, dst)
        runs: list[list[Key]] = []
        for key in route:
            if runs and runs[-1][0][0] == key[0]:
                runs[-1].append(key)
            else:
                runs.append([key])
        cur = runs[0][0][1]
        fresh = False
        for t, run in enumerate(runs):
            name = run[0][0]
            bits = self._segment(name, bits, cur, run[-1][1], fresh=fresh)
            if t + 1 == len(runs):
                break
            nxt = runs[t + 1][0]
            if self.tree.parent_of(nxt) == run[-1]:
                join = self.tree.join_for[nxt[0]]
                bits = self._cross_down(join, bits)
                cur = join.right.node
                fresh = True
            else:
                join = self.tree.join_for[name]
                bits, fresh = self._cross_up(join, bits, run[-1][1])
                cur = nxt[1]
        return bits

    # -- filter stops ---------------------------------------------------------

    def _scan_mask(self, name: str, node: int, ctx: np.ndarray, preds: list[Predicate]) -> np.ndarray:
        count = np.count_nonzero(ctx)
        if count == 0:
            return np.zeros_like(ctx)
        # a full context scans the whole column and needs no positions
        whole = count == ctx.size
        positions = None if whole else positions_of(ctx)
        vals, valid = self.store.scan_values(name, node, positions, context_bits=ctx, decode=False, exact=True)
        column = self.store.column(name, node)
        mask = column.match(vals, preds[0].op, preds[0].value)
        for pred in preds[1:]:
            mask &= column.match(vals, pred.op, pred.value)
        if column.has_nulls:
            mask &= valid
        self.store.io.bitset_ops += 1
        if whole:
            return mask.astype(bool, copy=False)
        out = np.zeros_like(ctx)
        out[positions] = mask
        return out

    def _pattern_bits(self, gp, anchor_bits: np.ndarray) -> np.ndarray:
        """Bits at the anchor that start at least one matching walk."""
        name = gp.schema
        sch = self.tree.schemas[name]
        leafs = [h.node for h in gp.hops]
        targets = [sch.node(ln).target for ln in leafs]
        sources = [gp.anchor] + targets[:-1]

        cand = [anchor_bits]
        pointers = []  # each leaf's pointer array, a Mapping from the leaf down to its target
        for k, ln in enumerate(leafs):
            leaf_bits = self._deliver(name, sources[k], ln, cand[k])
            pointers.append(self.store.read_link(name, ln))
            cand.append(pointers[k].down(leaf_bits))
            self.store.io.bitset_ops += 1

        by_depth: dict[int, dict[int, list[Predicate]]] = {}
        for idx in gp.members:
            pred = self.q.filters[idx]
            depth = len(pred.site.chain)
            by_depth.setdefault(depth, {}).setdefault(pred.site.node, []).append(pred)

        f = cand[-1]
        for k in range(len(leafs), 0, -1):
            for node_id, preds in (by_depth.get(k) or {}).items():
                ctx = self._deliver(name, targets[k - 1], node_id, f)
                site_bits = self._scan_mask(name, node_id, ctx, preds)
                f = f & self._deliver(name, node_id, targets[k - 1], site_bits)
                self.store.io.bitset_ops += 1
            edge_bits = pointers[k - 1].up(f)
            self.store.io.bitset_ops += 1
            f = self._deliver(name, leafs[k - 1], sources[k - 1], edge_bits) & cand[k - 1]
            self.store.io.bitset_ops += 1
        return f

    # -- main walk ------------------------------------------------------------

    def _seed(self, key: Key) -> np.ndarray:
        """All-ones bits at ``key``, minus instances no walk can reach.

        Vertex records nobody points at exist in the columns but are not
        part of any walk, so a site below one is seeded from the root and
        drilled into.  Everywhere else the full column is reachable.
        """
        name = key[0]
        root = (name, self.tree.schemas[name].root.id)
        if key != root and self.tree.passes_vertex(root, key):
            return self._move(ones_bits(self._card(root)), root, key)
        return ones_bits(self._card(key))

    def run(self) -> list[tuple]:
        bits: np.ndarray | None = None
        cur: Key | None = None
        for stop, f in enumerate(self.plan.order, 1):
            self._on_time(f"plan stop {stop} of {len(self.plan.order)}")
            if cur is None:
                bits = self._seed(f.key)
            else:
                bits = self._move(bits, cur, f.key)
            cur = f.key
            if f.kind == "scan":
                preds = [self.q.filters[i] for i in f.predicates]
                bits = self._scan_mask(cur[0], cur[1], bits, preds)
            elif f.kind == "pattern":
                bits = bits & self._pattern_bits(self.q.graph_paths[f.graph_path], bits)
                self.store.io.bitset_ops += 1
            self.saved[cur] = bits
            if not bits.any():
                return []
        site = self.q.deepest_fetch
        dkey = (site.schema, site.node)
        bits = self._seed(dkey) if cur is None else self._move(bits, cur, dkey)
        self._on_time("the rows were built")
        return self._rows(bits, dkey)

    # -- row regeneration -----------------------------------------------------

    def _rows(self, bits: np.ndarray, dkey: Key) -> list[tuple]:
        positions = positions_of(bits)
        if positions.size == 0:
            return []
        columns = []
        for spec in self.q.fetch:
            fkey = (spec.site.schema, spec.site.node)
            exact = fkey == dkey
            if exact:
                idxs, ctx = positions, bits
            else:
                ctx = self._move(bits, dkey, fkey)
                idxs = self._map_positions(positions, dkey, fkey)
            column = self.store.column(*fkey)
            if column.dictionary is not None and len(self.q.fetch) == 1:
                codes, valid = self.store.scan_values(*fkey, idxs, context_bits=ctx, decode=False, exact=exact)
                return _kept_rows(column, codes, valid)
            vals, valid = self.store.scan_values(*fkey, idxs, context_bits=ctx, exact=exact)
            columns.append((np.where(valid, vals, None) if column.has_nulls else vals).tolist())
        return _row_tuples(columns)

    def _map_positions(self, positions: np.ndarray, src: Key, dst: Key) -> np.ndarray:
        """Map instance indexes along the route; every step is functional."""
        route = self.tree.route(src, dst)
        idxs = positions.astype(np.int64, copy=True)
        for a, b in zip(route, route[1:]):
            if self.tree.parent_of(a) == b:
                if a[0] != b[0]:
                    idxs = self._map_join_up(idxs, a[0])
                    continue
                if self.tree.node(a).link is Link.COUNTER:
                    idxs = self.store.read_link(*a).owner[idxs]
            elif self.tree.node(b).link is Link.INDICATOR:
                idxs = self.store.read_link(*b).pointers[idxs]
        return idxs

    def _map_join_up(self, idxs: np.ndarray, guest: str) -> np.ndarray:
        join = self.tree.join_for[guest]
        lkey = (join.left.schema, join.left.node)
        return self.join_index(join).host_of(idxs, self.saved.get(lkey))


def evaluate(
    store: Store,
    query: Query,
    plan: WanderingSequence | None = None,
    indexes: dict | None = None,
    audit: bool = False,
    deadline: float | None = None,
) -> ResultSet:
    """Run a parsed query and return its rows plus the IO it cost.

    ``indexes`` maps schema names to skip-trees; deliveries in a mapped
    schema jump levels instead of touching every counter on the path.
    With ``audit`` every column read is checked against the bitset the
    engine claimed, and violations are counted in the stats.  With a
    ``deadline`` (a `time.perf_counter` reading) the clock is read at
    every plan stop and before the rows are built, and `BudgetError` is
    raised once it has passed.
    """
    if plan is None:
        plan = plan_query(store, query)
    store.io.reset()
    prior = store.io.audit_enabled
    store.io.audit_enabled = audit or prior
    start = time.perf_counter()
    try:
        rows = _Evaluation(store, query, plan, indexes or {}, deadline).run()
    finally:
        store.io.audit_enabled = prior
    stats = dict(store.io.snapshot())
    stats["wall_time"] = time.perf_counter() - start
    return ResultSet(rows=rows, stats=stats, plan=plan, query=query)


def run_query(store: Store, doc: Any, **kwargs) -> ResultSet:
    """Parse a query document against the store's schemas and evaluate it."""
    schemas = {name: data.schema for name, data in store.datasets.items()}
    return evaluate(store, parse_query(schemas, doc), **kwargs)
