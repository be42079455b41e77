"""Reference evaluator over plain Python structures.

Everything here is deliberately slow and literal: instances live in Python
lists, existence checks are loops, and no bitset or mapping machinery is
shared with the engine.  The point is to have an independent opinion about
what a query means:

- Filters are existential.  An instance is valid when its own predicates
  pass, every constrained child subtree under it contains at least one
  valid instance, and its own ancestor line is valid; two filters share an
  instance only through their lowest common ancestor.
- Joins are inner joins on key values.  A left-key instance survives only
  when its value appears among surviving right-key instances of the guest,
  and guest instances only count inside surviving left contexts.
- A chain filter (one whose path walks through a cycle pointer) constrains
  the anchor record of its declared hop path: the anchor qualifies when
  some walk along the hops reaches instances satisfying every member
  predicate.  Fetches below hop targets are not narrowed by the chain
  itself, only by which contexts stay valid.
- Null values never satisfy any predicate, including ``!=``, and never
  match a join key.
- The result has one row per valid instance of the deepest fetch node; the
  remaining columns are read off that instance's ancestor line or identity
  descendants.  Fetching a filtered column therefore yields only the
  matching instances.

``materialize_records`` inverts shredding: it rebuilds the documents, rows,
or vertex/edge tables a store was ingested from, for round-trip checks.
"""

from __future__ import annotations

from typing import Mapping

from .errors import QueryError, StoreError
from .query import GraphPath, JoinSpec, Key, Predicate, Query
from .schema import Kind, Link, Schema
from .store import SchemaData, Store

__all__ = ["materialize_records", "oracle_evaluate", "oracle_query"]


# ---------------------------------------------------------------------------
# store -> records


def _value_at(column, index: int):
    if not column.validity[index]:
        return None
    value = column.values[index]
    if isinstance(value, str):
        return value
    return value.item() if hasattr(value, "item") else value


def _range(boundaries, index: int) -> tuple[int, int]:
    """The entries of a counter's upper instance `index`: [lo, hi)."""
    return (int(boundaries[index - 1]) if index else 0), int(boundaries[index])


def _materialize_instance(data: SchemaData, schema: Schema, node, index: int) -> dict:
    out: dict = {}
    for cid in node.children:
        child = schema.node(cid)
        if child.kind is Kind.PRIMITIVE:
            out[child.name] = _value_at(data.columns[cid], index)
        elif child.kind is Kind.ARRAY and child.has_values:
            lo, hi = _range(data.counters[cid].boundaries, index)
            col = data.columns[cid]
            out[child.name] = [_value_at(col, j) for j in range(lo, hi)]
        elif child.kind is Kind.ARRAY:
            lo, hi = _range(data.counters[cid].boundaries, index)
            out[child.name] = [
                _materialize_instance(data, schema, child, j) for j in range(lo, hi)
            ]
        elif child.kind is Kind.RECORD and child.link is not Link.INDICATOR:
            out[child.name] = _materialize_instance(data, schema, child, index)
        # cycle pointers and shared vertex records are not document content
    return out


def _is_graph(schema: Schema) -> bool:
    return any(
        n.kind is Kind.INDICATOR or (n.kind is Kind.RECORD and n.link is Link.INDICATOR)
        for n in schema.nodes
    ) or any(n.kind is Kind.ARRAY and n.name.endswith("#") for n in schema.nodes)


def _materialize_graph(data: SchemaData, schema: Schema) -> dict:
    vertices: dict[str, list[dict]] = {}
    for n in schema.nodes:
        if n.kind is not Kind.RECORD or not (n.parent is None or n.name.startswith("#")):
            continue
        label = n.name.lstrip("#")
        rows = []
        for i in range(data.cardinality[n.id]):
            props = {}
            for cid in n.children:
                child = schema.node(cid)
                if child.kind is Kind.PRIMITIVE:
                    props[child.name] = _value_at(data.columns[cid], i)
            rows.append(props)
        vertices[label] = rows

    edges: dict[str, list] = {}
    for n in schema.nodes:
        if n.kind is not Kind.ARRAY or not n.name.endswith("#"):
            continue
        label = n.name[:-1]
        boundaries = data.counters[n.id].boundaries
        tgt_child = next(
            schema.node(c)
            for c in n.children
            if schema.node(c).kind in (Kind.RECORD, Kind.INDICATOR)
        )
        pointers = data.indicators[tgt_child.id].pointers
        prop_children = [
            schema.node(c) for c in n.children if schema.node(c).kind is Kind.PRIMITIVE
        ]
        rows = []
        for src in range(len(boundaries)):
            lo, hi = _range(boundaries, src)
            for e in range(lo, hi):
                props = {c.name: _value_at(data.columns[c.id], e) for c in prop_children}
                rows.append((src, int(pointers[e]), props))
        edges[label] = rows
    return {"vertices": vertices, "edges": edges}


def materialize_records(store: Store, schema_name: str):
    """Rebuild plain records from the columns of one schema.

    Documents and tables come back as a list of root dicts.  Graphs come
    back as ``{"vertices": {label: [props]}, "edges": {label: [(src_offset,
    dst_offset, props)]}}``; vertex ids are not stored, so edge endpoints
    are positions in the vertex lists.
    """
    data = store.data(schema_name)
    schema = data.schema
    if _is_graph(schema):
        return _materialize_graph(data, schema)
    root = schema.root
    return [
        _materialize_instance(data, schema, root, i)
        for i in range(data.cardinality[root.id])
    ]


# ---------------------------------------------------------------------------
# records -> instance tables

_MISSING = object()


def _norm(value, prim_kind: str):
    if value is None or value is _MISSING:
        return None
    if prim_kind == "number":
        return float(value)
    if prim_kind == "boolean":
        return bool(value)
    return str(value)


class _Tables:
    """Instance-at-a-time view of one schema's data.

    For every node: ``card`` counts instances, ``values`` holds Python
    values (None for nulls), ``parent`` maps an instance to its parent
    instance (identity links share the index), ``spans`` gives each parent's
    half-open child range under a counter link, and ``pointer`` maps an edge
    slot to its target vertex under an indicator link.  Shared vertex
    records have no parent line; nothing here walks up out of one.
    """

    def __init__(self, schema: Schema):
        self.schema = schema
        self.card: dict[int, int] = {n.id: 0 for n in schema.nodes}
        self.values: dict[int, list] = {n.id: [] for n in schema.nodes if n.has_values}
        self.parent: dict[int, list] = {n.id: [] for n in schema.nodes}
        self.spans: dict[int, list] = {
            n.id: [] for n in schema.nodes if n.link is Link.COUNTER
        }
        self.pointer: dict[int, list] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def from_records(cls, schema: Schema, records) -> "_Tables":
        t = cls(schema)
        if _is_graph(schema):
            t._load_graph(records)
        else:
            for doc in records:
                t._walk(schema.root, doc if isinstance(doc, dict) else {}, None)
        return t

    @classmethod
    def from_store(cls, data: SchemaData) -> "_Tables":
        t = cls(data.schema)
        for n in data.schema.nodes:
            nid = n.id
            t.card[nid] = data.cardinality[nid]
            if nid in data.columns:
                col = data.columns[nid]
                t.values[nid] = [_value_at(col, i) for i in range(col.cardinality)]
            if n.link is Link.COUNTER:
                boundaries = data.counters[nid].boundaries
                for p in range(len(boundaries)):
                    lo, hi = _range(boundaries, p)
                    t.spans[nid].append((lo, hi))
                    t.parent[nid].extend([p] * (hi - lo))
            elif n.link is Link.INDICATOR:  # shared vertex record
                t.pointer[nid] = [int(x) for x in data.indicators[nid].pointers]
                t.parent[nid] = [None] * t.card[nid]
            elif n.kind is Kind.INDICATOR:  # cycle pointer leaf, one per edge slot
                t.pointer[nid] = [int(x) for x in data.indicators[nid].pointers]
                t.parent[nid] = list(range(t.card[nid]))
            elif n.link is Link.ROOT:
                t.parent[nid] = [None] * t.card[nid]
            else:
                t.parent[nid] = list(range(t.card[nid]))
        return t

    def _walk(self, node, value: dict, parent_index) -> None:
        idx = self.card[node.id]
        self.card[node.id] = idx + 1
        self.parent[node.id].append(parent_index)
        for cid in node.children:
            child = self.schema.node(cid)
            raw = value.get(child.name, _MISSING)
            if raw is _MISSING:
                raw = None
            if child.kind is Kind.PRIMITIVE:
                self.values[cid].append(_norm(raw, child.primitive))
                self.card[cid] += 1
                self.parent[cid].append(idx)
            elif child.kind is Kind.ARRAY and child.has_values:
                items = raw if isinstance(raw, list) else []
                lo = self.card[cid]
                for item in items:
                    self.values[cid].append(_norm(item, child.primitive))
                    self.parent[cid].append(idx)
                self.card[cid] = lo + len(items)
                self.spans[cid].append((lo, lo + len(items)))
            elif child.kind is Kind.ARRAY:
                items = raw if isinstance(raw, list) else []
                lo = self.card[cid]
                for item in items:
                    self._walk(child, item if isinstance(item, dict) else {}, idx)
                self.spans[cid].append((lo, self.card[cid]))
            elif child.kind is Kind.RECORD:
                self._walk(child, raw if isinstance(raw, dict) else {}, idx)
            else:
                raise StoreError(
                    f"cannot evaluate documents against node kind {child.kind.name}"
                )

    def _load_graph(self, records: dict) -> None:
        schema = self.schema
        vertices = records.get("vertices", {})
        edges = records.get("edges", {})
        record_of: dict[str, int] = {}
        offsets: dict[str, dict] = {}
        for n in schema.nodes:
            if n.kind is Kind.RECORD and (n.parent is None or n.name.startswith("#")):
                label = n.name.lstrip("#")
                record_of[label] = n.id
                rows = vertices.get(label, [])
                offsets[label] = {row["id"]: i for i, row in enumerate(rows)}
                self.card[n.id] = len(rows)
                self.parent[n.id] = [None] * len(rows)
                for cid in n.children:
                    child = schema.node(cid)
                    if child.kind is Kind.PRIMITIVE:
                        self.values[cid] = [
                            _norm(row.get(child.name), child.primitive) for row in rows
                        ]
                        self.card[cid] = len(rows)
                        self.parent[cid] = list(range(len(rows)))
        for n in schema.nodes:
            if n.kind is not Kind.ARRAY or not n.name.endswith("#"):
                continue
            label = n.name[:-1]
            src_label = schema.node(n.parent).name.lstrip("#")
            tgt_child = next(
                schema.node(c)
                for c in n.children
                if schema.node(c).kind in (Kind.RECORD, Kind.INDICATOR)
            )
            tgt_label = tgt_child.name.lstrip("#")
            rows = edges.get(label, [])
            resolved = []
            for rec in rows:
                src, dst = rec[0], rec[1]
                props = rec[2] if len(rec) > 2 else {}
                resolved.append(
                    (offsets[src_label][src], offsets[tgt_label][dst], props)
                )
            n_src = self.card[record_of[src_label]]
            by_src: list[list] = [[] for _ in range(n_src)]
            for item in resolved:  # group by source, stable, matching ingest
                by_src[item[0]].append(item)
            flat = [item for bucket in by_src for item in bucket]
            self.card[n.id] = len(flat)
            self.parent[n.id] = [item[0] for item in flat]
            pos = 0
            for bucket in by_src:
                self.spans[n.id].append((pos, pos + len(bucket)))
                pos += len(bucket)
            self.pointer[tgt_child.id] = [item[1] for item in flat]
            if tgt_child.kind is Kind.INDICATOR:
                self.card[tgt_child.id] = len(flat)
                self.parent[tgt_child.id] = list(range(len(flat)))
            for cid in n.children:
                child = schema.node(cid)
                if child.kind is Kind.PRIMITIVE:
                    self.values[cid] = [
                        _norm(item[2].get(child.name), child.primitive) for item in flat
                    ]
                    self.card[cid] = len(flat)
                    self.parent[cid] = list(range(len(flat)))

    # -- navigation ------------------------------------------------------------

    def child_instances(self, child_id: int, parent_index: int):
        node = self.schema.node(child_id)
        if node.link is Link.COUNTER:
            lo, hi = self.spans[child_id][parent_index]
            return range(lo, hi)
        if node.link is Link.INDICATOR and node.kind is Kind.RECORD:
            return (self.pointer[child_id][parent_index],)
        return (parent_index,)

    def descend(self, top: int, node: int, index: int) -> list[int]:
        """All instances of ``node`` under instance ``index`` of ``top``."""
        path = []
        nid = node
        while nid != top:
            path.append(nid)
            parent = self.schema.node(nid).parent
            if parent is None:
                raise StoreError(f"node {node} is not under node {top}")
            nid = parent
        indices = [index]
        for step in reversed(path):
            nxt: list[int] = []
            for i in indices:
                nxt.extend(self.child_instances(step, i))
            indices = nxt
        return indices


# ---------------------------------------------------------------------------
# predicate evaluation


def _passes(op: str, value, operand) -> bool:
    if value is None:
        return False
    if op == "=":
        return value == operand
    if op == "!=":
        return value != operand
    if op == "<":
        return value < operand
    if op == "<=":
        return value <= operand
    if op == ">":
        return value > operand
    if op == ">=":
        return value >= operand
    if op == "in":
        return value in operand
    raise QueryError(f"unknown operator {op!r}")


class _Oracle:
    def __init__(self, query: Query, tables: Mapping[str, _Tables]):
        self.q = query
        self.tables = tables
        self.composite = query.composite
        self.sat: dict[Key, list[bool]] = {}
        self.ctx: dict[Key, list[bool]] = {}
        self.join_match: dict[Key, list[bool]] = {}
        self.ok_right: dict[int, set] = {}  # id(join) -> surviving right key values

        self.own: dict[Key, list[Predicate]] = {}
        for pred in query.filters:
            if pred.site.chain:
                continue  # carried by its declared graph path
            key = (pred.site.schema, pred.site.node)
            self.own.setdefault(key, []).append(pred)
        self.patterns: dict[Key, list[GraphPath]] = {}
        for gp in query.graph_paths:
            self.patterns.setdefault((gp.schema, gp.anchor), []).append(gp)
        self.left_joins: dict[Key, list[JoinSpec]] = {}
        self.joins_from: dict[str, list[JoinSpec]] = {}
        for join in query.joins:
            self.left_joins.setdefault(
                (join.left.schema, join.left.node), []
            ).append(join)
            self.joins_from.setdefault(join.left.schema, []).append(join)

        self.atoms: dict[str, set[int]] = {s: set() for s in tables}
        for s, nid in self.own:
            self.atoms[s].add(nid)
        for s, nid in self.patterns:
            self.atoms[s].add(nid)
        for s, nid in self.left_joins:
            self.atoms[s].add(nid)

    def run(self) -> None:
        self._eval_schema(self.q.host)
        host_root = self.tables[self.q.host].schema.root.id
        self.ctx[(self.q.host, host_root)] = list(self.sat[(self.q.host, host_root)])
        self._push_schema(self.q.host)

    # -- bottom-up ---------------------------------------------------------

    def _constrained(self, schema_name: str, node_id: int) -> bool:
        schema = self.tables[schema_name].schema
        interval = schema.subtree_interval(node_id)
        return any(
            interval.contains(schema.preorder_index(nid))
            for nid in self.atoms[schema_name]
        )

    def _eval_schema(self, s: str) -> None:
        for join in self.joins_from.get(s, ()):
            self._eval_schema(join.right.schema)
            self.ok_right[id(join)] = self._surviving_right(join)
        t = self.tables[s]
        schema = t.schema
        for nid in reversed(range(len(schema.nodes))):
            node = schema.node(nid)
            key = (s, nid)
            bits = [True] * t.card[nid]
            for pred in self.own.get(key, ()):
                vals = t.values[nid]
                bits = [
                    b and _passes(pred.op, vals[i], pred.value)
                    for i, b in enumerate(bits)
                ]
            for gp in self.patterns.get(key, ()):
                pattern = self._pattern_bits(gp)
                bits = [b and p for b, p in zip(bits, pattern)]
            for join in self.left_joins.get(key, ()):
                ok = self.ok_right[id(join)]
                vals = t.values[nid]
                bits = [
                    b and vals[i] is not None and vals[i] in ok
                    for i, b in enumerate(bits)
                ]
            for cid in node.children:
                if not self._constrained(s, cid):
                    continue
                child_sat = self.sat[(s, cid)]
                bits = [
                    b and any(child_sat[j] for j in t.child_instances(cid, i))
                    for i, b in enumerate(bits)
                ]
            self.sat[key] = bits

    def _guest_valid(self, s: str, key_node: int, k: int) -> bool:
        """Key instance k survives its whole ancestor line inside the guest."""
        t = self.tables[s]
        nid, i = key_node, k
        while True:
            if not self.sat[(s, nid)][i]:
                return False
            node = t.schema.node(nid)
            if node.parent is None:
                return True
            i = t.parent[nid][i]
            nid = node.parent

    def _surviving_right(self, join: JoinSpec) -> set:
        s = join.right.schema
        t = self.tables[s]
        vals = t.values[join.right.node]
        return {
            vals[k]
            for k in range(t.card[join.right.node])
            if vals[k] is not None and self._guest_valid(s, join.right.node, k)
        }

    # -- graph chains --------------------------------------------------------

    def _exists_under(self, s: str, top: int, node: int, index: int, preds) -> bool:
        t = self.tables[s]
        vals = t.values[node]
        for j in t.descend(top, node, index):
            if all(_passes(p.op, vals[j], p.value) for p in preds):
                return True
        return False

    def _pattern_bits(self, gp: GraphPath) -> list[bool]:
        s = gp.schema
        t = self.tables[s]
        schema = t.schema
        # hop k: (edge array, cycle-pointer leaf, target vertex record)
        hops = []
        for site in gp.hops:
            leaf = schema.node(site.node)
            hops.append((leaf.parent, leaf.id, leaf.target))

        by_depth: dict[int, list[Predicate]] = {}
        for idx in gp.members:
            pred = self.q.filters[idx]
            by_depth.setdefault(len(pred.site.chain), []).append(pred)

        def vertex_bits(depth: int) -> list[bool]:
            record = hops[depth - 1][2]
            bits = [True] * t.card[record]
            groups: dict[int, list[Predicate]] = {}
            for pred in by_depth.get(depth, ()):
                groups.setdefault(pred.site.node, []).append(pred)
            for node_id, preds in groups.items():
                bits = [
                    b and self._exists_under(s, record, node_id, v, preds)
                    for v, b in enumerate(bits)
                ]
            return bits

        m = len(hops)
        f = vertex_bits(m)
        for depth in range(m - 1, 0, -1):
            edge_id, leaf_id, _ = hops[depth]
            reached = [False] * t.card[hops[depth - 1][2]]
            for e in range(t.card[edge_id]):
                if f[t.pointer[leaf_id][e]]:
                    reached[t.parent[edge_id][e]] = True
            ok = vertex_bits(depth)
            f = [a and b for a, b in zip(reached, ok)]
        edge_id, leaf_id, _ = hops[0]
        bits = [False] * t.card[schema.node(edge_id).parent]
        for e in range(t.card[edge_id]):
            if f[t.pointer[leaf_id][e]]:
                bits[t.parent[edge_id][e]] = True
        return bits

    # -- top-down ------------------------------------------------------------

    def _push_schema(self, s: str) -> None:
        t = self.tables[s]
        schema = t.schema
        for nid in range(len(schema.nodes)):
            node = schema.node(nid)
            if node.parent is None:
                continue
            key, pkey = (s, nid), (s, node.parent)
            up = self.ctx[pkey]
            sat = self.sat[key]
            if node.link is Link.INDICATOR and node.kind is Kind.RECORD:
                bits = [False] * t.card[nid]
                for e, v in enumerate(t.pointer[nid]):
                    if up[e]:
                        bits[v] = True
                bits = [a and b for a, b in zip(bits, sat)]
            else:
                bits = [sat[i] and up[t.parent[nid][i]] for i in range(t.card[nid])]
            member = self.join_match.get(key)
            if member is not None:
                bits = [a and b for a, b in zip(bits, member)]
            self.ctx[key] = bits
        for join in self.joins_from.get(s, ()):
            self._cross_join(join)

    def _cross_join(self, join: JoinSpec) -> None:
        left_s, left_n = join.left.schema, join.left.node
        right_s, right_n = join.right.schema, join.right.node
        lt, rt = self.tables[left_s], self.tables[right_s]
        left_vals = lt.values[left_n]
        left_ctx = self.ctx[(left_s, left_n)]
        ok_left = {
            left_vals[i]
            for i in range(lt.card[left_n])
            if left_ctx[i] and left_vals[i] is not None
        }
        right_vals = rt.values[right_n]
        member = [v is not None and v in ok_left for v in right_vals]
        self.join_match[(right_s, right_n)] = member
        witness = [
            member[k] and self._guest_valid(right_s, right_n, k)
            for k in range(rt.card[right_n])
        ]
        root = rt.schema.root.id
        root_sat = self.sat[(right_s, root)]
        self.ctx[(right_s, root)] = [
            root_sat[r] and any(witness[k] for k in rt.descend(root, right_n, r))
            for r in range(rt.card[root])
        ]
        self._push_schema(right_s)

    # -- output ----------------------------------------------------------------

    def rows(self) -> list[tuple]:
        q = self.q
        deepest = q.deepest_fetch
        dkey = (deepest.schema, deepest.node)
        routes = [
            self.composite.route(dkey, (f.site.schema, f.site.node)) for f in q.fetch
        ]
        out = []
        for i, ok in enumerate(self.ctx[dkey]):
            if not ok:
                continue
            row = []
            for f, route in zip(q.fetch, routes):
                j = self._map_route(route, i)
                row.append(self.tables[f.site.schema].values[f.site.node][j])
            out.append(tuple(row))
        return out

    def _map_route(self, route: list[Key], index: int) -> int:
        i = index
        for a, b in zip(route, route[1:]):
            if self.composite.parent_of(a) == b:
                if self.composite.is_join_root(a):
                    i = self._join_up(a, i)
                else:
                    i = self.tables[a[0]].parent[a[1]][i]
            else:
                node = self.tables[b[0]].schema.node(b[1])
                if node.link is Link.INDICATOR and node.kind is Kind.RECORD:
                    i = self.tables[b[0]].pointer[b[1]][i]
                elif node.link is Link.COUNTER:
                    raise QueryError("fetch route descends into a repeated array")
                # identity links keep the index
        return i

    def _join_up(self, guest_root: Key, index: int) -> int:
        # this query's own join, whose paths are as it spelled them
        join = next(j for j in self.q.joins if j.right.schema == guest_root[0])
        rt = self.tables[join.right.schema]
        # the key is identity-reachable from the guest root, so it shares
        # the root's instance index
        value = rt.values[join.right.node][index]
        lt = self.tables[join.left.schema]
        left_ctx = self.ctx[(join.left.schema, join.left.node)]
        left_vals = lt.values[join.left.node]
        matches = [
            i
            for i in range(lt.card[join.left.node])
            if left_ctx[i] and left_vals[i] == value
        ]
        if len(matches) != 1:
            raise QueryError(
                f"join on {join.left_path!r} does not determine a single host instance"
            )
        return matches[0]


# ---------------------------------------------------------------------------
# entry points


def oracle_evaluate(
    schemas: Mapping[str, Schema], records: Mapping[str, object], query: Query
) -> list[tuple]:
    """Evaluate a parsed query against in-memory records, one entry per schema."""
    tables = {
        name: _Tables.from_records(schemas[name], records[name])
        for name in query.schemas
    }
    oracle = _Oracle(query, tables)
    oracle.run()
    return oracle.rows()


def oracle_query(store: Store, query: Query) -> list[tuple]:
    """Evaluate a parsed query against an ingested store, bypassing the engine."""
    tables = {name: _Tables.from_store(store.data(name)) for name in query.schemas}
    oracle = _Oracle(query, tables)
    oracle.run()
    return oracle.rows()
