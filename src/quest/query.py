"""Query documents and their resolved in-memory form.

A query arrives as JSON::

    {
      "from": ["ads", "people"],
      "filters": [{"path": "ads.Campaign.WordSet.Word", "op": "=", "value": "wA"}],
      "fetch": ["ads.Email"],
      "joins": [{"left": "ads.Campaign.Clicks.Person", "right": "people.PID"}],
      "graph_paths": [["social.Person.know#.#Person"]]
    }

``parse_query`` resolves every path against the store's schemas, type-checks
predicate operands, validates the join graph, and returns a ``Query`` holding
``Site`` objects (schema name, node id, and the indicator leaves crossed on
the way for paths that walk through a graph cycle).  The composite tree that
splices joined schemas together lives here too, because both the optimizer
and the engine route over it.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Mapping, Sequence

from .errors import QueryError
from .schema import Kind, Link, Schema, SchemaNode

__all__ = [
    "Site",
    "Predicate",
    "FetchSpec",
    "JoinSpec",
    "GraphPath",
    "Query",
    "CompositeTree",
    "parse_query",
    "OPERATORS",
]

OPERATORS = ("=", "!=", "<", "<=", ">", ">=", "in")

_ORDER_OPS = ("<", "<=", ">", ">=")

_QUERY_KEYS = {"from", "filters", "fetch", "joins", "graph_paths"}
_FILTER_KEYS = {"path", "op", "value", "selectivity"}
_JOIN_KEYS = {"left", "right", "unique"}


class Site:
    """A resolved path: a node in a schema, plus the indicator leaves the
    path teleported through (in order) when it re-entered a graph cycle."""

    __slots__ = ("schema", "node", "chain")

    def __init__(self, schema: str, node: int, chain: tuple[int, ...] = ()):
        self.schema = schema
        self.node = node
        self.chain = chain

    def __eq__(self, other):
        if not isinstance(other, Site):
            return NotImplemented
        return (self.schema, self.node, self.chain) == (other.schema, other.node, other.chain)


class Predicate:
    __slots__ = ("site", "op", "value", "selectivity", "path", "graph_path")

    def __init__(self, site: Site, op: str, value: Any, selectivity: float | None = None, path: str = ""):
        self.site = site
        self.op = op
        self.value = value
        self.selectivity = selectivity
        self.path = path
        self.graph_path: int | None = None  # index into Query.graph_paths, set by parse


class FetchSpec:
    __slots__ = ("site", "path")

    def __init__(self, site: Site, path: str = ""):
        self.site = site
        self.path = path


class JoinSpec:
    __slots__ = ("left", "right", "unique", "left_path", "right_path")

    def __init__(self, left: Site, right: Site, unique: bool = False, left_path: str = "", right_path: str = ""):
        self.left = left
        self.right = right
        self.unique = unique
        self.left_path = left_path
        self.right_path = right_path


class GraphPath:
    """A declared hop list.  Hop k ends at an indicator leaf; its chain is
    the terminals of the hops before it, so the hops telescope."""

    __slots__ = ("hops", "schema", "anchor", "members")

    def __init__(self, hops: list[Site], schema: str = "", anchor: int = 0):
        self.hops = hops
        self.schema = schema
        self.anchor = anchor  # node the pattern constrains (parent of the first edge array)
        self.members: list[int] = []  # filter indices attached here


class Query:
    __slots__ = ("schemas", "filters", "fetch", "joins", "graph_paths", "host", "composite", "deepest_fetch")

    def __init__(
        self,
        schemas: list[str],
        filters: list[Predicate],
        fetch: list[FetchSpec],
        joins: list[JoinSpec],
        graph_paths: list[GraphPath],
        host: str,
        composite: CompositeTree,
    ):
        self.schemas = schemas
        self.filters = filters
        self.fetch = fetch
        self.joins = joins
        self.graph_paths = graph_paths
        self.host = host
        self.composite = composite
        self.deepest_fetch: Site | None = None  # set by parse


# ---------------------------------------------------------------------------
# path resolution


def _components(text: str) -> list[str]:
    if not isinstance(text, str) or not text.strip():
        raise QueryError("path must be a non-empty string")
    parts = text.split(".")
    if any(not p for p in parts):
        raise QueryError(f"path {text!r} has an empty component")
    return parts


def _is_indicator_leaf(node: SchemaNode) -> bool:
    return node.kind is Kind.INDICATOR


def resolve_path(schemas: Mapping[str, Schema], text: str) -> Site:
    """Resolve a dotted path to a Site.

    The first component names a schema; the root's own name may follow but
    is optional.  When the walk lands on an indicator leaf and components
    remain, it continues under the leaf's target node and records the leaf
    in the chain.
    """
    parts = _components(text)
    schema_name = parts[0]
    if schema_name not in schemas:
        raise QueryError(f"path {text!r}: schema {schema_name!r} is not listed in 'from'")
    schema = schemas[schema_name]
    rest = parts[1:]
    if rest and rest[0] == schema.root.name and schema.child(schema.root.id, rest[0]) is None:
        rest = rest[1:]
    current = schema.root
    chain: list[int] = []
    for comp in rest:
        child = schema.child(current.id, comp)
        if child is None and _is_indicator_leaf(current):
            chain.append(current.id)
            current = schema.node(current.target)
            child = schema.child(current.id, comp)
        if child is None:
            raise QueryError(
                f"unknown path {text!r}: no field {comp!r} under {schema.path_of(current.id)!r}"
            )
        current = child
    return Site(schema_name, current.id, tuple(chain))


def _check_operand(node: SchemaNode, op: str, value: Any, path: str) -> None:
    prim = node.primitive
    if op == "in":
        if not isinstance(value, list) or not value:
            raise QueryError(f"filter on {path!r}: 'in' expects a non-empty list")
        for item in value:
            _check_scalar(prim, item, path)
        return
    if op in _ORDER_OPS and prim != "number":
        raise QueryError(f"filter on {path!r}: {op!r} applies to number columns only")
    _check_scalar(prim, value, path)


def _check_scalar(prim: str | None, value: Any, path: str) -> None:
    if prim == "number":
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif prim == "string":
        ok = isinstance(value, str)
    elif prim == "boolean":
        ok = isinstance(value, bool)
    else:
        ok = False
    if not ok:
        raise QueryError(
            f"filter on {path!r}: operand {value!r} does not match the {prim} column"
        )


# ---------------------------------------------------------------------------
# composite tree

Key = tuple[str, int]


class CompositeTree:
    """The join-expanded tree: every from-schema's nodes, with each guest
    root re-parented under the left key node of the join that pulls it in.

    Keys are ``(schema_name, node_id)`` pairs.  Depths, preorder indexes and
    subtree intervals are recomputed over the spliced shape, so LCA routing
    and the wandering constraint work across models.  The tree depends
    only on the schemas' shapes, so each LCA, route and functional set
    is worked out on first use and kept; the tree is kept on its host
    `Schema`, one per join shape (`parse_query`), so every query of that
    shape shares them.
    """

    def __init__(self, schemas: Mapping[str, Schema], host: str, joins: Sequence[JoinSpec]):
        self.schemas = dict(schemas)
        self.host = host
        self.join_for: dict[str, JoinSpec] = {j.right.schema: j for j in joins}
        guests_at: dict[Key, list[str]] = {}
        for join in joins:
            guests_at.setdefault((join.left.schema, join.left.node), []).append(join.right.schema)

        self._order: list[Key] = []
        self._parent: dict[Key, Key | None] = {}
        self._depth: dict[Key, int] = {}
        self._index: dict[Key, int] = {}
        self._end: dict[Key, int] = {}
        self._paths: dict[tuple[Key, Key], tuple] = {}  # `_path` of each pair
        self.functional: dict[Key, frozenset[Key]] = {}  # `_functional_set` of each start

        def emit(schema_name: str, node: SchemaNode, parent: Key | None, depth: int) -> None:
            key = (schema_name, node.id)
            self._parent[key] = parent
            self._depth[key] = depth
            self._index[key] = len(self._order)
            self._order.append(key)
            schema = self.schemas[schema_name]
            for cid in node.children:
                emit(schema_name, schema.node(cid), key, depth + 1)
            for guest in guests_at.get(key, ()):
                emit(guest, self.schemas[guest].root, key, depth + 1)
            self._end[key] = len(self._order)

        emit(host, self.schemas[host].root, None, 0)
        if len(self._order) != sum(len(s) for s in self.schemas.values()):
            missing = sorted(set(self.schemas) - {k[0] for k in self._order})
            raise QueryError(
                f"schema(s) {', '.join(missing)} are not connected to the host "
                f"schema through joins"
            )

    def __len__(self) -> int:
        return len(self._order)

    def keys(self) -> list[Key]:
        return list(self._order)

    def node(self, key: Key) -> SchemaNode:
        return self.schemas[key[0]].node(key[1])

    def parent_of(self, key: Key) -> Key | None:
        return self._parent[key]

    def depth(self, key: Key) -> int:
        return self._depth[key]

    def index(self, key: Key) -> int:
        return self._index[key]

    def interval(self, key: Key) -> tuple[int, int]:
        return self._index[key], self._end[key]

    def contains(self, ancestor: Key, key: Key) -> bool:
        lo, hi = self.interval(ancestor)
        return lo <= self._index[key] < hi

    def is_join_root(self, key: Key) -> bool:
        schema_name, node_id = key
        return schema_name != self.host and node_id == self.schemas[schema_name].root.id

    def ancestors(self, key: Key) -> Iterable[Key]:
        """Yield key itself, then each ancestor up to the composite root."""
        cur: Key | None = key
        while cur is not None:
            yield cur
            cur = self._parent[cur]

    def lca(self, a: Key, b: Key) -> Key:
        return self._path(a, b)[1]

    def route(self, src: Key, dst: Key) -> list[Key]:
        """Every node on the tree path src -> lca -> dst, inclusive; the
        list is kept, so callers must not change it."""
        return self._path(src, dst)[0]

    def passes_vertex(self, src: Key, dst: Key) -> bool:
        """Whether the route src -> dst passes a shared vertex record (a
        node linked to its parent by a pointer array) after leaving src."""
        return self._path(src, dst)[2]

    def _path(self, a: Key, b: Key) -> tuple[list[Key], Key, bool]:
        """The route a -> lca -> b, the lca, and whether the route passes
        a vertex record; made on first use and kept."""
        kept = self._paths.get((a, b))
        if kept is not None:
            return kept
        pair = (a, b)
        up: list[Key] = []
        down: list[Key] = []
        da, db = self._depth[a], self._depth[b]
        while da > db:
            up.append(a)
            a = self._parent[a]  # type: ignore[assignment]
            da -= 1
        while db > da:
            down.append(b)
            b = self._parent[b]  # type: ignore[assignment]
            db -= 1
        while a != b:
            up.append(a)
            down.append(b)
            a = self._parent[a]  # type: ignore[assignment]
            b = self._parent[b]  # type: ignore[assignment]
        path = up + [a] + down[::-1]
        vertex = any(self.node(k).link is Link.INDICATOR for k in path[1:])
        kept = self._paths[pair] = (path, a, vertex)
        return kept


# ---------------------------------------------------------------------------
# parsing


def _as_document(doc: Any) -> dict:
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise QueryError(f"query is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise QueryError("query document must be a JSON object")
    unknown = set(doc) - _QUERY_KEYS
    if unknown:
        raise QueryError(f"unknown query key(s): {', '.join(sorted(unknown))}")
    return doc


def _from_list(doc: dict) -> list[str]:
    raw = doc.get("from")
    if isinstance(raw, str):
        raw = [raw]
    if not isinstance(raw, list) or not raw or not all(isinstance(s, str) for s in raw):
        raise QueryError("'from' must be a schema name or a list of schema names")
    if len(set(raw)) != len(raw):
        raise QueryError("'from' lists a schema twice")
    return raw


def _resolve_host(schemas: list[str], joins: list[JoinSpec]) -> str:
    rights: list[str] = []
    for join in joins:
        if join.left.schema == join.right.schema:
            raise QueryError("join sides must name different schemas")
        rights.append(join.right.schema)
    for name in rights:
        if rights.count(name) > 1:
            raise QueryError(f"schema {name!r} appears as the right side of two joins")
    hosts = [s for s in schemas if s not in rights]
    if len(hosts) != 1:
        raise QueryError(
            "joins must leave exactly one schema (the host) that never appears "
            f"on a right side; got {hosts or 'none'}"
        )
    return hosts[0]


def _parse_filters(doc: dict, schemas: Mapping[str, Schema]) -> list[Predicate]:
    raw = doc.get("filters", [])
    if not isinstance(raw, list):
        raise QueryError("'filters' must be a list")
    out: list[Predicate] = []
    for entry in raw:
        if not isinstance(entry, dict) or not {"path", "op", "value"} <= set(entry):
            raise QueryError("each filter needs 'path', 'op' and 'value'")
        unknown = set(entry) - _FILTER_KEYS
        if unknown:
            raise QueryError(f"unknown filter key(s): {', '.join(sorted(unknown))}")
        path, op = entry["path"], entry["op"]
        if op not in OPERATORS:
            raise QueryError(f"bad operator {op!r}; expected one of {', '.join(OPERATORS)}")
        site = resolve_path(schemas, path)
        node = schemas[site.schema].node(site.node)
        if not node.has_values:
            raise QueryError(f"cannot filter on {path!r}: it has no value column")
        _check_operand(node, op, entry["value"], path)
        sel = entry.get("selectivity")
        if sel is not None:
            if not isinstance(sel, (int, float)) or isinstance(sel, bool) or not 0 <= sel <= 1:
                raise QueryError(f"filter on {path!r}: selectivity must be in [0, 1]")
            sel = float(sel)
        out.append(Predicate(site=site, op=op, value=entry["value"], selectivity=sel, path=path))
    return out


def _parse_fetch(doc: dict, schemas: Mapping[str, Schema]) -> list[FetchSpec]:
    raw = doc.get("fetch")
    if not isinstance(raw, list) or not raw or not all(isinstance(p, str) for p in raw):
        raise QueryError("'fetch' must be a non-empty list of paths")
    out: list[FetchSpec] = []
    for path in raw:
        site = resolve_path(schemas, path)
        if site.chain:
            raise QueryError(f"fetch path {path!r} walks through a graph cycle; fetch "
                             "the vertex field directly instead")
        node = schemas[site.schema].node(site.node)
        if not node.has_values:
            raise QueryError(f"fetch path {path!r} must name a value column")
        out.append(FetchSpec(site=site, path=path))
    return out


def _parse_joins(doc: dict, schemas: Mapping[str, Schema]) -> list[JoinSpec]:
    raw = doc.get("joins", [])
    if not isinstance(raw, list):
        raise QueryError("'joins' must be a list")
    out: list[JoinSpec] = []
    for entry in raw:
        if not isinstance(entry, dict) or not {"left", "right"} <= set(entry):
            raise QueryError("each join needs 'left' and 'right' paths")
        unknown = set(entry) - _JOIN_KEYS
        if unknown:
            raise QueryError(f"unknown join key(s): {', '.join(sorted(unknown))}")
        left = resolve_path(schemas, entry["left"])
        right = resolve_path(schemas, entry["right"])
        if left.chain or right.chain:
            raise QueryError("join keys cannot walk through a graph cycle")
        lnode = schemas[left.schema].node(left.node)
        rnode = schemas[right.schema].node(right.node)
        for path, node in ((entry["left"], lnode), (entry["right"], rnode)):
            if not node.has_values:
                raise QueryError(f"join key {path!r} must name a value column")
        if lnode.primitive != rnode.primitive:
            raise QueryError(
                f"join keys {entry['left']!r} and {entry['right']!r} have different "
                f"types ({lnode.primitive} vs {rnode.primitive})"
            )
        # A right key that sits below an expanded-vertex record lives in the
        # vertex instance space, not the space of the records that reach it;
        # splicing there would leave the guest root with no well defined
        # parent chain.
        rschema = schemas[right.schema]
        anc = rnode.parent
        while anc is not None:
            parent = rschema.node(anc)
            if parent.kind is Kind.RECORD and parent.link is Link.INDICATOR:
                raise QueryError(
                    f"join key {entry['right']!r} sits inside a shared vertex "
                    "record and cannot anchor a join"
                )
            anc = parent.parent
        unique = entry.get("unique", False)
        if not isinstance(unique, bool):
            raise QueryError("join 'unique' must be a boolean")
        out.append(JoinSpec(left=left, right=right, unique=unique,
                            left_path=entry["left"], right_path=entry["right"]))
    return out


def _parse_graph_paths(doc: dict, schemas: Mapping[str, Schema]) -> list[GraphPath]:
    raw = doc.get("graph_paths", [])
    if not isinstance(raw, list):
        raise QueryError("'graph_paths' must be a list of hop lists")
    out: list[GraphPath] = []
    for hops_raw in raw:
        if not isinstance(hops_raw, list) or not hops_raw:
            raise QueryError("each graph path must be a non-empty list of hop paths")
        hops: list[Site] = []
        for text in hops_raw:
            site = resolve_path(schemas, text)
            node = schemas[site.schema].node(site.node)
            if not _is_indicator_leaf(node):
                raise QueryError(f"graph hop {text!r} must end at an indicator leaf")
            hops.append(site)
        schema_name = hops[0].schema
        if any(h.schema != schema_name for h in hops):
            raise QueryError("all hops of a graph path must stay in one schema")
        for k, hop in enumerate(hops):
            want = tuple(h.node for h in hops[:k])
            if hop.chain != want:
                raise QueryError(
                    f"graph hop {hops_raw[k]!r} does not extend the previous hop"
                )
        schema = schemas[schema_name]
        edge = schema.node(schema.node(hops[0].node).parent)
        out.append(GraphPath(hops=hops, schema=schema_name, anchor=edge.parent))
    return out


def _attach_chain_filters(filters: list[Predicate], paths: list[GraphPath]) -> None:
    for i, pred in enumerate(filters):
        if not pred.site.chain:
            continue
        matches = [
            k for k, gp in enumerate(paths)
            if gp.schema == pred.site.schema
            and tuple(h.node for h in gp.hops[: len(pred.site.chain)]) == pred.site.chain
        ]
        if not matches:
            raise QueryError(
                f"filter path {pred.path!r} walks a graph cycle but matches no "
                "declared graph path"
            )
        if len(matches) > 1:
            raise QueryError(
                f"filter path {pred.path!r} matches more than one declared graph path"
            )
        pred.graph_path = matches[0]
        paths[matches[0]].members.append(i)


def _identity_reachable(schema: Schema, node_id: int) -> bool:
    """True when every root instance owns exactly one instance of the node."""
    nid = node_id
    while True:
        node = schema.node(nid)
        if node.parent is None:
            return True
        if node.link in (Link.COUNTER, Link.INDICATOR):
            return False
        nid = node.parent


def _functional_set(composite: CompositeTree, start: Key) -> frozenset[Key]:
    """Keys whose instance is determined by an instance of ``start``;
    worked out on first use and kept on the composite.

    Walking up is functional through identity and counter links (every
    instance has one parent) and through unique-key joins, but not out of a
    vertex record: many edges share one vertex.  Walking down is functional
    through identity links and through indicator pointers (an edge names its
    one target), but not into an array.
    """
    kept = composite.functional.get(start)
    if kept is not None:
        return kept
    allowed: set[Key] = set()
    for anc in composite.ancestors(start):
        allowed.add(anc)
        node = composite.node(anc)
        if node.kind is Kind.RECORD and node.link is Link.INDICATOR:
            break
        if composite.is_join_root(anc):
            join = composite.join_for[anc[0]]
            # Crossing upward needs one key instance per guest root (the key
            # on an identity chain) and one left match per key value (unique).
            if not join.unique or not _identity_reachable(
                composite.schemas[anc[0]], join.right.node
            ):
                break
    grow = list(allowed)
    while grow:
        key = grow.pop()
        schema = composite.schemas[key[0]]
        for cid in schema.node(key[1]).children:
            child = schema.node(cid)
            ckey = (key[0], child.id)
            if ckey in allowed or child.link is Link.COUNTER:
                continue
            allowed.add(ckey)
            grow.append(ckey)
    kept = composite.functional[start] = frozenset(allowed)
    return kept


def _validate_fetch(query: Query) -> None:
    """Pick the fetch node that defines the output cardinality: the deepest
    one whose instances functionally determine every other fetched value.
    If no fetch node does, the combination is ambiguous."""
    composite = query.composite
    keys = [(f.site.schema, f.site.node) for f in query.fetch]
    for key in sorted(set(keys), key=lambda k: (-composite.depth(k), composite.index(k))):
        allowed = _functional_set(composite, key)
        if all(k in allowed for k in keys):
            query.deepest_fetch = next(
                f.site for f, k in zip(query.fetch, keys) if k == key
            )
            return
    raise QueryError(
        "ambiguous fetch combination: no fetched node determines all the "
        f"others ({', '.join(f.path for f in query.fetch)})"
    )


def parse_query(schemas: Mapping[str, Schema], doc: Any) -> Query:
    """Parse and validate a query document against the given schemas.

    ``schemas`` maps every available schema name to its Schema; the query's
    'from' list selects which of them participate.
    """
    doc = _as_document(doc)
    from_list = _from_list(doc)
    for name in from_list:
        if name not in schemas:
            raise QueryError(f"unknown schema {name!r}")
    visible = {name: schemas[name] for name in from_list}

    joins = _parse_joins(doc, visible)
    host = _resolve_host(from_list, joins)
    filters = _parse_filters(doc, visible)
    fetch = _parse_fetch(doc, visible)
    graph_paths = _parse_graph_paths(doc, visible)
    _attach_chain_filters(filters, graph_paths)

    # the tree depends on its join shape alone: keep one per shape on the
    # host schema, keyed by schema nodes and objects, never by document
    shape = (host, *((j.left.schema, j.left.node, j.right.schema, visible[j.right.schema], j.right.node, j.unique)
                     for j in joins))
    composites = visible[host].composites
    composite = composites.get(shape)
    if composite is None:
        composite = composites[shape] = CompositeTree(visible, host, joins)
    query = Query(
        schemas=from_list,
        filters=filters,
        fetch=fetch,
        joins=joins,
        graph_paths=graph_paths,
        host=host,
        composite=composite,
    )
    _validate_fetch(query)
    return query
