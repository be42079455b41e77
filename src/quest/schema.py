"""Schema model: one nested tree shape for tables, documents, and graphs.

A schema is a tree of named nodes.  Record nodes group fields, Array nodes
introduce repetition, Primitive nodes carry values, and Indicator nodes are
leaf references back into another node's instance space.  Tables are depth-1
trees (a Record root with one Primitive child per column), documents map
directly, and property graphs are expanded into a tree by `expand_graph_schema`.

Every node also knows how its instances relate to its parent's instances (the
`link` attribute): Array nodes fan out through a boundary array, vertex Record
nodes placed under a graph edge map many-to-one through a pointer array, and
everything else is one-to-one with its parent.
"""
from __future__ import annotations

from enum import Enum

from .errors import SchemaError

PRIMITIVE_KINDS = ("string", "number", "boolean", "null")


class Kind(str, Enum):
    RECORD = "record"
    ARRAY = "array"
    PRIMITIVE = "primitive"
    INDICATOR = "indicator"


class Link(str, Enum):
    """Instance mapping from a node's parent down to the node itself."""

    ROOT = "root"            # no parent; cardinality set by the data source
    IDENTITY = "identity"    # exactly one instance per parent instance
    COUNTER = "counter"      # one-to-many fan-out via a boundary array
    INDICATOR = "indicator"  # many-to-one via a pointer array (graph vertices)


class SchemaNode:
    __slots__ = ("id", "name", "kind", "parent", "depth", "children", "primitive", "target", "link", "model_tag")

    def __init__(
        self,
        id: int,
        name: str,
        kind: Kind,
        parent: int | None,
        depth: int,
        primitive: str | None = None,
        target: int | None = None,
        link: Link = Link.IDENTITY,
        model_tag: str = "document",
    ):
        self.id = id
        self.name = name
        self.kind = kind
        self.parent = parent
        self.depth = depth
        self.children: list[int] = []
        # Value kind for Primitive nodes and for Array leaves whose elements are
        # scalars (a repeated primitive field is a single Array node with values).
        self.primitive = primitive
        self.target = target  # Indicator leaves: node id the pointers aim at
        self.link = link
        self.model_tag = model_tag

    @property
    def has_values(self) -> bool:
        """True when the node owns a value column (primitives, leaf arrays)."""
        return self.primitive is not None and self.kind in (Kind.PRIMITIVE, Kind.ARRAY)


class SubtreeInterval:
    __slots__ = ("node", "lo", "hi")

    def __init__(self, node: int, lo: int, hi: int):
        self.node = node
        self.lo = lo
        self.hi = hi  # inclusive preorder bounds

    def contains(self, other_preorder: int) -> bool:
        return self.lo <= other_preorder <= self.hi


class Schema:
    """A validated schema tree.  Node ids are assigned in preorder."""

    def __init__(self, name: str, nodes: list[SchemaNode], model_tag: str = "document"):
        self.name = name
        self.nodes = nodes
        self.model_tag = model_tag
        # the composite tree of each join shape hosted here, made by
        # `quest.query.parse_query` on first use and shared by every later parse
        self.composites: dict[tuple, object] = {}
        self._validate()
        self._index()

    # -- structure ---------------------------------------------------------

    @property
    def root(self) -> SchemaNode:
        return self.nodes[0]

    def node(self, node_id: int) -> SchemaNode:
        return self.nodes[node_id]

    def __len__(self) -> int:
        return len(self.nodes)

    def max_depth(self) -> int:
        return max(n.depth for n in self.nodes)

    def preorder_index(self, node_id: int) -> int:
        return self._preorder[node_id]

    def subtree_interval(self, node_id: int) -> SubtreeInterval:
        lo, hi = self._intervals[node_id]
        return SubtreeInterval(node_id, lo, hi)

    def ancestors(self, node_id: int) -> list[int]:
        """Proper ancestors from parent up to the root."""
        out = []
        cur = self.nodes[node_id].parent
        while cur is not None:
            out.append(cur)
            cur = self.nodes[cur].parent
        return out

    def path_of(self, node_id: int) -> str:
        parts = []
        cur: int | None = node_id
        while cur is not None:
            parts.append(self.nodes[cur].name)
            cur = self.nodes[cur].parent
        return ".".join(reversed(parts))

    def child(self, node_id: int, name: str) -> SchemaNode | None:
        """The child of a node with the given name, if it has one."""
        return self._named[node_id].get(name)

    def resolve(self, parts: list[str]) -> SchemaNode:
        """Resolve a dotted path (components below the root) to a node."""
        cur = self.root
        for part in parts:
            nxt = self.child(cur.id, part)
            if nxt is None:
                raise SchemaError(f"no field {part!r} under {self.path_of(cur.id)!r}")
            cur = nxt
        return cur

    # -- validation and indexing -------------------------------------------

    def _validate(self) -> None:
        if not self.nodes:
            raise SchemaError("schema has no nodes")
        if self.nodes[0].kind is not Kind.RECORD:
            raise SchemaError("schema root must be a record")
        for n in self.nodes:
            if n.kind is Kind.PRIMITIVE:
                if n.children:
                    raise SchemaError(f"primitive node {n.name!r} cannot have children")
                if n.primitive not in PRIMITIVE_KINDS:
                    raise SchemaError(f"unknown primitive kind {n.primitive!r} on {n.name!r}")
            elif n.kind is Kind.INDICATOR:
                if n.children:
                    raise SchemaError(f"indicator node {n.name!r} cannot have children")
                if n.target is None:
                    raise SchemaError(f"indicator node {n.name!r} has no resolved target")
            elif n.kind is Kind.ARRAY:
                if n.primitive is not None:
                    if n.children:
                        raise SchemaError(
                            f"array {n.name!r} carries element values and cannot have children"
                        )
                    if n.primitive not in PRIMITIVE_KINDS:
                        raise SchemaError(f"unknown primitive kind {n.primitive!r} on {n.name!r}")
                elif not n.children:
                    raise SchemaError(f"array {n.name!r} needs children or a primitive element kind")
            siblings = [self.nodes[c].name for c in n.children]
            if len(set(siblings)) != len(siblings):
                raise SchemaError(f"duplicate field names under {n.name!r}")
        for n in self.nodes[1:]:
            if n.parent is None:
                raise SchemaError(f"node {n.name!r} is detached from the tree")

    def _index(self) -> None:
        order: list[int] = []

        def walk(nid: int) -> None:
            order.append(nid)
            for cid in self.nodes[nid].children:
                walk(cid)

        walk(0)
        if len(order) != len(self.nodes):
            raise SchemaError("schema tree does not cover all nodes")
        self._preorder = [0] * len(self.nodes)
        for pos, nid in enumerate(order):
            self._preorder[nid] = pos
        # subtree interval = [own preorder, own preorder + subtree size - 1]
        sizes = [1] * len(self.nodes)
        for nid in reversed(order):
            for cid in self.nodes[nid].children:
                sizes[nid] += sizes[cid]
        self._intervals = [
            (self._preorder[nid], self._preorder[nid] + sizes[nid] - 1) for nid in range(len(self.nodes))
        ]
        self.preorder = order
        self._named = [{self.nodes[c].name: self.nodes[c] for c in n.children} for n in self.nodes]


# ---------------------------------------------------------------------------
# manifest parsing


def _derive_link(kind: Kind, parent: SchemaNode | None, declared: str | None) -> Link:
    if parent is None:
        return Link.ROOT
    if declared is not None:
        try:
            link = Link(declared)
        except ValueError:
            raise SchemaError(f"unknown parent link {declared!r}") from None
        if link is Link.INDICATOR and kind is not Kind.RECORD:
            raise SchemaError("only record nodes may declare an indicator parent link")
        return link
    if kind is Kind.ARRAY:
        return Link.COUNTER
    return Link.IDENTITY


def parse_schema(manifest: dict) -> Schema:
    """Build a Schema from a manifest document.

    The manifest is ``{"name": ..., "model": ..., "root": node}`` where each
    node is ``{"name", "kind", "primitive"?, "target"?, "link"?, "children"?}``.
    Indicator targets are dotted node paths from the root (or a bare name when
    it is unique in the tree).
    """
    if not isinstance(manifest, dict) or "root" not in manifest or "name" not in manifest:
        raise SchemaError("manifest needs 'name' and 'root'")
    model = manifest.get("model", "document")
    if not isinstance(model, str) or not isinstance(manifest["name"], str):
        raise SchemaError("manifest 'name' and 'model' must be strings")
    nodes: list[SchemaNode] = []
    pending_targets: list[tuple[int, str]] = []

    def build(doc: dict, parent: SchemaNode | None, depth: int) -> int:
        if not isinstance(doc, dict) or not isinstance(doc.get("name"), str) or "kind" not in doc:
            raise SchemaError(f"schema node needs a 'name' string and a 'kind': {doc!r:.80}")
        children = doc.get("children") or []
        if not isinstance(children, list):
            raise SchemaError(f"schema node {doc['name']!r}: 'children' must be a list")
        try:
            kind = Kind(doc["kind"])
        except ValueError:
            raise SchemaError(f"unknown node kind {doc['kind']!r}") from None
        nid = len(nodes)
        node = SchemaNode(
            id=nid,
            name=doc["name"],
            kind=kind,
            parent=None if parent is None else parent.id,
            depth=depth,
            primitive=doc.get("primitive"),
            link=_derive_link(kind, parent, doc.get("link")),
            model_tag=model,
        )
        nodes.append(node)
        if parent is not None:
            parent.children.append(nid)
        if kind is Kind.INDICATOR:
            if "target" not in doc:
                raise SchemaError(f"indicator {node.name!r} is missing its target")
            pending_targets.append((nid, str(doc["target"])))
        for child in children:
            build(child, node, depth + 1)
        return nid

    build(manifest["root"], None, 0)

    for nid, ref in pending_targets:
        nodes[nid].target = _resolve_target(nodes, ref)

    return Schema(manifest["name"], nodes, model_tag=model)


def _resolve_target(nodes: list[SchemaNode], ref: str) -> int:
    parts = ref.split(".")
    if len(parts) > 1 or parts[0] == nodes[0].name:
        # dotted path from (and including) the root name
        if parts[0] != nodes[0].name:
            raise SchemaError(f"indicator target path {ref!r} must start at the root")
        cur = nodes[0]
        for part in parts[1:]:
            nxt = next((nodes[c] for c in cur.children if nodes[c].name == part), None)
            if nxt is None:
                raise SchemaError(f"indicator target {ref!r} does not resolve")
            cur = nxt
        return cur.id
    matches = [n.id for n in nodes if n.name == ref]
    if len(matches) != 1:
        raise SchemaError(f"indicator target {ref!r} does not resolve to a unique node")
    return matches[0]


def serialize_schema(schema: Schema) -> dict:
    """Inverse of `parse_schema`; the result parses back to an equal tree."""

    def emit(node: SchemaNode) -> dict:
        doc: dict = {"name": node.name, "kind": node.kind.value}
        if node.primitive is not None:
            doc["primitive"] = node.primitive
        if node.kind is Kind.INDICATOR:
            doc["target"] = schema.path_of(node.target)
        if node.link is Link.INDICATOR:
            doc["link"] = "indicator"
        if node.children:
            doc["children"] = [emit(schema.node(c)) for c in node.children]
        return doc

    return {"name": schema.name, "model": schema.model_tag, "root": emit(schema.root)}


# ---------------------------------------------------------------------------
# graph expansion


def expand_graph_schema(
    vertices: list[dict],
    edges: list[dict],
    root_label: str,
    name: str = "graph",
) -> Schema:
    """Expand a property-graph declaration into a nested schema tree.

    Each vertex label reachable from `root_label` gets exactly one Record node,
    placed where a depth-first walk over the edge declarations first reaches
    it.  Every further occurrence becomes an Indicator leaf pointing back at
    that Record; self-referencing edges therefore always end in a leaf.  Edge
    labels become Array nodes named ``<label>#``, target nodes ``#<label>``.
    """
    by_label = {v["label"]: v for v in vertices}
    if root_label not in by_label:
        raise SchemaError(f"root label {root_label!r} is not a declared vertex")
    for e in edges:
        if e["from"] not in by_label or e["to"] not in by_label:
            raise SchemaError(f"edge {e['label']!r} references an undeclared vertex label")

    nodes: list[SchemaNode] = []
    placed: dict[str, int] = {}

    def add(name_, kind, parent, depth, primitive=None, link=Link.IDENTITY, target=None):
        nid = len(nodes)
        nodes.append(
            SchemaNode(
                id=nid,
                name=name_,
                kind=kind,
                parent=parent,
                depth=depth,
                primitive=primitive,
                link=link,
                target=target,
                model_tag="graph",
            )
        )
        if parent is not None:
            nodes[parent].children.append(nid)
        return nid

    def place_vertex(label: str, node_name: str, parent: int | None, depth: int, link: Link) -> int:
        rid = add(node_name, Kind.RECORD, parent, depth, link=link)
        placed[label] = rid
        for prop in by_label[label].get("properties", []):
            add(prop["name"], Kind.PRIMITIVE, rid, depth + 1, primitive=prop["primitive"])
        for e in edges:
            if e["from"] != label:
                continue
            eid = add(f"{e['label']}#", Kind.ARRAY, rid, depth + 1, link=Link.COUNTER)
            for prop in e.get("properties", []):
                add(prop["name"], Kind.PRIMITIVE, eid, depth + 2, primitive=prop["primitive"])
            tgt = e["to"]
            if tgt in placed:
                add(f"#{tgt}", Kind.INDICATOR, eid, depth + 2, target=placed[tgt])
            else:
                place_vertex(tgt, f"#{tgt}", eid, depth + 2, link=Link.INDICATOR)
        return rid

    place_vertex(root_label, root_label, None, 0, Link.ROOT)

    skipped = [e["label"] for e in edges if e["from"] not in placed]
    if skipped:
        import logging  # its only use: importing it costs every command

        logging.getLogger(__name__).warning(
            "graph expansion from %r leaves edge labels unreachable: %s", root_label, skipped
        )

    return Schema(name, nodes, model_tag="graph")
