"""Skip-Tree: a static skip index over the schema tree.

Every schema node gets a height from its depth alone (a node is lifted to
layer ``j`` exactly when ``2**j`` divides its depth, up to the tree height
``H = ceil(log2(max_depth))``).  A node of height ``h`` keeps ``h + 1``
skip ancestors: entry 0 is its parent, entry ``j`` the nearest proper
ancestor of height at least ``j``.  Each entry also carries the composed
instance mapping from the node's space to that ancestor's space, so a bitset
can jump several nested layers in one kernel call instead of climbing them
one boundary array at a time.

The same machinery expresses multi-hop graph traversals: one hop (a counter
into an edge array plus its pointer array) is a sparse mapping, and composing
hops yields the skip counter/indicator pair for the whole chain.
"""
from __future__ import annotations

import json
import shutil
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DeliveryError, StoreError
from .delivery import drill_down, indicator_gather, indicator_scatter, roll_up
from .schema import Link, Schema
from .store import (
    K_COUNTER,
    K_INDICATOR,
    SchemaData,
    Store,
    read_column,
    write_column,
)

__all__ = [
    "IdentityMapping",
    "ContiguousMapping",
    "SparseMapping",
    "compose",
    "counter_union",
    "multi_hop",
    "set_height",
    "tree_height",
    "SkipTree",
    "build_skip_tree",
    "build_skip_structure",
    "layered_tree",
    "write_skiptree",
    "load_skiptree",
    "remove_skiptree",
    "naive_lca",
]


# ---------------------------------------------------------------------------
# instance mappings between a node's space (lower) and an ancestor's (upper)


class Mapping:
    lower_cardinality: int
    upper_cardinality: int
    nbytes: int = 0

    def up(self, bits: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def down(self, bits: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_csr(self):
        """Boolean relation as an (upper x lower) scipy CSR matrix.

        Implementations import scipy here: only index builds and
        multi-hop composition need it, and a query process that loads a
        persisted index should not pay for the import.
        """
        raise NotImplementedError


class IdentityMapping(Mapping):
    def __init__(self, cardinality: int):
        self.lower_cardinality = int(cardinality)
        self.upper_cardinality = int(cardinality)
        self.nbytes = 0

    def up(self, bits):
        return bits

    def down(self, bits):
        return bits

    def to_csr(self):
        from scipy import sparse

        return sparse.identity(self.lower_cardinality, dtype=bool, format="csr")

    def __repr__(self):
        return f"IdentityMapping({self.lower_cardinality})"


class ContiguousMapping(Mapping):
    """One-to-many fan-out described by a boundary (counter) array."""

    def __init__(self, boundaries: np.ndarray):
        self.boundaries = np.asarray(boundaries, dtype=np.int64)
        self.upper_cardinality = int(self.boundaries.size)
        self.lower_cardinality = int(self.boundaries[-1]) if self.boundaries.size else 0
        self.nbytes = int(self.boundaries.size) * 8

    def up(self, bits):
        return roll_up(bits, self.boundaries)

    def down(self, bits):
        return drill_down(bits, self.boundaries)

    def to_csr(self):
        from scipy import sparse

        indptr = np.concatenate(([0], self.boundaries))
        indices = np.arange(self.lower_cardinality, dtype=np.int64)
        data = np.ones(self.lower_cardinality, dtype=bool)
        return sparse.csr_matrix((data, indices, indptr), shape=(self.upper_cardinality, self.lower_cardinality))

    def __repr__(self):
        return f"ContiguousMapping(n={self.upper_cardinality}->{self.lower_cardinality})"


class SparseMapping(Mapping):
    """General boolean relation: each upper instance points at lower instances.

    With `boundaries`, upper instance ``i`` owns ``pointers[b[i-1]:b[i]]``;
    without, it owns exactly ``pointers[i]`` (a plain pointer array).
    """

    def __init__(self, pointers: np.ndarray, boundaries: np.ndarray | None, lower_cardinality: int):
        self.pointers = np.asarray(pointers, dtype=np.int64)
        self.boundaries = None if boundaries is None else np.asarray(boundaries, dtype=np.int64)
        self.lower_cardinality = int(lower_cardinality)
        if self.boundaries is None:
            self.upper_cardinality = int(self.pointers.size)
        else:
            self.upper_cardinality = int(self.boundaries.size)
            if self.boundaries.size and int(self.boundaries[-1]) != self.pointers.size:
                raise DeliveryError("sparse mapping: boundary end != pointer count")
        if self.pointers.size and (self.pointers.min() < 0 or self.pointers.max() >= self.lower_cardinality):
            raise DeliveryError("sparse mapping: pointer out of range")
        self.nbytes = (0 if self.boundaries is None else int(self.boundaries.size) * 8) + int(self.pointers.size) * 8

    def up(self, bits):
        gathered = indicator_gather(bits, self.pointers)
        if self.boundaries is None:
            return gathered
        return roll_up(gathered, self.boundaries)

    def down(self, bits):
        per_pointer = bits if self.boundaries is None else drill_down(bits, self.boundaries)
        return indicator_scatter(per_pointer, self.pointers, self.lower_cardinality)

    def to_csr(self):
        from scipy import sparse

        if self.boundaries is None:
            indptr = np.arange(self.pointers.size + 1, dtype=np.int64)
        else:
            indptr = np.concatenate(([0], self.boundaries))
        data = np.ones(self.pointers.size, dtype=bool)
        return sparse.csr_matrix(
            (data, self.pointers, indptr), shape=(self.upper_cardinality, self.lower_cardinality)
        )

    def __repr__(self):
        return f"SparseMapping(n={self.upper_cardinality}->{self.lower_cardinality}, nnz={self.pointers.size})"


def counter_union(parent_boundaries: np.ndarray, child_boundaries: np.ndarray) -> np.ndarray:
    """Fold two stacked counters into one spanning both layers.

    ``parent`` maps grandparent instances to parent instances, ``child`` maps
    parent instances to child instances; the result maps grandparent
    instances directly to child instances.
    """
    ends = np.asarray(parent_boundaries, dtype=np.int64)
    child = np.asarray(child_boundaries, dtype=np.int64)
    if ends.size and int(ends[-1]) != child.size:
        raise DeliveryError(
            f"counter_union: parent end {int(ends[-1])} != child counter length {child.size}"
        )
    if ends.size == 0 or child.size == 0:
        # a counter with no entries means every parent range is empty
        return np.zeros(ends.size, dtype=np.int64)
    return np.where(ends > 0, child[np.maximum(ends, 1) - 1], 0).astype(np.int64)


def compose(first: Mapping, second: Mapping) -> Mapping:
    """Stack two mappings: `first` (node to mid) then `second` (mid to top)."""
    if first.upper_cardinality != second.lower_cardinality:
        raise DeliveryError(
            f"compose: cardinality mismatch {first.upper_cardinality} != {second.lower_cardinality}"
        )
    if isinstance(first, IdentityMapping):
        return second
    if isinstance(second, IdentityMapping):
        return first
    if isinstance(first, ContiguousMapping) and isinstance(second, ContiguousMapping):
        return ContiguousMapping(counter_union(second.boundaries, first.boundaries))
    product = second.to_csr().astype(np.int64) @ first.to_csr().astype(np.int64)
    product = product.tocsr()
    product.sort_indices()
    return SparseMapping(
        pointers=product.indices.astype(np.int64),
        boundaries=product.indptr[1:].astype(np.int64),
        lower_cardinality=first.lower_cardinality,
    )


def multi_hop(hops: list[Mapping]) -> Mapping:
    """Compose graph hops (listed in traversal order) into one skip mapping.

    Each hop maps the hop's target vertex space (lower) to its source vertex
    space (upper); the result maps the final target space to the start space.
    """
    if not hops:
        raise DeliveryError("multi_hop needs at least one hop")
    acc = hops[0]
    for hop in hops[1:]:
        acc = compose(hop, acc)
    return acc


# ---------------------------------------------------------------------------
# the index


def tree_height(max_depth: int) -> int:
    """Number of skip layers above the bottom: ceil(log2(max_depth))."""
    if max_depth <= 1:
        return 0
    return int(max_depth - 1).bit_length()


def set_height(depth: int, H: int) -> int:
    """Height of a node at `depth`: one layer per power of two dividing it."""
    h = 0
    for i in range(1, H + 1):
        if depth % (2**i) == 0:
            h += 1
    return h


@dataclass
class SkipEntry:
    ancestor: int
    mapping: Mapping | None


@dataclass
class LCAResult:
    lca: int
    src_jumps: list = field(default_factory=list)  # (node, layer, mapping), bottom-up
    dst_jumps: list = field(default_factory=list)
    steps: int = 0


class SkipTree:
    """Skip index over one schema tree; nodes are referenced by id."""

    def __init__(self, parents: list, depths: list, H: int, heights: list, entries: list):
        self.parents = parents
        self.depths = depths
        self.H = H
        self.heights = heights
        self.entries = entries  # per node: list[SkipEntry], parent first

    def __len__(self) -> int:
        return len(self.parents)

    def skip_ancestors(self, node: int) -> list[int]:
        return [e.ancestor for e in self.entries[node]]

    def _lift(self, v: int, target_depth: int, jumps: list) -> int:
        """Raise `v` to `target_depth` greedily from the top layer down."""
        while self.depths[v] > target_depth:
            i = self.heights[v]
            while True:
                e = self.entries[v][i]
                if self.depths[e.ancestor] >= target_depth:
                    jumps.append((v, i, e.mapping))
                    v = e.ancestor
                    break
                i -= 1
        return v

    def find_lca(self, a: int, b: int) -> LCAResult:
        """LCA of two nodes plus the skip jumps that carry bitsets to it."""
        if a == b:
            return LCAResult(lca=a)
        src_jumps: list = []
        dst_jumps: list = []
        # align depths; the deeper side lifts to the shallower side's depth
        if self.depths[a] > self.depths[b]:
            a = self._lift(a, self.depths[b], src_jumps)
        elif self.depths[b] > self.depths[a]:
            b = self._lift(b, self.depths[a], dst_jumps)
        if a == b:
            return LCAResult(lca=a, src_jumps=src_jumps, dst_jumps=dst_jumps,
                             steps=len(src_jumps) + len(dst_jumps))
        # equal depths imply equal heights, so both sides skip synchronously
        j = self.heights[a]
        while j >= 0:
            ea, eb = self.entries[a][j], self.entries[b][j]
            if ea.ancestor != eb.ancestor:
                src_jumps.append((a, j, ea.mapping))
                dst_jumps.append((b, j, eb.mapping))
                a, b = ea.ancestor, eb.ancestor
                j = self.heights[a]
            else:
                j -= 1
        # parents coincide: one last hop on both sides lands on the LCA
        src_jumps.append((a, 0, self.entries[a][0].mapping))
        dst_jumps.append((b, 0, self.entries[b][0].mapping))
        lca = self.entries[a][0].ancestor
        return LCAResult(lca=lca, src_jumps=src_jumps, dst_jumps=dst_jumps,
                         steps=len(src_jumps) + len(dst_jumps))


def naive_lca(parents: list, a: int, b: int) -> int:
    """Reference LCA by plain parent walking."""
    seen = {a}
    cur = a
    while parents[cur] is not None:
        cur = parents[cur]
        seen.add(cur)
    cur = b
    while cur not in seen:
        cur = parents[cur]
    return cur


def _build(parents: list, depths: list, link_mappings: list | None, H: int | None = None) -> SkipTree:
    n = len(parents)
    if H is None:
        H = tree_height(max(depths) if depths else 0)
    heights = [set_height(d, H) for d in depths]
    entries: list[list[SkipEntry]] = [[] for _ in range(n)]
    for v in range(n):
        p = parents[v]
        if p is None:
            continue
        own = link_mappings[v] if link_mappings is not None else None
        entries[v].append(SkipEntry(ancestor=p, mapping=own))
        for j in range(1, heights[v] + 1):
            a = p
            m = own
            while heights[a] < j:
                if link_mappings is not None:
                    m = compose(m, link_mappings[a])
                a = parents[a]
            entries[v].append(SkipEntry(ancestor=a, mapping=m))
    return SkipTree(parents=parents, depths=depths, H=H, heights=heights, entries=entries)


def build_skip_structure(parents: list) -> SkipTree:
    """Build the index over a bare tree (no instance data, no mappings)."""
    depths = [0] * len(parents)
    for v in range(1, len(parents)):
        if parents[v] is None:
            raise DeliveryError(f"node {v} has no parent")
        if parents[v] >= v:
            raise DeliveryError("parents must precede children")
        depths[v] = depths[parents[v]] + 1
    return _build(parents, depths, None)


def _link_mapping(data: SchemaData, node_id: int) -> Mapping:
    node = data.schema.node(node_id)
    if node.link is Link.COUNTER:
        return ContiguousMapping(data.counters[node_id].boundaries)
    if node.link is Link.INDICATOR:
        ind = data.indicators[node_id]
        return SparseMapping(pointers=ind.pointers, boundaries=None, lower_cardinality=data.cardinality[node_id])
    return IdentityMapping(data.cardinality[node_id])


def _data_links(data: SchemaData) -> tuple[list, list, list]:
    nodes = data.schema.nodes
    parents = [n.parent for n in nodes]
    depths = [n.depth for n in nodes]
    link_mappings = [None if n.parent is None else _link_mapping(data, n.id) for n in nodes]
    return parents, depths, link_mappings


def build_skip_tree(data: SchemaData) -> SkipTree:
    """Build the index, with instance mappings, for one ingested schema."""
    return _build(*_data_links(data))


def layered_tree(data: SchemaData) -> SkipTree:
    """The height-0 tree of one ingested schema, for delivery without an index.

    Each node's only entry is its own link mapping, so nothing is composed
    and scipy is not imported.  The tree is built once and kept on `data`;
    new data for the schema is a new `SchemaData` with no tree yet.
    """
    if data.layered_tree is None:
        data.layered_tree = _build(*_data_links(data), H=0)
    return data.layered_tree


# ---------------------------------------------------------------------------
# persistence


def _index_dir(store_path, schema_name: str) -> Path:
    return Path(store_path) / schema_name / "_skiptree"


def write_skiptree(tree: SkipTree, store_path, schema: Schema) -> None:
    """Persist one schema's index under ``<store>/<schema>/_skiptree/``."""
    root = _index_dir(store_path, schema.name)
    root.mkdir(parents=True, exist_ok=True)
    doc: dict = {"H": tree.H, "nodes": {}}
    for v in range(len(tree)):
        path = schema.path_of(v)
        node_doc: dict = {"height": tree.heights[v], "entries": []}
        for j, entry in enumerate(tree.entries[v]):
            e_doc: dict = {"ancestor": schema.path_of(entry.ancestor)}
            m = entry.mapping
            if isinstance(m, IdentityMapping):
                e_doc["kind"] = "identity"
                e_doc["lower"] = m.lower_cardinality
            elif isinstance(m, ContiguousMapping):
                e_doc["kind"] = "contiguous"
                fname = f"{path}.{j}.counter.col"
                write_column(root / fname, K_COUNTER, m.upper_cardinality, m.boundaries.astype("<i8").tobytes())
                e_doc["counter"] = fname
            elif isinstance(m, SparseMapping):
                e_doc["kind"] = "sparse"
                e_doc["lower"] = m.lower_cardinality
                pname = f"{path}.{j}.pointer.col"
                write_column(root / pname, K_INDICATOR, m.pointers.size, m.pointers.astype("<i8").tobytes())
                e_doc["pointer"] = pname
                if m.boundaries is not None:
                    cname = f"{path}.{j}.counter.col"
                    write_column(root / cname, K_COUNTER, m.upper_cardinality, m.boundaries.astype("<i8").tobytes())
                    e_doc["counter"] = cname
            else:
                raise StoreError(f"cannot persist mapping {m!r}")
            node_doc["entries"].append(e_doc)
        doc["nodes"][path] = node_doc
    (root / "skiptree.json").write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def load_skiptree(store: Store, schema_name: str) -> SkipTree:
    """Load a persisted index; raises StoreError when none was built."""
    if store.path is None:
        raise StoreError("store was not opened from disk; build the index in memory instead")
    schema = store.schema(schema_name)
    root = _index_dir(store.path, schema_name)
    mpath = root / "skiptree.json"
    if not mpath.exists():
        raise StoreError(f"{schema_name!r} has no skip index (run the index step first)")
    doc = json.loads(mpath.read_text(encoding="utf-8"))
    path_to_id = {schema.path_of(n.id): n.id for n in schema.nodes}
    parents = [n.parent for n in schema.nodes]
    depths = [n.depth for n in schema.nodes]
    heights = [0] * len(schema.nodes)
    entries: list[list[SkipEntry]] = [[] for _ in schema.nodes]
    for path, node_doc in doc["nodes"].items():
        v = path_to_id[path]
        heights[v] = node_doc["height"]
        for e_doc in node_doc["entries"]:
            mapping: Mapping
            if e_doc["kind"] == "identity":
                mapping = IdentityMapping(e_doc["lower"])
            elif e_doc["kind"] == "contiguous":
                kind_code, _, payload = read_column(root / e_doc["counter"])
                if kind_code != K_COUNTER:
                    raise StoreError(f"{e_doc['counter']}: expected a counter payload")
                mapping = ContiguousMapping(np.frombuffer(payload, dtype="<i8").copy())
            else:
                kind_code, _, payload = read_column(root / e_doc["pointer"])
                if kind_code != K_INDICATOR:
                    raise StoreError(f"{e_doc['pointer']}: expected a pointer payload")
                pointers = np.frombuffer(payload, dtype="<i8").copy()
                boundaries = None
                if "counter" in e_doc:
                    _, _, cpayload = read_column(root / e_doc["counter"])
                    boundaries = np.frombuffer(cpayload, dtype="<i8").copy()
                mapping = SparseMapping(pointers=pointers, boundaries=boundaries, lower_cardinality=e_doc["lower"])
            entries[v].append(SkipEntry(ancestor=path_to_id[e_doc["ancestor"]], mapping=mapping))
    return SkipTree(parents=parents, depths=depths, H=doc["H"], heights=heights, entries=entries)


def remove_skiptree(store_path, schema_name: str) -> None:
    """Delete one schema's persisted index, if it has one.

    An index is composed from the schema's arrays, so it must go when
    they are rewritten.
    """
    root = _index_dir(store_path, schema_name)
    if root.exists():
        shutil.rmtree(root)
