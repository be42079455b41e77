"""Skip-Tree: a static skip index over the schema tree.

Every schema node gets a height from its depth alone (a node is lifted to
layer ``j`` exactly when ``2**j`` divides its depth, up to the tree height
``H = ceil(log2(max_depth))``).  A node of height ``h`` keeps ``h + 1``
skip ancestors: entry 0 is its parent, entry ``j`` the nearest proper
ancestor of height at least ``j``.  Each entry also carries the composed
instance mapping from the node's space to that ancestor's space, so a bitset
can jump several nested layers in one kernel call instead of climbing them
one boundary array at a time.

Every mapping is one `Mapping`: a counter, a pointer array, both, or
neither (the identity).  The same machinery expresses multi-hop graph
traversals: one hop (a counter into an edge array plus its pointer array) is
a mapping with both arrays, and composing hops, a boolean sparse product done
in numpy, yields the skip counter/pointer pair for the whole chain.
"""
from __future__ import annotations

import json
import shutil
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
    "Mapping",
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
    """Boolean relation from an upper space (an ancestor's instances) to a
    lower one (a node's instances), kept as at most two arrays.

    ``boundaries`` alone is a counter: upper instance ``i`` owns the lower
    range ``[b[i-1], b[i])``.  ``pointers`` alone is a pointer array: upper
    instance ``i`` owns lower instance ``pointers[i]``.  Both together are a
    composed hop: upper instance ``i`` owns ``pointers[b[i-1]:b[i]]``.  With
    neither, the mapping is the identity.
    """

    def __init__(self, lower_cardinality: int, boundaries=None, pointers=None):
        self.lower_cardinality = int(lower_cardinality)
        self.boundaries = None if boundaries is None else np.asarray(boundaries, dtype=np.int64)
        self.pointers = None if pointers is None else np.asarray(pointers, dtype=np.int64)
        # the entries the counter ranges over: the pointers, else the lower instances
        entries = self.lower_cardinality if self.pointers is None else int(self.pointers.size)
        if self.boundaries is None:
            self.upper_cardinality = entries
        else:
            self.upper_cardinality = int(self.boundaries.size)
            end = int(self.boundaries[-1]) if self.boundaries.size else 0
            if end != entries:
                raise DeliveryError(f"mapping: counter end {end} != {entries} entries")
        if self.pointers is not None and self.pointers.size and (
            self.pointers.min() < 0 or self.pointers.max() >= self.lower_cardinality
        ):
            raise DeliveryError("mapping: pointer out of range")
        self.nbytes = 8 * sum(int(a.size) for a in (self.boundaries, self.pointers) if a is not None)

    @property
    def is_identity(self) -> bool:
        return self.boundaries is None and self.pointers is None

    def up(self, bits: np.ndarray) -> np.ndarray:
        if self.pointers is not None:
            bits = indicator_gather(bits, self.pointers)
        if self.boundaries is not None:
            bits = roll_up(bits, self.boundaries)
        return bits

    def down(self, bits: np.ndarray) -> np.ndarray:
        if self.boundaries is not None:
            bits = drill_down(bits, self.boundaries)
        if self.pointers is not None:
            bits = indicator_scatter(bits, self.pointers, self.lower_cardinality)
        return bits

    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The relation in CSR form: row starts/ends and lower instance per entry."""
        if self.boundaries is None:
            indptr = np.arange(self.upper_cardinality + 1, dtype=np.int64)
        else:
            indptr = np.concatenate(([0], self.boundaries))
        indices = np.arange(self.lower_cardinality, dtype=np.int64) if self.pointers is None else self.pointers
        return indptr, indices

    def __repr__(self):
        arrays = [name for name in ("boundaries", "pointers") if getattr(self, name) is not None]
        return f"Mapping({self.upper_cardinality}->{self.lower_cardinality}, {'+'.join(arrays) or 'identity'})"


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
    if first.is_identity:
        return second
    if second.is_identity:
        return first
    if first.pointers is None and second.pointers is None:
        return Mapping(first.lower_cardinality, boundaries=counter_union(second.boundaries, first.boundaries))
    # boolean CSR product: expand each top's mids into the mids' lower
    # entries, then keep each distinct (top, lower) pair once, in order
    top_ptr, mids = second._rows()
    mid_ptr, lowers = first._rows()
    # (top, mid) entry k expands to positions mid_ptr[mids[k]] .. + counts[k] of `lowers`
    counts = np.diff(mid_ptr)[mids]
    ends = np.cumsum(counts)
    entry = np.arange(int(ends[-1]) if ends.size else 0) + np.repeat(mid_ptr[mids] - (ends - counts), counts)
    tops = np.repeat(np.arange(second.upper_cardinality, dtype=np.int64), np.diff(top_ptr))
    stride = max(first.lower_cardinality, 1)
    keys = np.sort(np.repeat(tops, counts) * stride + lowers[entry])
    # np.unique costs ~20x this sort and mask at 33k keys (numpy 2.4)
    pairs = keys[np.diff(keys, prepend=-1) != 0]
    boundaries = np.cumsum(np.bincount(pairs // stride, minlength=second.upper_cardinality))
    return Mapping(first.lower_cardinality, boundaries=boundaries, pointers=pairs % stride)


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
    link = data.schema.node(node_id).link
    lower = data.cardinality[node_id]
    if link is Link.COUNTER:
        return Mapping(lower, boundaries=data.counters[node_id].boundaries)
    if link is Link.INDICATOR:
        return Mapping(lower, pointers=data.indicators[node_id].pointers)
    return Mapping(lower)


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

    Each node's only entry is its own link mapping, so nothing is composed.
    The tree is built once and kept on `data`;
    new data for the schema is a new `SchemaData` with no tree yet.
    """
    if data.layered_tree is None:
        data.layered_tree = _build(*_data_links(data), H=0)
    return data.layered_tree


# ---------------------------------------------------------------------------
# persistence


def _index_dir(store_path, schema_name: str) -> Path:
    return Path(store_path) / schema_name / "_skiptree"


def _kind(m: Mapping) -> str:
    """The label ``skiptree.json`` gives a mapping; loading does not read it."""
    if m.pointers is not None:
        return "sparse"
    return "identity" if m.boundaries is None else "contiguous"


def _read_array(root: Path, e_doc: dict, key: str, kind_code: int) -> np.ndarray | None:
    """The entry's ``counter`` or ``pointer`` array, or None if it has none."""
    fname = e_doc.get(key)
    if fname is None:
        return None
    found, _, payload = read_column(root / fname)
    if found != kind_code:
        raise StoreError(f"{fname}: expected a {key} payload")
    return np.frombuffer(payload, dtype="<i8").copy()


def write_skiptree(tree: SkipTree, store_path, schema: Schema) -> None:
    """Persist one schema's index under ``<store>/<schema>/_skiptree/``."""
    root = _index_dir(store_path, schema.name)
    root.mkdir(parents=True, exist_ok=True)
    doc: dict = {"H": tree.H, "nodes": {}}
    for v in range(len(tree)):
        path = schema.path_of(v)
        node_doc: dict = {"height": tree.heights[v], "entries": []}
        for j, entry in enumerate(tree.entries[v]):
            m = entry.mapping
            e_doc: dict = {"ancestor": schema.path_of(entry.ancestor), "kind": _kind(m)}
            if m.boundaries is None or m.pointers is not None:
                # a counter alone implies its lower cardinality: its last boundary
                e_doc["lower"] = m.lower_cardinality
            for key, code, array in (("counter", K_COUNTER, m.boundaries), ("pointer", K_INDICATOR, m.pointers)):
                if array is not None:
                    fname = f"{path}.{j}.{key}.col"
                    write_column(root / fname, code, array.size, array.astype("<i8").tobytes())
                    e_doc[key] = fname
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
            boundaries = _read_array(root, e_doc, "counter", K_COUNTER)
            pointers = _read_array(root, e_doc, "pointer", K_INDICATOR)
            lower = e_doc["lower"] if "lower" in e_doc else int(boundaries[-1]) if boundaries.size else 0
            mapping = Mapping(lower, boundaries=boundaries, pointers=pointers)
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
