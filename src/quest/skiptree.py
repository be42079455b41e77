"""Skip-Tree: a static skip index over the schema tree.

Every schema node gets a height from its depth alone (a node is lifted to
layer ``j`` exactly when ``2**j`` divides its depth, up to the tree height
``H = ceil(log2(max_depth))``).  A node of height ``h`` keeps ``h + 1``
skip ancestors: entry 0 is its parent, entry ``j`` the nearest proper
ancestor of height at least ``j``.  Each entry also carries the instance
mapping from the node's space to that ancestor's space.  Where the jump
crosses several counter or pointer arrays that mapping is their
composition, made from the store's arrays on the jump's first use, so a
bitset jumps several nested layers in one kernel call instead of climbing
them one boundary array at a time; where it crosses one, it is that
array, as the store holds it.

Every mapping is one `quest.delivery.Mapping`: a counter, a pointer array,
both, or neither (the identity).  The same machinery expresses multi-hop graph
traversals: one hop (a counter into an edge array plus its pointer array) is
a mapping with both arrays, and composing hops, a boolean sparse product done
in numpy, yields the skip counter/pointer pair for the whole chain.

An index is a pure function of its schema's arrays: `build_skip_tree`
makes one per `SchemaData` on first use and keeps it there, and none is
persisted.
"""
from __future__ import annotations

import json
import shutil
from functools import reduce
from pathlib import Path

import numpy as np

from .delivery import Mapping
from .errors import DeliveryError, StoreError
from .schema import Link, Schema
from .store import SchemaData, Store

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
    "naive_lca",
]


# ---------------------------------------------------------------------------
# composing instance mappings


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


class LCAResult:
    __slots__ = ("lca", "src_jumps", "dst_jumps", "steps")

    def __init__(self, lca: int, src_jumps: list | None = None, dst_jumps: list | None = None, steps: int = 0):
        self.lca = lca
        self.src_jumps = [] if src_jumps is None else src_jumps  # (node, layer, mapping), bottom-up
        self.dst_jumps = [] if dst_jumps is None else dst_jumps
        self.steps = steps


class SkipTree:
    """Skip index over one schema tree; nodes are referenced by id.

    `jumps[v][j]` is node v's level-j jump: its ancestor, and the nodes
    whose real (counter or pointer) links it crosses.  `mapping(v, j)` is
    its instance mapping: the composition of those links when it crosses
    two or more, made on the jump's first use and kept in `mappings`;
    else its one link's own Mapping from `links`, or node v's identity,
    which every tree over one `SchemaData` shares with its `layered_tree`.
    `links` may be a function, called on the first mapping asked for.
    """

    def __init__(self, parents: list, depths: list, real: list, links=None, H: int | None = None):
        self.parents = parents
        self.depths = depths
        self.H = tree_height(max(depths, default=0)) if H is None else H
        self.heights = [set_height(d, self.H) for d in depths]
        self.links = links
        self.jumps: list[list[tuple[int, tuple]]] = [[] for _ in parents]
        for v, p in enumerate(parents):
            if p is None:
                continue
            a, crossed = p, (v,) if real[v] else ()
            self.jumps[v].append((a, crossed))
            for j in range(1, self.heights[v] + 1):
                while self.heights[a] < j:
                    crossed += (a,) if real[a] else ()
                    a = parents[a]
                self.jumps[v].append((a, crossed))
        # filled on a miss; `_lift` and `find_lca` read it on every delivery
        self.mappings: list[list[Mapping | None]] = [[None] * len(row) for row in self.jumps]

    def __len__(self) -> int:
        return len(self.parents)

    def mapping(self, v: int, j: int) -> Mapping | None:
        """Node v's level-j mapping, composed on its first use."""
        m = self.mappings[v][j]
        if m is None:
            if callable(self.links):
                self.links = self.links()
            if self.links is None:  # a bare structure carries no mappings
                return None
            crossed = self.jumps[v][j][1]
            if len(crossed) > 1:
                m = reduce(compose, [self.links[u] for u in crossed])
            else:
                m = self.links[(crossed or (v,))[0]]
            self.mappings[v][j] = m
        return m

    def skip_ancestors(self, node: int) -> list[int]:
        return [a for a, _ in self.jumps[node]]

    def _lift(self, v: int, target_depth: int, jumps: list) -> int:
        """Raise `v` to `target_depth` greedily from the top layer down."""
        jumps_of, mappings = self.jumps, self.mappings
        while self.depths[v] > target_depth:
            i = self.heights[v]
            while True:
                a = jumps_of[v][i][0]
                if self.depths[a] >= target_depth:
                    jumps.append((v, i, mappings[v][i] or self.mapping(v, i)))
                    v = a
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
        jumps, mappings = self.jumps, self.mappings
        j = self.heights[a]
        while j >= 0:
            pa, pb = jumps[a][j][0], jumps[b][j][0]
            if pa != pb:
                src_jumps.append((a, j, mappings[a][j] or self.mapping(a, j)))
                dst_jumps.append((b, j, mappings[b][j] or self.mapping(b, j)))
                a, b = pa, pb
                j = self.heights[a]
            else:
                j -= 1
        # parents coincide: one last hop on both sides lands on the LCA
        src_jumps.append((a, 0, mappings[a][0] or self.mapping(a, 0)))
        dst_jumps.append((b, 0, mappings[b][0] or self.mapping(b, 0)))
        return LCAResult(lca=jumps[a][0][0], src_jumps=src_jumps, dst_jumps=dst_jumps,
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


def build_skip_structure(parents: list) -> SkipTree:
    """Build the index over a bare tree (no instance data, no mappings)."""
    depths = [0] * len(parents)
    for v in range(1, len(parents)):
        if parents[v] is None:
            raise DeliveryError(f"node {v} has no parent")
        if parents[v] >= v:
            raise DeliveryError("parents must precede children")
        depths[v] = depths[parents[v]] + 1
    return SkipTree(parents, depths, [False] * len(parents))


def _schema_tree(schema: Schema, links, H: int | None = None) -> SkipTree:
    nodes = schema.nodes
    real = [n.link in (Link.COUNTER, Link.INDICATOR) for n in nodes]
    return SkipTree([n.parent for n in nodes], [n.depth for n in nodes], real, links, H)


def layered_tree(data: SchemaData) -> SkipTree:
    """The height-0 tree of one ingested schema, for delivery without an index.

    Each node's only entry is its own link: the store's counter or
    pointer array Mapping, else an identity.  Every other tree over
    `data` uses these same links.  The tree is built once and kept on
    `data`; new data for the schema is a new `SchemaData` with no tree yet.
    """
    if data.layered_tree is None:
        arrays = {Link.COUNTER: data.counters, Link.INDICATOR: data.indicators}
        links = [
            None if n.parent is None
            else arrays[n.link][n.id] if n.link in arrays
            else Mapping(data.cardinality[n.id])
            for n in data.schema.nodes
        ]
        data.layered_tree = _schema_tree(data.schema, links, H=0)
    return data.layered_tree


def build_skip_tree(data: SchemaData) -> SkipTree:
    """The index of one ingested schema, built on the first call and kept
    on `data` like its `layered_tree`, so every caller shares its
    compositions.  While the arrays are on disk its links are fetched on
    the first mapping asked for, so building it reads no column file;
    arrays in memory are linked at once, since a tree referring back to
    `data` would keep both alive until the cyclic collector runs."""
    if data.skip_tree is None:
        links = layered_tree(data).links if data.loaded else lambda: layered_tree(data).links
        data.skip_tree = _schema_tree(data.schema, links)
    return data.skip_tree


# ---------------------------------------------------------------------------
# the stamp of the index format, which only the benchmark's set-up writes and
# checks (queries never look there); retiring it is a benchmark change

SKIPTREE_DIR = "_skiptree"
SKIPTREE_FORMAT = {"format_version": 2}


def write_skiptree(tree: SkipTree, store_path, schema: Schema) -> None:
    """Replace ``<store>/<schema>/_skiptree/`` with the stamp; `tree` is not read."""
    root = Path(store_path) / schema.name / SKIPTREE_DIR
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    (root / "skiptree.json").write_text(json.dumps(SKIPTREE_FORMAT) + "\n", encoding="utf-8")


def load_skiptree(store: Store, schema_name: str) -> SkipTree:
    """`build_skip_tree` of the schema's data, once its stamp is checked:
    a missing, damaged or other one raises StoreError."""
    if store.path is None:
        raise StoreError("store was not opened from disk; use build_skip_tree instead")
    mpath = store.path / schema_name / SKIPTREE_DIR / "skiptree.json"
    try:
        found = json.loads(mpath.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        found = exc
    if found != SKIPTREE_FORMAT:
        raise StoreError(f"{mpath}: unusable skip index stamp ({found}), not {json.dumps(SKIPTREE_FORMAT)}")
    return build_skip_tree(store.data(schema_name))
