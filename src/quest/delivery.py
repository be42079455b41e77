"""Payload delivery: moving bitsets between nested layers.

Bitsets are plain numpy boolean arrays, one bit per instance of a node.  The
four kernels below are the only ways bits ever change address space:

* `roll_up` / `drill_down` cross a one-to-many boundary (a counter),
* `indicator_gather` / `indicator_scatter` cross a many-to-one pointer array.

`deliver` routes a bitset from one node to another through their lowest
common ancestor in the jumps of a Skip-Tree: a skip index whose jumps cross
several layers at once, or the height-0 tree whose jumps cross one boundary
array each.
"""
from __future__ import annotations

import numpy as np

from .errors import DeliveryError
from .schema import Link, Schema

__all__ = [
    "roll_up",
    "drill_down",
    "indicator_gather",
    "indicator_scatter",
    "new_bits",
    "ones_bits",
    "positions_of",
    "deliver",
]


def new_bits(n: int, positions=None) -> np.ndarray:
    bits = np.zeros(int(n), dtype=bool)
    if positions is not None:
        bits[np.asarray(positions, dtype=np.int64)] = True
    return bits


def ones_bits(n: int) -> np.ndarray:
    return np.ones(int(n), dtype=bool)


def positions_of(bits: np.ndarray) -> np.ndarray:
    return np.flatnonzero(bits)


# `roll_up` marks the parents of the set children when fewer than one
# child in this many is set, and takes a prefix count over every child
# otherwise.  Measured on a 2-vCPU x86 VM (numpy 2.4, 20k-950k children,
# 1-50 children per parent): the two cost the same at 10-15% density.
_SPARSE_ROLL_UP = 10


def roll_up(bits: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Child bits -> parent bits: a parent is set iff any of its children is.

    `boundaries[i]` is the exclusive end of parent i's children, so parents
    with empty ranges come out unset.
    """
    boundaries = np.asarray(boundaries, dtype=np.int64)
    if boundaries.size == 0:
        return np.zeros(0, dtype=bool)
    if bits.shape[0] != int(boundaries[-1]):
        raise DeliveryError(
            f"roll_up: bitset length {bits.shape[0]} != counter end {int(boundaries[-1])}"
        )
    if np.count_nonzero(bits) * _SPARSE_ROLL_UP < bits.shape[0]:
        out = np.zeros(boundaries.size, dtype=bool)
        out[np.searchsorted(boundaries, np.flatnonzero(bits), side="right")] = True
        return out
    cum = np.concatenate(([0], np.cumsum(bits, dtype=np.int64)))
    starts = np.concatenate(([0], boundaries[:-1]))
    return (cum[boundaries] - cum[starts]) > 0


def drill_down(bits: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Parent bits -> child bits: every child inherits its parent's bit."""
    boundaries = np.asarray(boundaries, dtype=np.int64)
    if bits.shape[0] != boundaries.size:
        raise DeliveryError(
            f"drill_down: bitset length {bits.shape[0]} != counter length {boundaries.size}"
        )
    counts = np.diff(boundaries, prepend=0)
    return np.repeat(bits, counts)


def indicator_gather(target_bits: np.ndarray, pointers: np.ndarray) -> np.ndarray:
    """Target bits -> pointer-side bits: entry i takes target_bits[pointers[i]]."""
    return target_bits[np.asarray(pointers, dtype=np.int64)]


def indicator_scatter(source_bits: np.ndarray, pointers: np.ndarray, target_cardinality: int) -> np.ndarray:
    """Pointer-side bits -> target bits: a target is set iff some set entry points at it."""
    pointers = np.asarray(pointers, dtype=np.int64)
    if source_bits.shape[0] != pointers.shape[0]:
        raise DeliveryError(
            f"indicator_scatter: bitset length {source_bits.shape[0]} != pointer count {pointers.shape[0]}"
        )
    out = np.zeros(int(target_cardinality), dtype=bool)
    out[pointers[source_bits]] = True
    return out


_LINK_SUFFIX = {Link.COUNTER: "#counter", Link.INDICATOR: "#indicator"}


def _read_key(schema: Schema, node_id: int, level: int, mapping) -> str | None:
    """Metadata key a jump from `node_id` reads, or None if it reads nothing.

    A level-0 jump reads the node's own counter or pointer array, even an
    empty one; an identity link reads nothing.  A higher jump reads a
    composed skip mapping, and an empty one is not read.
    """
    if level == 0:
        suffix = _LINK_SUFFIX.get(schema.node(node_id).link)
        return None if suffix is None else f"{schema.path_of(node_id)}{suffix}"
    return f"skip/{schema.path_of(node_id)}#{level}" if mapping.nbytes else None


def deliver(store, schema_name: str, src: int, dst: int, bits: np.ndarray, index=None):
    """Move `bits` from node `src`'s instance space to node `dst`'s.

    The route runs through the two nodes' lowest common ancestor in the
    jumps of `index.find_lca`.  Without `index` it is the schema's
    height-0 Skip-Tree, whose jumps cross one boundary array each.
    Returns the delivered bits; when ``src == dst`` that is `bits` itself.
    """
    data = store.data(schema_name)
    schema = data.schema
    if bits.shape[0] != data.cardinality[src]:
        raise DeliveryError(
            f"deliver: bitset length {bits.shape[0]} != cardinality "
            f"{data.cardinality[src]} of {schema.path_of(src)}"
        )
    if src == dst:
        return bits
    if index is None:
        from .skiptree import layered_tree  # skiptree imports this module's kernels

        index = layered_tree(data)

    res = index.find_lca(src, dst)
    route = [(jump, "up") for jump in res.src_jumps]
    route += [(jump, "down") for jump in reversed(res.dst_jumps)]
    for (node_id, level, mapping), way in route:
        key = _read_key(schema, node_id, level, mapping)
        if key is not None:
            store.io.record_metadata(f"{schema_name}/{key}", mapping.nbytes)
            store.io.bitset_ops += 1
        bits = mapping.up(bits) if way == "up" else mapping.down(bits)
    return bits
