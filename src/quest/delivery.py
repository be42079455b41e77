"""Payload delivery: moving bitsets between nested layers.

Bitsets are plain numpy boolean arrays, one bit per instance of a node.  The
four moves below are the only ways bits ever change address space:

* `roll_up` / `drill_down` cross a one-to-many boundary (a counter),
* `indicator_gather` / `indicator_scatter` cross a many-to-one pointer array.

A counter move is one gather through the counter's owner index, the upper
instance of every entry (`owner_index`): a roll-up scatters the owners of
the set entries, a drill-down reads each entry's owner bit.  The owner
depends on the store alone, so a Skip-Tree `Mapping` builds it on its first
move and keeps it, and a warm query repeats none of that work.
`roll_up` / `drill_down` take a bare counter and build the owner per call.

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
    "owner_index",
    "owner_roll_up",
    "owner_drill_down",
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


def owner_index(boundaries: np.ndarray) -> np.ndarray:
    """Counter entry -> the upper instance whose range holds it.

    `boundaries[i]` is the exclusive end of upper instance i's range, so
    an empty range owns no entry.  The result is read-only: a `Mapping`
    builds it once and every later move through the counter shares it.
    """
    boundaries = np.asarray(boundaries, dtype=np.int64)
    owner = np.repeat(np.arange(boundaries.size, dtype=np.intp), np.diff(boundaries, prepend=0))
    owner.flags.writeable = False
    return owner


def owner_roll_up(bits: np.ndarray, owner: np.ndarray, n_upper: int) -> np.ndarray:
    """Entry bits -> upper bits through `owner_index`: set iff some entry is."""
    if bits.shape[0] != owner.size:
        raise DeliveryError(f"roll_up: bitset length {bits.shape[0]} != counter end {owner.size}")
    out = np.zeros(int(n_upper), dtype=bool)
    out[owner[np.flatnonzero(bits)]] = True
    return out


def owner_drill_down(bits: np.ndarray, owner: np.ndarray, n_upper: int) -> np.ndarray:
    """Upper bits -> entry bits through `owner_index`: each entry takes its owner's bit."""
    if bits.shape[0] != n_upper:
        raise DeliveryError(f"drill_down: bitset length {bits.shape[0]} != counter length {n_upper}")
    return bits[owner]


def roll_up(bits: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Child bits -> parent bits: a parent is set iff any of its children is.

    `boundaries[i]` is the exclusive end of parent i's children, so parents
    with empty ranges come out unset.
    """
    boundaries = np.asarray(boundaries, dtype=np.int64)
    return owner_roll_up(bits, owner_index(boundaries), boundaries.size)


def drill_down(bits: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Parent bits -> child bits: every child inherits its parent's bit."""
    boundaries = np.asarray(boundaries, dtype=np.int64)
    return owner_drill_down(bits, owner_index(boundaries), boundaries.size)


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
