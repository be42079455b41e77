"""Payload delivery: moving bitsets between nested layers.

Bitsets are plain numpy boolean arrays, one bit per instance of a node.  The
four moves below are the only ways bits ever change address space:

* `roll_up` / `drill_down` cross a one-to-many boundary (a counter),
* `indicator_gather` / `indicator_scatter` cross a many-to-one pointer array.

A `Mapping` holds one counter, one pointer array or both, and is the only
in-memory form of either: the store holds each of its arrays as one, and
the Skip-Tree composes them.  Its constructor checks the arrays, once.
A counter picks its move kernel once, from its own boundaries.  A wide
counter, whose non-empty ranges hold `WIDE_RANGE` entries or more on
average, moves by whole ranges: a roll-up is one `np.logical_or.reduceat`
over the non-empty range starts, a drill-down one `np.repeat` over the
range lengths.  A narrower counter moves by one gather through its owner
index, the upper instance of every entry (`owner_index`): a roll-up
scatters the owners of the set entries, a drill-down reads each entry's
owner bit.  The ranges and the owner depend on the store alone, so a
`Mapping` makes them on its first move and keeps them, and a warm query
repeats none of that work.  An all-ones input moves nothing: a
drill-down or a pointer gather gives all-ones, a roll-up the owners of
non-empty ranges and a scatter the image (the lower instances some
pointer names), each kept read-only by the mapping on first use, as
`owner` is.
`roll_up` / `drill_down` take a bare counter and build the owner per call.

`deliver` routes a bitset from one node to another through their lowest
common ancestor in the jumps of a Skip-Tree: a skip index whose jumps cross
several layers at once, or the height-0 tree whose jumps cross one boundary
array each.  The tree keeps each route, so `deliver` only records the
reads and makes the moves.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DeliveryError, StoreError

__all__ = [
    "Mapping",
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


# The average entries per non-empty range from which a counter moves by
# whole ranges.  Over 100k entries (numpy 2.4.6, 2 vCPUs), a roll-up by
# `reduceat` over 96-entry ranges took 11-24 us against 24-215 us for the
# owner gather, and a drill-down by `repeat` 8 us against 72-77 us; over
# 10-entry ranges `reduceat` took 210-370 us against 40-215 us, and over
# 5-entry ranges 400-600 us against 40-290 us.
WIDE_RANGE = 32


def new_bits(n: int, positions=None) -> np.ndarray:
    bits = np.zeros(int(n), dtype=bool)
    if positions is not None:
        bits[np.asarray(positions, dtype=np.int64)] = True
    return bits


def ones_bits(n: int) -> np.ndarray:
    return np.ones(int(n), dtype=bool)


def positions_of(bits: np.ndarray) -> np.ndarray:
    return np.flatnonzero(bits)


def _read_only(bits: np.ndarray) -> np.ndarray:
    bits.flags.writeable = False
    return bits


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


class Mapping:
    """Boolean relation from an upper space (an ancestor's instances) to a
    lower one (a node's instances), kept as at most two arrays.

    ``boundaries`` alone is a counter: upper instance ``i`` owns the lower
    range ``[b[i-1], b[i])``.  ``pointers`` alone is a pointer array: upper
    instance ``i`` owns lower instance ``pointers[i]``.  Both together are a
    composed hop: upper instance ``i`` owns ``pointers[b[i-1]:b[i]]``.  With
    neither, the mapping is the identity.

    The constructor raises `StoreError` unless the counter never decreases
    and ends at the number of entries it ranges over, and every pointer
    is a lower instance.  A counter's moves go through its `_ranges` when
    it is wide, else through its `owner` index; either is made on the
    first move and kept for the mapping's life.
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
            if self.boundaries.size and (self.boundaries[0] < 0 or (np.diff(self.boundaries) < 0).any()):
                raise StoreError("counter decreases")
            end = int(self.boundaries[-1]) if self.boundaries.size else 0
            if end != entries:
                raise StoreError(f"counter ends at {end}, not at its {entries} entries")
        if self.pointers is not None and self.pointers.size:
            lo, hi = int(self.pointers.min()), int(self.pointers.max())
            if lo < 0 or hi >= self.lower_cardinality:
                raise StoreError(f"pointers span [{lo}, {hi}], outside the {self.lower_cardinality} instances")
        self.nbytes = 8 * sum(int(a.size) for a in (self.boundaries, self.pointers) if a is not None)

    @property
    def is_identity(self) -> bool:
        return self.boundaries is None and self.pointers is None

    @cached_property
    def owner(self) -> np.ndarray:
        """Read-only: the upper instance of each counter entry (`owner_index`)."""
        return owner_index(self.boundaries)

    @cached_property
    def _full_up(self) -> np.ndarray:
        """Read-only: `up` of all-ones bits.  A pointer gather gives
        all-ones and a roll-up the owners of non-empty ranges."""
        if self.boundaries is None:
            return _read_only(ones_bits(self.upper_cardinality))
        return _read_only(np.diff(self.boundaries, prepend=0) > 0)

    @cached_property
    def _full_down(self) -> np.ndarray:
        """Read-only: `down` of all-ones bits.  A drill-down gives all-ones
        and a scatter the image: the lower instances some pointer names."""
        if self.pointers is None:
            return _read_only(ones_bits(self.lower_cardinality))
        return _read_only(new_bits(self.lower_cardinality, self.pointers))

    @cached_property
    def _ranges(self) -> tuple | None:
        """A wide counter's ranges (see `WIDE_RANGE`), else None:
        ``(filled, starts, lengths)``, the non-empty upper instances (None
        when every range is), their range starts, and every range's length."""
        lengths = np.diff(self.boundaries, prepend=0)
        filled = np.flatnonzero(lengths)
        if not filled.size or int(self.boundaries[-1]) < WIDE_RANGE * filled.size:
            return None
        starts = (self.boundaries - lengths)[filled]
        return (None if filled.size == lengths.size else filled), starts, lengths

    def _roll_up(self, bits: np.ndarray) -> np.ndarray:
        ranges = self._ranges
        if ranges is None:
            return owner_roll_up(bits, self.owner, self.upper_cardinality)
        end = int(self.boundaries[-1])
        if bits.shape[0] != end:
            raise DeliveryError(f"roll_up: bitset length {bits.shape[0]} != counter end {end}")
        filled, starts, _ = ranges
        hit = np.logical_or.reduceat(bits, starts)
        if filled is None:
            return hit
        out = np.zeros(self.upper_cardinality, dtype=bool)
        out[filled] = hit
        return out

    def _drill_down(self, bits: np.ndarray) -> np.ndarray:
        ranges = self._ranges
        if ranges is None:
            return owner_drill_down(bits, self.owner, self.upper_cardinality)
        if bits.shape[0] != self.upper_cardinality:
            raise DeliveryError(
                f"drill_down: bitset length {bits.shape[0]} != counter length {self.upper_cardinality}"
            )
        return np.repeat(bits, ranges[2])

    def up(self, bits: np.ndarray) -> np.ndarray:
        if bits.shape[0] == self.lower_cardinality and bits.all():
            return self._full_up
        if self.pointers is not None:
            bits = indicator_gather(bits, self.pointers)
        if self.boundaries is not None:
            bits = self._roll_up(bits)
        return bits

    def down(self, bits: np.ndarray) -> np.ndarray:
        if bits.shape[0] == self.upper_cardinality and bits.all():
            return self._full_down
        if self.boundaries is not None:
            bits = self._drill_down(bits)
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


def deliver(store, schema_name: str, src: int, dst: int, bits: np.ndarray, index=None):
    """Move `bits` from node `src`'s instance space to node `dst`'s.

    The route runs through the two nodes' lowest common ancestor in the
    jumps of `index`, which keeps it (`SkipTree.route`).  Without `index`
    it is the schema's height-0 Skip-Tree, whose jumps cross one boundary
    array each.  Returns the delivered bits; when ``src == dst`` that is
    `bits` itself.
    """
    data = store.data(schema_name)
    if bits.shape[0] != data.cardinality[src]:
        raise DeliveryError(
            f"deliver: bitset length {bits.shape[0]} != cardinality "
            f"{data.cardinality[src]} of {data.schema.path_of(src)}"
        )
    if src == dst:
        return bits
    if index is None:
        from .skiptree import layered_tree  # skiptree imports this module

        index = layered_tree(data)
    io = store.io
    for move, key, nbytes in index.route(src, dst):
        io.record_metadata(key, nbytes)
        io.bitset_ops += 1
        bits = move(bits)
    return bits
