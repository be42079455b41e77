"""Columnar store: value columns plus the offset arrays that encode nesting.

Every instance-bearing node owns exactly one column file:

* Primitive nodes store their values (with a validity bitmap for nulls).
  A string column stores codes into a sorted per-column dictionary of
  its distinct values (nulls hold ``""``).
* Array nodes store a boundary array: entry ``i`` is the exclusive end of the
  children of parent instance ``i``, so parent ``i`` owns ``[b[i-1], b[i])``
  and the last entry equals the node's own cardinality.  Leaf arrays whose
  elements are scalars keep their boundaries and values in the same file.
* Indicator leaves and graph vertex records store a pointer array into their
  target node's instance space.

In memory each counter and pointer array is a `Mapping` (see
`quest.delivery`), which checks its entries when it is built.

Files carry a fixed header (magic ``QSTC``, version, kind, cardinality) and a
CRC32 trailer.  Each integer array (string codes, dictionary entry lengths,
boundaries, pointers) is written as a width tag and little-endian unsigned
entries of the narrowest width in 1, 2, 4 or 8 bytes that holds its largest
entry.  A number column whose values are all integers is written as a base
and such offsets from it, else as ``<f8``.  A value column is held in
memory as it is written: string codes at the narrowest unsigned width that
holds the dictionary's size, and an integral number column as its base plus
its narrow offsets, so a scan reads the bytes the file holds (see
`PrimitiveColumn`).  The reader widens only the index arrays: entry
lengths, boundaries and pointers become int64.  The I/O model counts 8
bytes per boundary or pointer entry (`DEFAULT_METADATA_UNIT`), a logical
width and not the width on disk.
An opened store reads a schema's files on the first use of its arrays (see
`open_store`).  All reads go through the owning `Store` so that I/O counters
reflect what a query actually touched.
"""
from __future__ import annotations

import bisect
import gc
import json
import math
import operator
import os
import struct
import zlib
from contextlib import contextmanager
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from .delivery import Mapping
from .errors import SchemaError, StoreError
from .schema import Kind, Link, Schema, parse_schema, serialize_schema

MAGIC = b"QSTC"
FORMAT_VERSION = 3
DEFAULT_BLOCK_SIZE = 4096
DEFAULT_METADATA_UNIT = 8  # the I/O model's bytes per boundary/pointer entry, not its width on disk

K_NUMBER, K_STRING, K_BOOLEAN, K_COUNTER, K_INDICATOR = 1, 2, 3, 4, 5
K_ARRAY_NUMBER, K_ARRAY_STRING, K_ARRAY_BOOLEAN = 6, 7, 8

_ARRAY_KIND_BY_PRIM = {"number": K_ARRAY_NUMBER, "string": K_ARRAY_STRING, "boolean": K_ARRAY_BOOLEAN}
_VALUE_KIND_BY_PRIM = {"number": K_NUMBER, "string": K_STRING, "boolean": K_BOOLEAN, "null": K_NUMBER}


# ---------------------------------------------------------------------------
# value columns


def _unmarked(codes: np.ndarray, marked: np.ndarray) -> np.ndarray:
    """The distinct entries among `codes` that `marked` does not mark, ascending."""
    missing = codes[~marked[codes]]
    if not missing.size:
        return missing
    need = np.zeros(marked.size, dtype=bool)
    need[missing] = True
    return np.flatnonzero(need)


class StringDictionary:
    """The sorted distinct values of one string column, held as UTF-8.

    UTF-8 byte order equals code-point order, so the entries are in the
    order `sorted` gives the strings, and a value is found by a binary
    search over bytes.  Entries are decoded to `str` on first use and
    kept, and so is the one-tuple row of each entry a fetch returns
    (see `rows`).
    """

    def __init__(self, lengths: np.ndarray, blob: bytes):
        self.lengths = lengths
        self.blob = blob

    # built on first use, so that opening a store does not pay for them
    @cached_property
    def offsets(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.lengths, dtype=np.int64)))

    @cached_property
    def _entries(self) -> np.ndarray:
        return np.empty(len(self), dtype=object)

    @cached_property
    def _decoded(self) -> np.ndarray:
        return np.zeros(len(self), dtype=bool)

    @classmethod
    def from_sorted(cls, ordered: list[str]) -> "StringDictionary":
        joined = "".join(ordered)
        # an ASCII entry's UTF-8 length is its length
        sizes = map(len, ordered if joined.isascii() else map(str.encode, ordered))
        out = cls(np.fromiter(sizes, dtype=np.int64, count=len(ordered)), joined.encode("utf-8"))
        out._entries[:] = ordered
        out._decoded[:] = True
        return out

    def __len__(self) -> int:
        return len(self.lengths)

    def code_of(self, value: str) -> int:
        """The code of `value`, or -1 when the column never holds it."""
        # a lone surrogate cannot be stored, so it must find nothing
        target = value.encode("utf-8", "surrogatepass")
        blob, off = self.blob, self.offsets
        i = bisect.bisect_left(range(len(self)), target, key=lambda k: blob[off[k] : off[k + 1]])
        if i < len(self) and blob[off[i] : off[i + 1]] == target:
            return i
        return -1

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """The entries at `codes` as an object array of `str`.

        Only entries not decoded before are decoded, each once.
        """
        todo = _unmarked(codes, self._decoded)
        if todo.size:
            blob = self.blob
            spans = zip(self.offsets[todo].tolist(), self.offsets[todo + 1].tolist())
            self._entries[todo] = [blob[a:b].decode("utf-8") for a, b in spans]
            self._decoded[todo] = True
        return self._entries[codes]

    @cached_property
    def _rows(self) -> np.ndarray:
        return np.empty(len(self), dtype=object)

    @cached_property
    def _rowed(self) -> np.ndarray:
        return np.zeros(len(self), dtype=bool)

    def rows(self, codes: np.ndarray) -> np.ndarray:
        """The one-tuple row ``(value,)`` of each entry at `codes`, as an
        object array.

        Each entry's row is built the first time it is asked for and then
        kept, so a repeated fetch allocates no tuple.  Ingest builds none.
        """
        todo = _unmarked(codes, self._rowed)
        if todo.size:
            values = self.decode(todo).tolist()
            with collector_paused():  # tuples of one str hold no cycle
                self._rows[todo] = np.fromiter([(v,) for v in values], dtype=object, count=len(values))
            self._rowed[todo] = True
        return self._rows[codes]

    def translate(self, other: "StringDictionary") -> np.ndarray:
        """The code here of each of `other`'s entries, -1 for one this
        dictionary lacks.  Nothing is decoded: entries compare as UTF-8.

        Only entries of one length can be equal, so each length is matched
        on its own.  A dictionary's entries of one length are still in
        order, and as fixed-width byte strings of that length they compare
        as their bytes do, so one `searchsorted` finds `other`'s among
        this dictionary's.  Nothing is padded: the strings hold only the
        entries' own bytes.
        """
        codes = np.full(len(other), -1, dtype=np.int32)
        mine = self._by_length()
        for length, theirs_at in other._by_length().items():
            mine_at = mine.get(length)
            if mine_at is None:
                continue
            if length == 0:  # "", the first entry of both
                codes[0] = 0
                continue
            keys, wanted = self._fixed(mine_at, length), other._fixed(theirs_at, length)
            at = np.searchsorted(keys, wanted)
            np.minimum(at, len(keys) - 1, out=at)
            hit = keys[at] == wanted
            codes[theirs_at[hit]] = mine_at[at[hit]]
        return codes

    def _by_length(self) -> dict[int, np.ndarray]:
        """The indexes of the entries of each length, in increasing order."""
        order = np.argsort(self.lengths, kind="stable")
        lengths, first = np.unique(self.lengths[order], return_index=True)
        return dict(zip(lengths.tolist(), np.split(order, first[1:])))

    def _fixed(self, at: np.ndarray, length: int) -> np.ndarray:
        """The entries at `at`, each `length` bytes long, as `S{length}` strings."""
        # a view holding the `length` bytes from every blob position
        windows = np.ndarray(len(self.blob) - length + 1, dtype=f"S{length}", buffer=self.blob, strides=(1,))
        return windows[self.offsets[at]]


_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _uint_dtype(top: int) -> np.dtype:
    """The narrowest little-endian unsigned dtype in `_WIDTHS` that holds `top`."""
    return np.dtype(f"<u{next(w for w in _WIDTHS if top < 1 << (8 * w))}")


def _integral(value) -> bool:
    """Whether a number operand is a finite integer once read as float64,
    as a compare with a float64 column reads it."""
    try:
        return float(value).is_integer()
    except OverflowError:  # an int past float64's range
        return False


class PrimitiveColumn:
    """Values and validity of one primitive node, held as the file holds them.

    `stored` is what scans read.  A string column's are codes into its
    `dictionary`, at the narrowest unsigned width that holds the
    dictionary's size.  A number column with a `base` stores offsets from
    it (see `number_column`), each value being ``base + offset``; any
    other number column stores float64 values.  `match` compares stored
    values with an operand without decoding them.

    `has_nulls` is set once, here.  A column without a null holds one
    read-only all-True view as its `validity`, so a scan need not read it.
    """

    def __init__(
        self,
        node: int,
        kind: str,
        values,
        validity,
        dictionary: StringDictionary | None = None,
        base: int | None = None,
    ):
        self.node = node
        self.kind = kind  # primitive kind of the values
        self.dictionary = dictionary
        self.base = base
        validity = np.asarray(validity, dtype=bool)
        self.has_nulls = not validity.all()
        self.validity = validity if self.has_nulls else np.broadcast_to(np.True_, validity.shape)
        stored = np.asarray(values)
        if dictionary is not None:  # a code is less than the dictionary's size
            stored = stored.astype(_uint_dtype(max(len(dictionary) - 1, 0)), copy=False)
        self.stored = stored
        self._block_starts: dict[int, np.ndarray] = {}
        if (kind == "string") != (dictionary is not None):
            raise StoreError(f"column {node}: a string column needs a dictionary, and only it")
        if len(self.stored) != len(self.validity):
            raise StoreError(f"column {node}: values and validity lengths differ")

    @cached_property
    def values(self) -> np.ndarray:
        """The values; a string column's are decoded, and a number
        column's added to their base, on first read.

        The oracle, the statistics and join keys read this; filters read
        `stored`.
        """
        return self.decode(self.stored)

    def decode(self, stored: np.ndarray) -> np.ndarray:
        """Values from their stored form: a string column's codes decoded,
        a number column's offsets added to its base."""
        if self.dictionary is not None:
            return self.dictionary.decode(stored)
        if self.base is not None:
            return _numbers_from_offsets(self.base, stored)
        return stored

    def match(self, stored: np.ndarray, op: str, operand) -> np.ndarray:
        """``value <op> operand`` for the values `stored` holds, as a new
        bool array.

        A string operand is compared as its code: one the dictionary
        lacks is code -1, which numpy compares exactly with unsigned codes,
        so it equals none.  Against offsets, a finite integral operand
        becomes the Python int ``operand - base``, which numpy compares
        exactly even outside the offsets' dtype; any other operand is
        compared with the decoded values.
        """
        if self.dictionary is not None:
            if op == "in":
                codes = [c for c in map(self.dictionary.code_of, operand) if c >= 0]
                return np.isin(stored, np.asarray(codes, dtype=stored.dtype))
            return _OPS[op](stored, self.dictionary.code_of(operand))
        if self.base is not None:
            if op == "in" and all(map(_integral, operand)):
                top = np.iinfo(stored.dtype).max
                offsets = [d for d in (int(float(v)) - self.base for v in operand) if 0 <= d <= top]
                return np.isin(stored, np.asarray(offsets, dtype=stored.dtype))
            if op != "in" and _integral(operand):
                return _OPS[op](stored, int(float(operand)) - self.base)
            stored = self.decode(stored)
        if op == "in":
            return np.isin(stored, np.asarray(operand, dtype=stored.dtype))
        return _OPS[op](stored, operand)

    @property
    def cardinality(self) -> int:
        return int(len(self.validity))

    @cached_property
    def unit_size(self) -> float:
        """Average logical size of one value, in bytes: a string counts its
        UTF-8 length plus a 4-byte length.

        Cached: a column's values are not modified after ingest.
        """
        if self.kind == "number":
            return 8.0
        if self.kind == "boolean":
            return 1.0
        if self.kind == "string":
            if not self.cardinality:
                return 8.0
            total = int(self.dictionary.lengths[self.stored].sum()) + 4 * self.cardinality
            return total / self.cardinality
        return 8.0

    def block_starts(self, block_size: int) -> np.ndarray:
        """The first position of each `block_size`-byte block of the
        column, at `unit_size` bytes a value (`_block_of`); kept per block size."""
        starts = self._block_starts.get(block_size)
        if starts is None:
            blocks = _block_of(np.arange(self.cardinality), self.unit_size, block_size)
            starts = self._block_starts[block_size] = np.flatnonzero(np.diff(blocks, prepend=-1.0))
        return starts


def number_column(node: int, kind: str, values, validity) -> PrimitiveColumn:
    """A number column held as the writer stores it: a base plus narrow
    offsets when those give back every value's bits, else float64."""
    base, stored = _split_numbers(np.asarray(values, dtype=np.float64))
    return PrimitiveColumn(node, kind, stored, validity, base=base)


# ---------------------------------------------------------------------------
# per-column statistics (used by the optimizer's selectivity estimates;
# `ingest.build_stats` builds them)


class ColumnStats:
    __slots__ = ("cardinality", "unit_size", "distinct", "vmin", "vmax", "mcv", "bounds")

    def __init__(
        self,
        cardinality: int = 0,
        unit_size: float = 8.0,
        distinct: int | None = None,
        vmin: object = None,
        vmax: object = None,
        mcv: dict | None = None,
        bounds: list | None = None,
    ):
        self.cardinality = cardinality
        self.unit_size = unit_size
        self.distinct = distinct
        self.vmin = vmin
        self.vmax = vmax
        self.mcv = {} if mcv is None else mcv  # value -> fraction of instances
        self.bounds = [] if bounds is None else bounds  # equi-depth cut points (numbers)

    def to_json(self) -> dict:
        return {
            "cardinality": self.cardinality,
            "unit_size": self.unit_size,
            "distinct": self.distinct,
            "min": self.vmin,
            "max": self.vmax,
            "mcv": {json.dumps(k): v for k, v in self.mcv.items()},
            "bounds": self.bounds,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ColumnStats":
        return cls(
            cardinality=doc["cardinality"],
            unit_size=doc["unit_size"],
            distinct=doc["distinct"],
            vmin=doc["min"],
            vmax=doc["max"],
            mcv={json.loads(k): v for k, v in doc["mcv"].items()},
            bounds=doc["bounds"],
        )


def estimate_selectivity(stats: ColumnStats, op: str, operand) -> float:
    """Fraction of instances expected to pass ``value <op> operand``."""
    if stats.cardinality == 0 or stats.distinct in (0, None):
        return 0.0
    if op in ("=", "=="):
        if operand in stats.mcv:
            return stats.mcv[operand]
        return min(1.0, 1.0 / stats.distinct)
    if op in ("!=", "<>"):
        return max(0.0, 1.0 - estimate_selectivity(stats, "=", operand))
    if op == "in":
        return min(1.0, sum(estimate_selectivity(stats, "=", v) for v in operand))
    if op in ("<", "<=", ">", ">="):
        if stats.bounds and isinstance(operand, (int, float)):
            bounds = stats.bounds
            pos = float(np.searchsorted(bounds, operand, side="right"))
            frac_below = min(1.0, pos / len(bounds))
            return frac_below if op in ("<", "<=") else max(0.0, 1.0 - frac_below)
        return 0.3333
    raise StoreError(f"unknown predicate operator {op!r}")


# ---------------------------------------------------------------------------
# one ingested schema worth of arrays


class SchemaData:
    """All columns, counters, and indicators for one schema.

    `counters` and `indicators` hold each array as a `Mapping` into its
    lower space: a counter's is its node, a pointer array's is the node
    it points into.  Data opened from disk is given `load`, which reads
    its arrays: the first use of `columns`, `counters` or `indicators`
    calls it and validates what it returns (see `open_store`).  A load
    that fails keeps no arrays, and every later use raises its error
    again.
    """

    def __init__(self, schema: Schema, load=None):
        self.schema = schema
        self.cardinality: dict[int, int] = {}
        self.stats: dict[int, ColumnStats] = {}
        # height-0 Skip-Tree over `counters` and `indicators`, and the skip
        # index (`skiptree.layered_tree`, `build_skip_tree` build them on first use)
        self.layered_tree = None
        self.skip_tree = None
        self._load = load
        self._arrays = None if load else ({}, {}, {})
        self._failure: str | None = None
        # (node, path, kind code, cardinality, stamp) of each column file
        # of data opened from disk, the middle two as the manifest gives them
        self.files: list[tuple] = []

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def columns(self) -> dict[int, PrimitiveColumn]:
        return self._loaded()[0]

    @property
    def counters(self) -> dict[int, Mapping]:
        return self._loaded()[1]

    @property
    def indicators(self) -> dict[int, Mapping]:
        return self._loaded()[2]

    @cached_property
    def sizes(self) -> tuple[dict, dict]:
        """Each node's instance count ``G`` and value width ``S`` (0
        without statistics), keyed by ``(schema name, node)`` as the
        optimizer prices them; made on first use from the manifest's
        counts and statistics, so it reads no column file."""
        keys = [(self.name, n.id) for n in self.schema.nodes]
        stats = self.stats
        return (
            {key: float(self.cardinality[key[1]]) for key in keys},
            {key: stats[key[1]].unit_size if key[1] in stats else 0.0 for key in keys},
        )

    @cached_property
    def io_keys(self) -> list[str]:
        """Each node's ``<schema>/<path>``, the name its reads are recorded under."""
        return [f"{self.name}/{self.schema.path_of(n.id)}" for n in self.schema.nodes]

    @property
    def loaded(self) -> bool:
        """Whether the arrays are in memory: ingested, or read from disk."""
        return self._arrays is not None

    def _loaded(self) -> tuple[dict, dict, dict]:
        if self._arrays is None:
            if self._failure is not None:
                raise StoreError(self._failure)
            try:
                self._arrays = self._load()
                self.validate(f"; manifest.json disagrees with the column files; {_REINGEST}")
            except (StoreError, OSError) as exc:
                self._arrays = None
                self._failure = str(exc)
                raise StoreError(self._failure) from exc
            if self.skip_tree is not None:
                # its links refer back to this data until linked
                self.skip_tree.link()
        return self._arrays

    def check_counts(self, manifest) -> None:
        """Check the instance counts the planner prices against the
        column files' headers and each counter file's last boundary,
        reading no other payload; a disagreement raises `StoreError`
        naming the file and `quest ingest`.

        A header counts the instances of one node: a value column or leaf
        array its own, a counter file its parent's, a pointer file those
        of the node that owns the pointers.  A counter file's last
        boundary, its payload's final entry, counts its own node's.  An
        identity-linked node shares its parent's instances, so each count
        is compared with every file that counts its instances, and where
        none does, with the count of the nearest ancestor reached by a
        counter, pointer or root link.
        """
        sch = self.schema
        space = {}  # node -> the nearest ancestor-or-self not linked by identity
        for nid in sch.preorder:
            node = sch.node(nid)
            space[nid] = space[node.parent] if node.link is Link.IDENTITY else nid
        counted: dict[int, list] = {}  # space -> (cardinality, file, what counts it) per file counting it
        lasts = []  # after every header, so a count some header contradicts names that header
        for nid, fpath, kind_code, count, stamp in self.files:
            _check_header(fpath, read_header(fpath), kind_code, count)
            node = sch.node(nid)
            own = kind_code != K_COUNTER and (kind_code != K_INDICATOR or node.kind is Kind.INDICATOR)
            owner = nid if own else node.parent
            counted.setdefault(space[owner], []).append((count, fpath, "the header"))
            if kind_code == K_COUNTER:
                lasts.append((nid, (_last_boundary(fpath, count, stamp[0]), fpath, "its last boundary")))
        for nid, last in lasts:
            counted.setdefault(nid, []).append(last)
        for nid in sch.preorder:
            rep = space[nid]
            for want, source, by in counted.get(rep, [(self.cardinality[rep], manifest, f"its {sch.path_of(rep)}")]):
                if self.cardinality[nid] != want:
                    raise StoreError(
                        f"{source}: manifest.json counts {self.cardinality[nid]} instances of "
                        f"{sch.name}.{sch.path_of(nid)}, but {by} counts {want}; manifest.json disagrees "
                        f"with the column files; {_REINGEST}"
                    )

    def validate(self, fix: str = "") -> None:
        """Check each array's length against the schema's cardinalities;
        a fault's message ends with `fix`.

        A counter or pointer array is checked against its upper space
        only: its `Mapping` checked its entries when it was built.
        """
        sch = self.schema
        for nid, col in self.columns.items():
            if col.cardinality != self.cardinality[nid]:
                raise StoreError(f"{sch.name}.{sch.path_of(nid)}: column length != cardinality{fix}")
        for links in (self.counters, self.indicators):
            for nid, link in links.items():
                node = sch.node(nid)
                # an indicator leaf has a pointer per instance; other links one per parent instance
                upper = nid if node.kind is Kind.INDICATOR else node.parent
                if link.upper_cardinality != self.cardinality[upper]:
                    raise StoreError(
                        f"{sch.name}.{sch.path_of(nid)}: {link.upper_cardinality} entries, but "
                        f"{sch.path_of(upper)} has {self.cardinality[upper]} instances{fix}"
                    )


# ---------------------------------------------------------------------------
# I/O instrumentation


def _block_of(positions: np.ndarray, unit_size: float, block_size: int) -> np.ndarray:
    """The block of each position of a column of `unit_size`-byte values,
    as floats: ``floor(position * unit_size / block_size)``.  The block
    size is a power of two, so multiplying by its reciprocal is exact."""
    blocks = positions * unit_size
    blocks *= 1.0 / block_size
    return np.floor(blocks, out=blocks)


class IOStats:
    """Counters for everything a query run pulled out of the store."""

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE):
        # `_block_of` divides by multiplying with the reciprocal, which
        # is exact only for a power of two
        if block_size < 1 or block_size & (block_size - 1):
            raise StoreError(f"block size {block_size} is not a power of two")
        self.block_size = block_size
        self.audit_enabled = False
        self.reset()

    def reset(self) -> None:
        self.columns_read = 0
        self.metadata_reads = 0
        self.bytes_read = 0
        self.bitset_ops = 0
        self.metadata_log: dict[str, dict] = {}
        self.audit: list[dict] = []
        self.audit_violations = 0

    def record_column(self, key, positions, unit_size, cardinality, context_bits=None, block_starts=None):
        """Count one column read at `positions` (None: the whole column).

        With `block_starts` (`PrimitiveColumn.block_starts`) the caller
        says that `positions` are exactly the set bits of `context_bits`,
        and the blocks holding one are counted from the bits.  Otherwise,
        and in audit mode, each position's block is worked out.  Both
        give the same count.
        """
        self.columns_read += 1
        if positions is None:
            nblocks = max(1, math.ceil(cardinality * unit_size / self.block_size)) if cardinality else 0
        elif len(positions) == 0:
            nblocks = 0
        elif block_starts is not None and not self.audit_enabled:
            nblocks = int(np.count_nonzero(np.logical_or.reduceat(context_bits, block_starts)))
        else:
            starts = _block_of(positions, unit_size, self.block_size)
            head, tail = starts[:-1], starts[1:]
            if (tail >= head).all():  # sorted, as every scan's positions are
                nblocks = 1 + int(np.count_nonzero(tail != head))
            else:  # positions mapped through pointers or a join
                nblocks = int(np.unique(starts).size)
        self.bytes_read += nblocks * self.block_size
        if self.audit_enabled:
            n_read = cardinality if positions is None else int(len(positions))
            violations = 0
            if context_bits is not None and positions is not None and len(positions):
                violations = int(np.count_nonzero(~context_bits[positions]))
            elif context_bits is not None and positions is None:
                violations = int(np.count_nonzero(~context_bits))
            self.audit_violations += violations
            self.audit.append({"column": key, "read": n_read, "violations": violations})

    def record_metadata(self, key, nbytes):
        self.metadata_reads += 1
        nblocks = max(1, math.ceil(nbytes / self.block_size)) if nbytes else 0
        self.bytes_read += nblocks * self.block_size
        entry = self.metadata_log.setdefault(key, {"reads": 0, "bytes": 0, "blocks": 0})
        entry["reads"] += 1
        entry["bytes"] += nbytes
        entry["blocks"] += nblocks

    def snapshot(self) -> dict:
        return {
            "columns_read": self.columns_read,
            "metadata_reads": self.metadata_reads,
            "bytes_read": self.bytes_read,
            "bitset_ops": self.bitset_ops,
            "audit_violations": self.audit_violations,
        }


class Store:
    """A set of ingested schemas plus instrumented access to their arrays."""

    metadata_unit = DEFAULT_METADATA_UNIT  # the one unit the I/O model and the optimizer count in

    def __init__(self, block_size=DEFAULT_BLOCK_SIZE, path=None):
        self.block_size = block_size
        self.path = Path(path) if path is not None else None
        self.datasets: dict[str, SchemaData] = {}
        self.io = IOStats(block_size)
        # join match relations built from this store's key columns, keyed
        # by (left schema, left node, right schema, right node)
        self.joins: dict[tuple, object] = {}

    def add(self, data: SchemaData) -> "Store":
        self.datasets[data.name] = data
        self.joins.clear()
        return self

    def data(self, name: str) -> SchemaData:
        try:
            return self.datasets[name]
        except KeyError:
            raise StoreError(f"store has no schema named {name!r}") from None

    def schema(self, name: str) -> Schema:
        return self.data(name).schema

    # -- instrumented access ------------------------------------------------

    def _key(self, schema_name: str, node_id: int, suffix: str = "") -> str:
        return self.data(schema_name).io_keys[node_id] + suffix

    def column(self, schema_name, node_id) -> PrimitiveColumn:
        col = self.data(schema_name).columns.get(node_id)
        if col is None:
            raise StoreError(f"{self._key(schema_name, node_id)} has no value column")
        return col

    def scan_values(self, schema_name, node_id, positions=None, context_bits=None, decode=True, exact=False):
        """Read values (and validity) at `positions`, or the whole column.

        A string column decodes only the dictionary entries it reads, and
        a number column only the offsets it reads; with ``decode=False``
        they yield their stored form instead (see `PrimitiveColumn`).  A
        column without a null yields a read-only all-True validity and
        gathers none.  With `exact`, `positions` are the set bits of
        `context_bits`, and the read is counted from the bits
        (`IOStats.record_column`).
        """
        col = self.column(schema_name, node_id)
        starts = col.block_starts(self.io.block_size) if exact and positions is not None else None
        self.io.record_column(
            self._key(schema_name, node_id), positions, col.unit_size, col.cardinality, context_bits, starts
        )
        if positions is None:
            return (col.values if decode else col.stored), col.validity
        stored = col.stored[positions]
        valid = col.validity[positions] if col.has_nulls else col.validity[: len(positions)]
        return (col.decode(stored) if decode else stored), valid

    def read_link(self, schema_name, node_id) -> Mapping:
        """The counter or pointer array at a node; each read is recorded
        as a metadata read of ``<path>#counter`` or ``<path>#indicator``."""
        data = self.data(schema_name)
        for suffix, links in (("#counter", data.counters), ("#indicator", data.indicators)):
            link = links.get(node_id)
            if link is not None:
                self.io.record_metadata(self._key(schema_name, node_id, suffix), link.nbytes)
                return link
        raise StoreError(f"{self._key(schema_name, node_id)} has no counter or pointer array")


# ---------------------------------------------------------------------------
# bulk building: ingest and row regeneration


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector (a context manager or decorator).

    For code that builds many containers holding no reference cycles:
    the collector could free none of them, yet their allocation starts
    collections, and each full one walks every live object.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def __getattr__(name: str):
    """The `ingest_*` functions, which live in `quest.ingest`; it is
    imported on first use, so opening and querying a store never loads it."""
    if name.startswith("ingest_"):
        from . import ingest

        return getattr(ingest, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# on-disk format


_WIDTHS = (1, 2, 4, 8)  # bytes per entry of an integer array on disk
_FLOATS, _OFFSETS = 0, 1  # a number column's encoding tag


def _encode_uints(array: np.ndarray) -> bytes:
    """A width tag, then the entries as little-endian unsigned integers
    of the narrowest width in `_WIDTHS` that holds the largest."""
    if array.size and array.min() < 0:
        raise StoreError("cannot write a negative entry into an unsigned array")
    dtype = _uint_dtype(int(array.max()) if array.size else 0)
    return bytes([dtype.itemsize]) + array.astype(dtype, copy=False).tobytes()


def _numbers_from_offsets(base: int, offsets: np.ndarray) -> np.ndarray:
    """``base + offsets``, added as float64.  The writer keeps the offsets
    only when this function gives back every value's bits."""
    values = offsets.astype(np.float64)
    values += base
    return values


def _split_numbers(values: np.ndarray) -> tuple[int | None, np.ndarray]:
    """``(base, offsets)``, the offsets at their narrowest unsigned width,
    when they are narrower than 8 bytes and decode to every value's bits;
    else ``(None, values)`` (-0.0, NaN, infinities, fractions, no values)."""
    if values.size:
        with np.errstate(invalid="ignore"):  # NaN and infinities have no integer
            ints = values.astype(np.int64)
        base = int(ints.min())
        offsets = (ints - base).view(np.uint64)
        top = int(offsets.max())
        if top < 1 << 32:
            offsets = offsets.astype(_uint_dtype(top))
            if np.array_equal(_numbers_from_offsets(base, offsets).view(np.uint64), values.view(np.uint64)):
                return base, offsets
    return None, values


def _encode_numbers(col: PrimitiveColumn) -> bytes:
    """An encoding tag, then the values: as an ``<i8`` base and narrow
    offsets from it (see `_split_numbers`), else as ``<f8``."""
    if col.base is not None:
        base, stored = col.base, col.stored
    else:
        base, stored = _split_numbers(col.stored.astype(np.float64, copy=False))
    if base is None:
        return bytes([_FLOATS]) + stored.astype("<f8").tobytes()
    return bytes([_OFFSETS]) + struct.pack("<q", base) + _encode_uints(stored)


def _encode_values(col: PrimitiveColumn) -> bytes:
    """Validity bitmap, then the values.  A string column writes its
    codes, its ``<u4`` dictionary size and entry byte lengths, then the
    entries' UTF-8 bytes back to back."""
    parts = [np.packbits(col.validity.astype(np.uint8)).tobytes()]
    if col.kind in ("number", "null"):
        parts.append(_encode_numbers(col))
    elif col.kind == "boolean":
        parts.append(col.stored.astype(np.uint8).tobytes())
    elif col.kind == "string":
        d = col.dictionary
        parts += [_encode_uints(col.stored), struct.pack("<I", len(d)), _encode_uints(d.lengths), d.blob]
    else:
        raise StoreError(f"cannot encode primitive kind {col.kind!r}")
    return b"".join(parts)


class _Payload:
    """A file's payload, read front to back.  A read past its end, an
    unknown width tag, or bytes left after the last read raise `StoreError`."""

    def __init__(self, buf: memoryview):
        self.buf = buf
        self.at = 0

    def take(self, n: int) -> memoryview:
        if self.at + n > len(self.buf):
            raise StoreError(f"payload ends {self.at + n - len(self.buf)} bytes short")
        self.at += n
        return self.buf[self.at - n : self.at]

    def unpack(self, fmt: str) -> int:
        (value,) = struct.unpack(fmt, self.take(struct.calcsize(fmt)))
        return value

    def uints(self, count: int) -> np.ndarray:
        """`count` entries written by `_encode_uints`, as a read-only unsigned view."""
        width = self.unpack("<B")
        if width not in _WIDTHS:
            raise StoreError(f"unknown width tag {width}")
        return np.frombuffer(self.take(width * count), dtype=f"<u{width}")

    def rest(self) -> memoryview:
        return self.take(len(self.buf) - self.at)

    def end(self) -> None:
        if self.at != len(self.buf):
            raise StoreError(f"{len(self.buf) - self.at} bytes after the payload's end")


def _decode_column(nid: int, kind: str, payload: _Payload, count: int) -> PrimitiveColumn:
    """Decode a value payload into a column held at the file's widths.

    Codes and offsets are copied out of the file buffer, so they are
    aligned and the buffer is not kept; dictionary entries are decoded
    on first use.
    """
    validity = np.unpackbits(np.frombuffer(payload.take((count + 7) // 8), dtype=np.uint8), count=count).astype(bool)
    if kind in ("number", "null"):
        encoding = payload.unpack("<B")
        if encoding == _FLOATS:
            return PrimitiveColumn(nid, kind, np.frombuffer(payload.take(8 * count), dtype="<f8").copy(), validity)
        if encoding == _OFFSETS:
            base = payload.unpack("<q")
            return PrimitiveColumn(nid, kind, payload.uints(count).copy(), validity, base=base)
        raise StoreError(f"unknown number encoding tag {encoding}")
    if kind == "boolean":
        return PrimitiveColumn(nid, kind, np.frombuffer(payload.take(count), dtype=np.uint8).astype(bool), validity)
    if kind == "string":
        codes = payload.uints(count).copy()
        size = payload.unpack("<I")
        lengths = payload.uints(size).astype(np.int64)
        blob = bytes(payload.rest())
        if int(lengths.sum(dtype=np.int64)) != len(blob):
            raise StoreError("string lengths do not match the payload")
        if count and codes.max() >= size:
            raise StoreError("string codes fall outside the dictionary")
        return PrimitiveColumn(nid, kind, codes, validity, StringDictionary(lengths, blob))
    raise StoreError(f"cannot decode primitive kind {kind!r}")


def _encode_column_file(kind_code: int, cardinality: int, payload: bytes) -> bytes:
    header = MAGIC + struct.pack("<HBQ", FORMAT_VERSION, kind_code, cardinality)
    body = header + payload
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def write_column(path, kind_code: int, cardinality: int, payload: bytes) -> None:
    Path(path).write_bytes(_encode_column_file(kind_code, cardinality, payload))


_REINGEST = "rewrite the store with `quest ingest`"


def _stamp(path) -> tuple[int, int]:
    """A file's size and modification time in ns, from one `stat`."""
    try:
        st = os.stat(path)
    except OSError as exc:
        raise StoreError(f"{path}: {exc.strerror}; {_REINGEST}") from exc
    return st.st_size, st.st_mtime_ns


def read_column(path, stamp: tuple[int, int] | None = None) -> tuple[int, int, memoryview]:
    """Read and checksum one column file; returns (kind_code, cardinality, payload).

    With `stamp` (see `_stamp`), a file whose size or modification time
    differs from it raises `StoreError`.
    """
    try:
        with open(path, "rb") as fh:
            if stamp is not None:
                st = os.fstat(fh.fileno())
                if (st.st_size, st.st_mtime_ns) != stamp:
                    raise StoreError(f"{path}: changed after the store was opened; reopen it, or {_REINGEST}")
            raw = fh.read()
    except OSError as exc:
        raise StoreError(f"{path}: {exc.strerror}; {_REINGEST}") from exc
    if len(raw) < 19 or raw[:4] != MAGIC:
        raise StoreError(f"{path}: not a column file; {_REINGEST}")
    body = memoryview(raw)[:-4]
    (crc,) = struct.unpack("<I", raw[-4:])
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise StoreError(f"{path}: checksum mismatch; {_REINGEST}")
    return (*_header(path, body[:_HEADER]), body[_HEADER:])


_HEADER = 15  # bytes: magic, version, kind code, cardinality


def _header(path, head) -> tuple[int, int]:
    """(kind_code, cardinality) from a column file's header."""
    if len(head) < _HEADER or head[:4] != MAGIC:
        raise StoreError(f"{path}: not a column file; {_REINGEST}")
    version, kind_code, cardinality = struct.unpack("<HBQ", head[4:_HEADER])
    if version != FORMAT_VERSION:
        raise StoreError(f"{path}: format version {version}, not {FORMAT_VERSION}; {_REINGEST}")
    return kind_code, int(cardinality)


def read_header(path) -> tuple[int, int]:
    """(kind_code, cardinality) from a column file's header; no payload is read."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(_HEADER)
    except OSError as exc:
        raise StoreError(f"{path}: {exc.strerror}; {_REINGEST}") from exc
    return _header(path, head)


def _last_boundary(path, count: int, size: int) -> int:
    """A counter file's last boundary, the final entry of its payload,
    read at its stored width (0 when the counter has no entry).  The
    width follows from the file's `size` (`_stamp`): a width tag and
    `count` entries lie between the header and the checksum."""
    if count == 0:
        return 0
    width, odd = divmod(size - _HEADER - 5, count)
    if odd or width not in _WIDTHS:
        raise StoreError(f"{path}: {size} bytes cannot hold a counter of {count} entries; {_REINGEST}")
    try:
        with open(path, "rb") as fh:
            fh.seek(size - 4 - width)
            return int.from_bytes(fh.read(width), "little")
    except OSError as exc:
        raise StoreError(f"{path}: {exc.strerror}; {_REINGEST}") from exc


def _node_file_payload(data: SchemaData, node) -> tuple[int, int, bytes] | None:
    """(kind_code, cardinality, payload) for one node, or None if it has no file."""
    nid = node.id
    has_counter = nid in data.counters
    has_column = nid in data.columns
    has_indicator = nid in data.indicators
    if has_counter and has_column:  # leaf array with scalar elements
        ctr = data.counters[nid]
        col = data.columns[nid]
        payload = struct.pack("<Q", ctr.upper_cardinality) + _encode_uints(ctr.boundaries) + _encode_values(col)
        return _ARRAY_KIND_BY_PRIM[col.kind], col.cardinality, payload
    if has_counter:
        ctr = data.counters[nid]
        return K_COUNTER, ctr.upper_cardinality, _encode_uints(ctr.boundaries)
    if has_column:
        col = data.columns[nid]
        return _VALUE_KIND_BY_PRIM[col.kind], col.cardinality, _encode_values(col)
    if has_indicator:
        ind = data.indicators[nid]
        return K_INDICATOR, ind.upper_cardinality, _encode_uints(ind.pointers)
    return None


def write_store(store: Store, path) -> None:
    """Persist every schema's arrays under `path` plus a manifest.json."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "format_version": FORMAT_VERSION,
        "block_size": store.block_size,
        "metadata_unit": store.metadata_unit,
        "schemas": {},
    }
    for name, data in sorted(store.datasets.items()):
        sdir = root / name
        sdir.mkdir(parents=True, exist_ok=True)
        nodes_doc = {}
        for node in data.schema.nodes:
            entry = _node_file_payload(data, node)
            npath = data.schema.path_of(node.id)
            if entry is not None:
                kind_code, cardinality, payload = entry
                fname = f"{npath}.col"
                write_column(sdir / fname, kind_code, cardinality, payload)
                nodes_doc[npath] = {
                    "file": fname,
                    "kind_code": kind_code,
                    "cardinality": cardinality,
                }
            stats = data.stats.get(node.id)
            if stats is not None:
                nodes_doc.setdefault(npath, {})["stats"] = stats.to_json()
        manifest["schemas"][name] = {
            "manifest": serialize_schema(data.schema),
            "cardinalities": {data.schema.path_of(nid): c for nid, c in sorted(data.cardinality.items())},
            "nodes": nodes_doc,
        }
    (root / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n", encoding="utf-8")


_JSON_NAMES = {
    dict: "an object",
    list: "an array",
    str: "a string",
    int: "an integer",
    float: "a number",
    bool: "a boolean",
    type(None): "null",
}
_SCALAR = (str, int, float, bool, type(None))
# the JSON types of each key `ColumnStats.to_json` writes
_STATS_KINDS = {
    "cardinality": (int,),
    "unit_size": (float, int),
    "distinct": (int, type(None)),
    "min": _SCALAR,
    "max": _SCALAR,
    "mcv": (dict,),
    "bounds": (list,),
}


def open_store(path) -> Store:
    """Open a store written by `write_store`.

    Only ``manifest.json`` is read here: the schemas, cardinalities and
    column statistics, which are all that parsing, planning and building
    a skip index need.  Each column file is only stat'ed.  A schema's
    files are read, CRC-checked and decoded together on the first use of
    its arrays (see `SchemaData`), so a query reads only the schemas it
    touches.  That load raises `StoreError` for a corrupt or missing
    file, one of another format version, one whose payload is not what
    its tags imply, one whose header disagrees with the manifest, one
    changed since the open, or arrays whose lengths disagree with the
    manifest's cardinalities.  A dictionary entry is decoded to `str` on
    first use.  A store of another format version, a manifest that is not
    a JSON object, lacks a key `write_store` writes or holds one of
    another type, a negative count or a ``metadata_unit`` other than 8,
    lacks a node's cardinality or file, or names a node its schema lacks,
    or a column file missing, raises `StoreError` here.  Each message
    names the file and `quest ingest`.  A node's ``stats`` may be absent:
    the planner then guesses its selectivity.
    """
    root = Path(path)
    mpath = root / "manifest.json"
    if not mpath.exists():
        raise StoreError(f"{root}: no manifest.json (not a store)")
    try:
        manifest = json.loads(mpath.read_text(encoding="utf-8"))
        if not isinstance(manifest, dict):
            raise ValueError("not a JSON object")
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError among them
        raise StoreError(f"{mpath}: unreadable manifest ({exc}); {_REINGEST}") from None

    def fault(where: str, text: str) -> StoreError:
        return StoreError(f"{mpath}: {where}{text}; {_REINGEST}")

    def entry(doc: dict, key: str, kinds: tuple, where: str = "", count: bool = False):
        """`doc[key]`, which must be one of `kinds` (a bool only if `bool` is
        one), and not negative if it is a `count`."""
        if key not in doc:
            raise fault(where, f"no {key!r}")
        value = doc[key]
        if not isinstance(value, kinds) or type(value) is bool and bool not in kinds:
            names = " or ".join(_JSON_NAMES[k] for k in kinds)
            raise fault(where, f"{key!r} is {_JSON_NAMES[type(value)]}, not {names}")
        if count and value is not None and value < 0:
            raise fault(where, f"{key!r} is {value}, a negative count")
        return value

    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise fault("", f"store format version {version}, not {FORMAT_VERSION}")
    block_size, metadata_unit = entry(manifest, "block_size", (int,)), entry(manifest, "metadata_unit", (int,))
    if metadata_unit != Store.metadata_unit:
        raise fault("", f"'metadata_unit' is {metadata_unit}, not {Store.metadata_unit}")
    try:
        store = Store(block_size, root)
    except StoreError as exc:  # a block size that is not a power of two
        raise fault("", str(exc)) from None
    for name, sdoc in entry(manifest, "schemas", (dict,)).items():
        where = f"schema {name!r}: "
        if not isinstance(sdoc, dict):
            raise fault(where, "not an object")
        try:
            schema = parse_schema(entry(sdoc, "manifest", (dict,), where))
        except SchemaError as exc:
            raise fault(where, str(exc)) from None
        if schema.name != name:
            raise fault(where, f"its manifest names schema {schema.name!r}")
        path_to_id = {schema.path_of(n.id): n.id for n in schema.nodes}
        cards, nodes = entry(sdoc, "cardinalities", (dict,), where), entry(sdoc, "nodes", (dict,), where)
        faults = [f"no cardinality for {npath}" for npath in path_to_id if npath not in cards]
        faults += [f"unknown node {npath}" for npath in sorted({*cards, *nodes}) if npath not in path_to_id]
        if faults:
            raise fault(where, ", ".join(faults))
        counts = {npath: entry(cards, npath, (int,), f"{where}cardinality ", count=True) for npath in cards}
        cardinality = {path_to_id[npath]: c for npath, c in counts.items()}
        files = []
        stats = {}
        for npath, ndoc in nodes.items():
            nid, at = path_to_id[npath], f"{where}node {npath}: "
            if not isinstance(ndoc, dict):
                raise fault(at, "not an object")
            if "stats" in ndoc:
                stats_doc = entry(ndoc, "stats", (dict,), at)
                for key, kinds in _STATS_KINDS.items():
                    entry(stats_doc, key, kinds, f"{at}stats: ", count=key in ("cardinality", "distinct"))
                if any(type(v) not in (int, float) for v in (*stats_doc["mcv"].values(), *stats_doc["bounds"])):
                    raise fault(f"{at}stats: ", "an 'mcv' fraction or a 'bounds' entry is not a number")
                try:
                    stats[nid] = ColumnStats.from_json(stats_doc)
                except ValueError as exc:  # an `mcv` key that is not JSON
                    raise fault(f"{at}stats: ", f"'mcv': {exc}") from None
            if "file" in ndoc or "kind_code" in ndoc or "cardinality" in ndoc:
                fpath = root / name / entry(ndoc, "file", (str,), at)
                kind_code = entry(ndoc, "kind_code", (int,), at)
                count = entry(ndoc, "cardinality", (int,), at, count=True)
                files.append((nid, fpath, kind_code, count, _stamp(fpath)))
        # the nodes with a value column, a counter or a pointer array
        owners = {
            n.id
            for n in schema.nodes
            if n.has_values or n.link in (Link.COUNTER, Link.INDICATOR) or n.kind is Kind.INDICATOR
        }
        filed = {f[0] for f in files}
        faults = [f"no file for {schema.path_of(nid)}" for nid in sorted(owners - filed)]
        faults += [f"a file for {schema.path_of(nid)}, which owns no array" for nid in sorted(filed - owners)]
        if faults:
            raise fault(where, ", ".join(faults))
        data = SchemaData(schema, load=partial(_read_schema_files, schema, cardinality, files))
        data.cardinality, data.stats, data.files = cardinality, stats, files
        store.add(data)
    return store


_PRIMITIVE_OF_KIND = {
    K_NUMBER: "number",
    K_STRING: "string",
    K_BOOLEAN: "boolean",
    K_ARRAY_NUMBER: "number",
    K_ARRAY_STRING: "string",
    K_ARRAY_BOOLEAN: "boolean",
}


def _check_header(fpath, found: tuple[int, int], kind_code: int, count: int) -> None:
    """A file's header `found` must give the kind and cardinality its manifest entry does."""
    if found != (kind_code, count):
        raise StoreError(
            f"{fpath}: the header gives kind {found[0]} and cardinality {found[1]}, the manifest "
            f"kind {kind_code} and cardinality {count}; {_REINGEST}"
        )


def _read_schema_files(schema: Schema, cardinality: dict, files: list) -> tuple[dict, dict, dict]:
    """The columns, counters and indicators in one schema's files.

    `files` holds (node, path, kind code, cardinality, stamp) per file,
    the middle two as the manifest gives them.
    """
    columns, counters, indicators = {}, {}, {}
    for nid, fpath, kind_code, count, stamp in files:
        found = read_column(fpath, stamp)
        _check_header(fpath, found[:2], kind_code, count)
        payload = _Payload(found[2])
        node = schema.node(nid)
        try:
            if kind_code == K_COUNTER:
                counters[nid] = Mapping(cardinality[nid], boundaries=payload.uints(count).astype(np.int64))
            elif kind_code == K_INDICATOR:
                target = node.target if node.target is not None else nid
                indicators[nid] = Mapping(cardinality[target], pointers=payload.uints(count).astype(np.int64))
            elif kind_code in (K_ARRAY_NUMBER, K_ARRAY_STRING, K_ARRAY_BOOLEAN):
                boundaries = payload.uints(payload.unpack("<Q")).astype(np.int64)
                counters[nid] = Mapping(cardinality[nid], boundaries=boundaries)
                columns[nid] = _decode_column(nid, _PRIMITIVE_OF_KIND[kind_code], payload, count)
            else:
                prim = "null" if node.primitive == "null" else _PRIMITIVE_OF_KIND[kind_code]
                columns[nid] = _decode_column(nid, prim, payload, count)
            payload.end()
        except StoreError as exc:
            raise StoreError(f"{fpath}: {exc}; {_REINGEST}") from exc
    return columns, counters, indicators
