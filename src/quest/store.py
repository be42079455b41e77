"""Columnar store: value columns plus the offset arrays that encode nesting.

Every instance-bearing node owns exactly one column file:

* Primitive nodes store their values (with a validity bitmap for nulls).
  A string column stores int32 codes into a sorted per-column dictionary
  of its distinct values (nulls hold ``""``).
* Array nodes store a boundary array: entry ``i`` is the exclusive end of the
  children of parent instance ``i``, so parent ``i`` owns ``[b[i-1], b[i])``
  and the last entry equals the node's own cardinality.  Leaf arrays whose
  elements are scalars keep their boundaries and values in the same file.
* Indicator leaves and graph vertex records store a pointer array into their
  target node's instance space.

Files carry a fixed header (magic ``QSTC``, version, kind, cardinality) and a
CRC32 trailer; offsets are 64-bit little-endian.  All reads go through the
owning `Store` so that I/O counters reflect what a query actually touched.
"""
from __future__ import annotations

import bisect
import csv as _csv
import gc
import json
import math
import struct
import zlib
from collections import Counter as _TallyCounter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import IngestError, SchemaError, StoreError
from .schema import Kind, Link, Schema, parse_schema, serialize_schema

MAGIC = b"QSTC"
FORMAT_VERSION = 2
DEFAULT_BLOCK_SIZE = 4096
DEFAULT_METADATA_UNIT = 8  # bytes per boundary/pointer entry on disk

K_NUMBER, K_STRING, K_BOOLEAN, K_COUNTER, K_INDICATOR = 1, 2, 3, 4, 5
K_ARRAY_NUMBER, K_ARRAY_STRING, K_ARRAY_BOOLEAN = 6, 7, 8

_ARRAY_KIND_BY_PRIM = {"number": K_ARRAY_NUMBER, "string": K_ARRAY_STRING, "boolean": K_ARRAY_BOOLEAN}
_VALUE_KIND_BY_PRIM = {"number": K_NUMBER, "string": K_STRING, "boolean": K_BOOLEAN, "null": K_NUMBER}


# ---------------------------------------------------------------------------
# array types


@dataclass
class CounterArray:
    """Cumulative exclusive child offsets; one entry per parent instance."""

    node: int
    boundaries: np.ndarray

    def __post_init__(self):
        self.boundaries = np.asarray(self.boundaries, dtype=np.int64)
        if self.boundaries.size and (
            self.boundaries[0] < 0 or np.any(np.diff(self.boundaries) < 0)
        ):
            raise StoreError(f"counter for node {self.node} is not non-decreasing")

    @property
    def cardinality(self) -> int:
        """Parent-side length of the boundary array."""
        return int(self.boundaries.size)

    @property
    def child_cardinality(self) -> int:
        return int(self.boundaries[-1]) if self.boundaries.size else 0

    def range(self, parent_index: int) -> tuple[int, int]:
        lo = int(self.boundaries[parent_index - 1]) if parent_index > 0 else 0
        return lo, int(self.boundaries[parent_index])

    @property
    def nbytes(self) -> int:
        return int(self.boundaries.size) * DEFAULT_METADATA_UNIT


@dataclass
class IndicatorArray:
    """One pointer per instance, each a row offset in the target column."""

    node: int
    pointers: np.ndarray
    target: int
    target_cardinality: int

    def __post_init__(self):
        self.pointers = np.asarray(self.pointers, dtype=np.int64)
        if self.pointers.size:
            lo, hi = int(self.pointers.min()), int(self.pointers.max())
            if lo < 0 or hi >= self.target_cardinality:
                raise StoreError(
                    f"indicator for node {self.node} points outside its target "
                    f"(range [{lo}, {hi}], target cardinality {self.target_cardinality})"
                )

    @property
    def cardinality(self) -> int:
        return int(self.pointers.size)

    @property
    def nbytes(self) -> int:
        return int(self.pointers.size) * DEFAULT_METADATA_UNIT


class StringDictionary:
    """The sorted distinct values of one string column, held as UTF-8.

    UTF-8 byte order equals code-point order, so the entries are in the
    order `sorted` gives the strings, and a value is found by a binary
    search over bytes.  Entries are decoded to `str` on first use and
    kept.
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
        missing = codes[~self._decoded[codes]]
        if missing.size:
            need = np.zeros(len(self), dtype=bool)
            need[missing] = True
            todo = np.flatnonzero(need)
            blob = self.blob
            spans = zip(self.offsets[todo].tolist(), self.offsets[todo + 1].tolist())
            self._entries[todo] = [blob[a:b].decode("utf-8") for a, b in spans]
            self._decoded[todo] = True
        return self._entries[codes]

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


class PrimitiveColumn:
    """Values and validity of one primitive node.

    A string column is given its int32 codes as `values`, plus the
    `dictionary` they index.  Scans read `stored`: the values, or a
    string column's codes.
    """

    def __init__(self, node: int, kind: str, values, validity, dictionary: StringDictionary | None = None):
        self.node = node
        self.kind = kind  # primitive kind of the values
        self.validity = np.asarray(validity, dtype=bool)
        self.stored = np.asarray(values)
        self.dictionary = dictionary
        if (kind == "string") != (dictionary is not None):
            raise StoreError(f"column {node}: a string column needs a dictionary, and only it")
        if len(self.stored) != len(self.validity):
            raise StoreError(f"column {node}: values and validity lengths differ")

    @cached_property
    def values(self) -> np.ndarray:
        """The values; a string column's are decoded on first read.

        The oracle and the statistics read this; queries read `stored`.
        """
        return self.decode(self.stored)

    def encode(self, value):
        """The stored form of `value`: a string's code, else the value itself."""
        return value if self.dictionary is None else self.dictionary.code_of(value)

    def decode(self, stored: np.ndarray) -> np.ndarray:
        """Values from their stored form: a string column's codes decoded."""
        return stored if self.dictionary is None else self.dictionary.decode(stored)

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


# ---------------------------------------------------------------------------
# per-column statistics (used by the optimizer's selectivity estimates)

HISTOGRAM_BUCKETS = 64
MCV_KEEP = 16


@dataclass
class ColumnStats:
    cardinality: int = 0
    unit_size: float = 8.0
    distinct: int | None = None
    vmin: object = None
    vmax: object = None
    mcv: dict = field(default_factory=dict)  # value -> fraction of instances
    bounds: list = field(default_factory=list)  # equi-depth cut points (numbers)

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
            mcv={json.loads(k): v for k, v in doc.get("mcv", {}).items()},
            bounds=list(doc.get("bounds", [])),
        )


def build_stats(column: PrimitiveColumn) -> ColumnStats:
    stats = ColumnStats(cardinality=column.cardinality, unit_size=round(column.unit_size, 4))
    if column.dictionary is not None:
        return _string_stats(column, stats)
    valid = column.values[column.validity]
    n = len(valid)
    if n == 0:
        stats.distinct = 0
        return stats
    tally = _TallyCounter(valid.tolist())
    stats.distinct = len(tally)
    ordered = sorted(tally)
    stats.vmin, stats.vmax = ordered[0], ordered[-1]
    total = column.cardinality
    stats.mcv = {v: c / total for v, c in tally.most_common(MCV_KEEP)}
    if column.kind == "number":
        svals = np.sort(np.asarray(valid, dtype=np.float64))
        cuts = np.linspace(0, n - 1, HISTOGRAM_BUCKETS + 1).astype(np.int64)
        stats.bounds = [float(svals[i]) for i in cuts]
    return stats


def _string_stats(column: PrimitiveColumn, stats: ColumnStats) -> ColumnStats:
    """String statistics from the codes; the dictionary is already sorted."""
    codes = column.stored[column.validity]
    if codes.size == 0:
        stats.distinct = 0
        return stats
    counts = np.bincount(codes, minlength=len(column.dictionary))
    present = np.flatnonzero(counts)
    stats.distinct = int(present.size)
    stats.vmin, stats.vmax = column.dictionary.decode(present[[0, -1]]).tolist()
    # most common first, ties to the value seen first (as Counter.most_common)
    first = np.full(len(column.dictionary), codes.size)
    np.minimum.at(first, codes, np.arange(codes.size))
    top = present[np.lexsort((first[present], -counts[present]))[:MCV_KEEP]]
    shares = (counts[top] / column.cardinality).tolist()
    stats.mcv = dict(zip(column.dictionary.decode(top).tolist(), shares))
    return stats


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
    """All columns, counters, and indicators for one schema."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self.columns: dict[int, PrimitiveColumn] = {}
        self.counters: dict[int, CounterArray] = {}
        self.indicators: dict[int, IndicatorArray] = {}
        self.cardinality: dict[int, int] = {}
        self.stats: dict[int, ColumnStats] = {}
        # height-0 Skip-Tree for delivery without an index
        # (`skiptree.layered_tree` builds it on first use)
        self.layered_tree = None

    @property
    def name(self) -> str:
        return self.schema.name

    def finalize(self) -> "SchemaData":
        """Derive identity-link cardinalities, build stats, and validate."""
        for nid in self.schema.preorder:
            node = self.schema.node(nid)
            if node.link is Link.ROOT:
                self.cardinality.setdefault(nid, 0)
            elif node.link is Link.COUNTER:
                self.cardinality[nid] = self.counters[nid].child_cardinality
            elif node.link is Link.INDICATOR:
                pass  # set explicitly at ingest (vertex count)
            else:
                self.cardinality[nid] = self.cardinality[node.parent]
        for nid, col in self.columns.items():
            self.stats[nid] = build_stats(col)
        self.validate()
        return self

    def validate(self) -> None:
        sch = self.schema
        for nid, ctr in self.counters.items():
            parent = sch.node(nid).parent
            if ctr.cardinality != self.cardinality[parent]:
                raise StoreError(
                    f"{sch.name}.{sch.path_of(nid)}: counter length {ctr.cardinality} "
                    f"!= parent cardinality {self.cardinality[parent]}"
                )
            if ctr.child_cardinality != self.cardinality[nid]:
                raise StoreError(f"{sch.name}.{sch.path_of(nid)}: counter end != cardinality")
        for nid, col in self.columns.items():
            if col.cardinality != self.cardinality[nid]:
                raise StoreError(f"{sch.name}.{sch.path_of(nid)}: column length != cardinality")
        for nid, ind in self.indicators.items():
            node = sch.node(nid)
            expected = self.cardinality[node.parent] if node.link is Link.INDICATOR else self.cardinality[nid]
            if ind.cardinality != expected:
                raise StoreError(f"{sch.name}.{sch.path_of(nid)}: pointer count mismatch")


# ---------------------------------------------------------------------------
# I/O instrumentation


class IOStats:
    """Counters for everything a query run pulled out of the store."""

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE):
        # `record_column` divides by multiplying with the reciprocal, which
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

    def record_column(self, key, positions, unit_size, cardinality, context_bits=None):
        self.columns_read += 1
        if positions is None:
            nblocks = max(1, math.ceil(cardinality * unit_size / self.block_size)) if cardinality else 0
        elif len(positions) == 0:
            nblocks = 0
        else:
            # the block size is a power of two, so this floor() equals //
            starts = positions * unit_size
            starts *= 1.0 / self.block_size
            np.floor(starts, out=starts)
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

    def __init__(self, block_size=DEFAULT_BLOCK_SIZE, metadata_unit=DEFAULT_METADATA_UNIT, path=None):
        self.block_size = block_size
        self.metadata_unit = metadata_unit
        self.path = Path(path) if path is not None else None
        self.datasets: dict[str, SchemaData] = {}
        self.io = IOStats(block_size)
        # join match relations built from this store's key columns, keyed
        # by (left schema, left node, right schema, right node)
        self.joins: dict[tuple, tuple] = {}

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
        path = self.data(schema_name).schema.path_of(node_id)
        return f"{schema_name}/{path}{suffix}"

    def column(self, schema_name, node_id) -> PrimitiveColumn:
        col = self.data(schema_name).columns.get(node_id)
        if col is None:
            raise StoreError(f"{self._key(schema_name, node_id)} has no value column")
        return col

    def scan_values(self, schema_name, node_id, positions=None, context_bits=None, decode=True):
        """Read values (and validity) at `positions`, or the whole column.

        A string column decodes only the dictionary entries it reads; with
        ``decode=False`` it yields its codes instead (see `PrimitiveColumn.encode`).
        """
        col = self.column(schema_name, node_id)
        self.io.record_column(
            self._key(schema_name, node_id), positions, col.unit_size, col.cardinality, context_bits
        )
        if positions is None:
            return (col.values if decode else col.stored), col.validity
        stored = col.stored[positions]
        return (col.decode(stored) if decode else stored), col.validity[positions]

    def read_counter(self, schema_name, node_id) -> CounterArray:
        ctr = self.data(schema_name).counters.get(node_id)
        if ctr is None:
            raise StoreError(f"{self._key(schema_name, node_id)} has no counter")
        self.io.record_metadata(self._key(schema_name, node_id, "#counter"), ctr.nbytes)
        return ctr

    def read_indicator(self, schema_name, node_id) -> IndicatorArray:
        ind = self.data(schema_name).indicators.get(node_id)
        if ind is None:
            raise StoreError(f"{self._key(schema_name, node_id)} has no indicator")
        self.io.record_metadata(self._key(schema_name, node_id, "#indicator"), ind.nbytes)
        return ind


# ---------------------------------------------------------------------------
# ingestion: one column at a time
#
# Every input family is shredded into columns of cells (Python values,
# None for null), and each column is type-checked and built as a whole.
# Ingest holds all its input's parsed values at once, so it runs with the
# cyclic collector paused (see `collector_paused`).


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


_NONE = type(None)
# the cell types a column of each kind takes without a per-cell check
_PLAIN_TYPES = {"number": {int, float}, "string": {str}, "boolean": {bool}, "null": set()}
_NULL_VALUES = {"number": 0.0, "string": "", "boolean": False, "null": 0.0}


def _coerce(value, prim_kind: str, path: str, ordinal: int):
    """Type-check one scalar; returns (value, valid). None means null."""
    if value is None:
        return _NULL_VALUES[prim_kind], False
    if prim_kind == "number":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise IngestError(f"expected a number, got {value!r}", path=path, ordinal=ordinal)
        return float(value), True
    if prim_kind == "string":
        if not isinstance(value, str):
            raise IngestError(f"expected a string, got {value!r}", path=path, ordinal=ordinal)
        return value, True
    if prim_kind == "boolean":
        if not isinstance(value, bool):
            raise IngestError(f"expected a boolean, got {value!r}", path=path, ordinal=ordinal)
        return value, True
    if prim_kind == "null":
        raise IngestError(f"null-kind field cannot hold {value!r}", path=path, ordinal=ordinal)
    raise IngestError(f"unknown primitive kind {prim_kind!r}", path=path)


def _coerce_column(cells, prim_kind: str, path: str, ordinals):
    """Type-check a whole column of cells; returns (raw values, validity).

    `ordinals[i]` is the input unit (row, document or edge) cell `i` came
    from.  The set of cell types is checked once; only a column holding
    another type is walked with `_coerce`, which raises at its first bad
    cell (or converts a subclass, as it does a single value).
    """
    types = set(map(type, cells))
    nulls = _NONE in types
    types.discard(_NONE)
    if not types <= _PLAIN_TYPES.get(prim_kind, set()):
        checked = [_coerce(v, prim_kind, path, int(o)) for v, o in zip(cells, ordinals)]
        return [v for v, _ in checked], [ok for _, ok in checked]
    if not nulls:
        return cells, np.ones(len(cells), dtype=bool)
    null = _NULL_VALUES[prim_kind]
    return [null if v is None else v for v in cells], [v is not None for v in cells]


def _column(node, cells, path: str, ordinals) -> PrimitiveColumn:
    """`node`'s value column built from its cells (see `_coerce_column`)."""
    raw, valid = _coerce_column(cells, node.primitive, path, ordinals)
    validity = np.asarray(valid, dtype=bool)
    if node.primitive == "string":
        # nulls hold "", so "" is in the dictionary whenever a null is;
        # first-seen order makes the sort a single pass on sorted input
        code_of = dict.fromkeys(raw)
        ordered = sorted(code_of)
        code_of.update(zip(ordered, range(len(ordered))))
        codes = np.fromiter(map(code_of.__getitem__, raw), dtype=np.int32, count=len(raw))
        return PrimitiveColumn(node.id, "string", codes, validity, StringDictionary.from_sorted(ordered))
    dtype = bool if node.primitive == "boolean" else np.float64
    return PrimitiveColumn(node.id, node.primitive, np.asarray(raw, dtype=dtype), validity)


# ---------------------------------------------------------------------------
# ingestion: documents


@collector_paused()
def ingest_json(source, schema: Schema) -> SchemaData:
    """Shred a stream of documents (dicts, JSON lines, or a file path).

    Shredding goes one schema node at a time, in preorder, over all the
    documents.  Input with one fault raises the `IngestError` a
    document-by-document walk would; input with faults in several
    documents may name another of them, since faults are found node by
    node.  Every fault named is a real one, with the ordinal of its
    document.
    """
    docs = _documents(source)
    data = SchemaData(schema)
    data.cardinality[schema.root.id] = len(docs)
    _shred(schema, schema.root, docs, np.arange(len(docs)), data)
    return data.finalize()


def _shred(schema: Schema, node, values: list, ordinals: np.ndarray, data: SchemaData) -> None:
    """Shred `node` and its subtree, given its value in each of its
    instances (None where absent); instance `i` is in document `ordinals[i]`."""
    path = schema.path_of(node.id)
    if node.kind is Kind.INDICATOR:
        if values:
            raise IngestError(
                "indicator fields cannot be ingested from documents", path=path, ordinal=int(ordinals[0])
            )
        return
    if node.kind is Kind.PRIMITIVE:
        data.columns[node.id] = _column(node, values, path, ordinals)
        return
    if node.kind is Kind.ARRAY:
        values = _nested(values, list, [], "expected an array", path, ordinals)
        lengths = np.fromiter(map(len, values), dtype=np.int64, count=len(values))
        data.counters[node.id] = CounterArray(node=node.id, boundaries=np.cumsum(lengths))
        values = list(chain.from_iterable(values))
        ordinals = np.repeat(ordinals, lengths)
        if node.has_values:
            data.columns[node.id] = _column(node, values, path, ordinals)
            return
        values = _nested(values, dict, None, "array elements must be objects", path, ordinals)
    else:
        values = _nested(values, dict, {}, "expected an object", path, ordinals)
    children = [schema.node(cid) for cid in node.children]
    known = {child.name for child in children}
    if not all(map(known.issuperset, values)):
        for value, ordinal in zip(values, ordinals):
            if not value.keys() <= known:
                raise IngestError(f"unknown fields {sorted(value.keys() - known)}", path=path, ordinal=int(ordinal))
    for child in children:
        _shred(schema, child, list(map(dict.get, values, repeat(child.name))), ordinals, data)


def _nested(values: list, kind: type, null, message: str, path: str, ordinals) -> list:
    """`values`, each checked to be a `kind`, with None replaced by `null`
    unless `null` is None."""
    types = set(map(type, values))
    if null is not None and _NONE in types:
        values = [null if v is None else v for v in values]
        types.discard(_NONE)
    if not types <= {kind}:
        for value, ordinal in zip(values, ordinals):
            if not isinstance(value, kind):
                raise IngestError(f"{message}, got {value!r}", path=path, ordinal=int(ordinal))
    return values


def _documents(source) -> list:
    """The documents of a JSON-lines file, or of an iterable of documents
    and JSON texts."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return [json.loads(line) for line in map(str.strip, fh) if line]
    return [json.loads(item) if isinstance(item, (str, bytes)) else item for item in source]


# ---------------------------------------------------------------------------
# ingestion: tables


@collector_paused()
def ingest_rows(rows: list[dict], schema: Schema) -> SchemaData:
    """Ingest an already-parsed table: one dict per row, keys = column names."""
    _require_flat(schema)
    names = [schema.node(cid).name for cid in schema.root.children]
    return _table_data(schema, len(rows), {name: [row.get(name) for row in rows] for name in names})


def _table_data(schema: Schema, n_rows: int, cells: dict[str, list]) -> SchemaData:
    data = SchemaData(schema)
    data.cardinality[schema.root.id] = n_rows
    for cid in schema.root.children:
        child = schema.node(cid)
        data.columns[cid] = _column(child, cells[child.name], schema.path_of(cid), range(n_rows))
    return data.finalize()


def _require_flat(schema: Schema) -> None:
    for cid in schema.root.children:
        if schema.node(cid).kind is not Kind.PRIMITIVE:
            raise SchemaError(f"table schema {schema.name!r} must be a record of primitives")


_BOOLEAN_CELLS = {"true": True, "1": True, "false": False, "0": False}


def _parse_cell(cell: str, prim_kind: str, colname: str, row_idx: int):
    if cell == "":
        return None
    if prim_kind == "number":
        try:
            return float(cell)
        except ValueError:
            raise IngestError(f"non-numeric value {cell!r} in column {colname!r}", ordinal=row_idx) from None
    if prim_kind == "boolean":
        try:
            return _BOOLEAN_CELLS[cell.lower()]
        except KeyError:
            raise IngestError(f"non-boolean value {cell!r} in column {colname!r}", ordinal=row_idx) from None
    return cell


def _parse_column(cells, prim_kind: str, colname: str) -> list:
    """One CSV column's cells parsed by kind; an empty cell is None."""
    try:
        if prim_kind == "number":
            return [float(c) if c else None for c in cells]
        if prim_kind == "boolean":
            return [_BOOLEAN_CELLS[c.lower()] if c else None for c in cells]
    except (ValueError, KeyError):
        # `_parse_cell` raises at the first cell that does not parse
        return [_parse_cell(c, prim_kind, colname, i) for i, c in enumerate(cells)]
    return [c or None for c in cells]


def _read_csv(source, no_header: str) -> tuple[list[str], list[list[str]]]:
    """The header row and the other records of a CSV file or text stream."""
    close = isinstance(source, (str, Path))
    fh = open(source, "r", encoding="utf-8", newline="") if close else source
    try:
        reader = _csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise IngestError(no_header)
        return header, list(reader)
    finally:
        if close:
            fh.close()


def _transpose(recs: list[list[str]], width: int, what: str) -> list:
    """The columns of `recs`, each of which must have `width` fields."""
    if set(map(len, recs)) - {width}:
        i = next(i for i, rec in enumerate(recs) if len(rec) != width)
        raise IngestError(f"{what} has {len(recs[i])} fields, header has {width}", ordinal=i)
    return [list(map(itemgetter(k), recs)) for k in range(width)]


@collector_paused()
def ingest_csv(source, schema: Schema) -> SchemaData:
    """Ingest an RFC-4180 CSV file with a header row matching the schema columns.

    Every row's length is checked first, then each column is parsed and
    type-checked whole.  Input with one fault raises the `IngestError` a
    row-by-row parse would; input with faults in several rows may name
    another of them (the first in the first column that has one).  Every
    fault named is a real one, with its row's ordinal.
    """
    _require_flat(schema)
    header, recs = _read_csv(source, f"table {schema.name!r}: input has no header row")
    declared = {schema.node(c).name: schema.node(c).primitive for c in schema.root.children}
    missing = set(declared) - set(header)
    extra = set(header) - set(declared)
    if missing or extra:
        raise IngestError(
            f"table {schema.name!r}: header mismatch (missing {sorted(missing)}, extra {sorted(extra)})"
        )
    columns = _transpose(recs, len(header), "row")
    cells = {name: _parse_column(col, declared[name], name) for name, col in zip(header, columns)}
    return _table_data(schema, len(recs), cells)


# ---------------------------------------------------------------------------
# ingestion: graphs


@collector_paused()
def ingest_graph_tables(vertices: dict[str, list[dict]], edges: dict[str, list], schema: Schema) -> SchemaData:
    """Ingest a property graph from in-memory tables.

    ``vertices[label]`` is a list of dicts, each with an ``"id"`` key plus the
    declared properties.  ``edges[label]`` is a list of ``(src_id, dst_id)`` or
    ``(src_id, dst_id, props)`` tuples.  Vertex order in the input defines the
    column order; edges are grouped by source vertex (stable within a source).
    """
    vertex_cells = {}
    for label in _vertex_records(schema):
        rows = vertices.get(label)
        if rows is None:
            continue  # `_graph_data` names the missing table
        try:
            ids = [row["id"] for row in rows]
        except KeyError:
            i = next(i for i, row in enumerate(rows) if "id" not in row)
            raise IngestError(f"vertex table {label!r} row {i} has no 'id'", ordinal=i) from None
        names = _graph_prop_kinds(schema, label)
        vertex_cells[label] = (ids, {name: [row.get(name) for row in rows] for name in names})
    edge_cells = {}
    for label, recs in edges.items():
        props = [rec[2] if len(rec) > 2 else {} for rec in recs]
        names = _graph_edge_prop_kinds(schema, label)
        cells = {name: [p.get(name) for p in props] for name in names}
        edge_cells[label] = ([rec[0] for rec in recs], [rec[1] for rec in recs], cells)
    return _graph_data(schema, vertex_cells, edge_cells)


@collector_paused()
def ingest_graph(vertex_files: dict[str, object], edge_files: dict[str, object], schema: Schema) -> SchemaData:
    """Ingest a property graph from CSV files.

    Vertex files: first column is the vertex id, remaining columns are
    properties matched by name.  Edge files: first two columns are source and
    destination vertex ids, remaining columns are edge properties.  Files
    are read column by column, with the fault rule of `ingest_csv`.
    """
    vertex_cells = {}
    for label, path in vertex_files.items():
        header, recs = _read_csv(path, f"vertex file for {label!r} has no header")
        columns = _transpose(recs, len(header), "vertex row")
        ids = columns[0] if columns else ()
        props = _parse_props(header[1:], columns[1:], _graph_prop_kinds(schema, label))
        vertex_cells[label] = (ids, props)

    edge_cells = {}
    for label, path in edge_files.items():
        header, recs = _read_csv(path, f"edge file for {label!r} has no header")
        lengths = set(map(len, recs))
        if lengths and min(lengths) < 2:
            i = next(i for i, rec in enumerate(recs) if len(rec) < 2)
            raise IngestError("edge row needs at least src and dst", ordinal=i)
        width = max(len(header), 2)
        if lengths - {width}:  # a short row lacks its last properties; a long row's extra cells are ignored
            recs = [rec[:width] + [""] * (width - len(rec)) for rec in recs]
        srcs, dsts, *columns = _transpose(recs, width, "edge row")
        edge_cells[label] = (srcs, dsts, _parse_props(header[2:], columns, _graph_edge_prop_kinds(schema, label)))

    return _graph_data(schema, vertex_cells, edge_cells)


def _parse_props(names: list[str], columns: list, kinds: dict[str, str]) -> dict[str, list]:
    """The parsed cells of each declared property column (by name, the last
    column of a repeated name winning)."""
    return {name: _parse_column(col, kinds[name], name) for name, col in zip(names, columns) if name in kinds}


def _graph_data(schema: Schema, vertex_cells: dict, edge_cells: dict) -> SchemaData:
    """A graph's arrays from ``vertex_cells[label] = (ids, {property: cells})``
    and ``edge_cells[label] = (sources, destinations, {property: cells})``."""
    data = SchemaData(schema)
    record_of = _vertex_records(schema)
    offsets: dict[str, dict] = {}
    for label, rid in record_of.items():
        if label not in vertex_cells:
            raise IngestError(f"no vertex table for label {label!r}")
        ids, props = vertex_cells[label]
        offsets[label] = _id_offsets(ids, label)
        count = data.cardinality[rid] = len(ids)
        for cid in schema.node(rid).children:
            child = schema.node(cid)
            if child.kind is Kind.PRIMITIVE:
                cells = props.get(child.name) or [None] * count
                data.columns[cid] = _column(child, cells, schema.path_of(cid), range(count))

    for n in schema.nodes:
        if n.kind is not Kind.ARRAY or not n.name.endswith("#"):
            continue
        label = n.name[:-1]
        src_label = schema.node(n.parent).name.lstrip("#")
        # target label comes from the single child that carries the pointers
        tgt_child = next(
            (schema.node(c) for c in n.children if schema.node(c).kind in (Kind.RECORD, Kind.INDICATOR)),
            None,
        )
        if tgt_child is None:
            raise SchemaError(f"edge node {n.name!r} has no target child")
        tgt_label = tgt_child.name.lstrip("#")
        srcs, dsts, props = edge_cells.get(label, ((), (), {}))
        src_idx = np.fromiter(map(offsets[src_label].get, srcs, repeat(-1)), dtype=np.int64, count=len(srcs))
        dst_idx = np.fromiter(map(offsets[tgt_label].get, dsts, repeat(-1)), dtype=np.int64, count=len(dsts))
        unknown = np.flatnonzero((src_idx < 0) | (dst_idx < 0))
        if unknown.size:
            i = int(unknown[0])
            side, vid = (src_label, srcs[i]) if src_idx[i] < 0 else (tgt_label, dsts[i])
            raise IngestError(f"edge {label!r} references unknown {side!r} id {vid!r}", ordinal=i)
        order = np.argsort(src_idx, kind="stable")
        n_src = data.cardinality[record_of[src_label]]
        data.counters[n.id] = CounterArray(node=n.id, boundaries=np.cumsum(np.bincount(src_idx, minlength=n_src)))
        tgt_record = record_of[tgt_label]
        data.indicators[tgt_child.id] = IndicatorArray(
            node=tgt_child.id,
            pointers=dst_idx[order],
            target=tgt_record,
            target_cardinality=data.cardinality[tgt_record],
        )
        for cid in n.children:
            child = schema.node(cid)
            if child.kind is not Kind.PRIMITIVE:
                continue
            cells = props.get(child.name)
            cells = [None] * order.size if cells is None else list(map(cells.__getitem__, order.tolist()))
            data.columns[cid] = _column(child, cells, schema.path_of(cid), order)

    return data.finalize()


def _vertex_records(schema: Schema) -> dict[str, int]:
    """Each vertex label's record node."""
    return {
        n.name.lstrip("#"): n.id
        for n in schema.nodes
        if n.kind is Kind.RECORD and (n.parent is None or n.name.startswith("#"))
    }


def _id_offsets(ids, label: str) -> dict:
    """Each vertex id's offset in its label's vertex order."""
    offsets = dict(zip(ids, range(len(ids))))
    if len(offsets) < len(ids):
        seen = set()
        for i, vid in enumerate(ids):
            if vid in seen:
                raise IngestError(f"duplicate vertex id {vid!r} for label {label!r}", ordinal=i)
            seen.add(vid)
    return offsets


def _graph_prop_kinds(schema: Schema, label: str) -> dict[str, str]:
    for n in schema.nodes:
        if n.kind is Kind.RECORD and n.name.lstrip("#") == label:
            return {
                schema.node(c).name: schema.node(c).primitive
                for c in n.children
                if schema.node(c).kind is Kind.PRIMITIVE
            }
    raise SchemaError(f"schema has no record for vertex label {label!r}")


def _graph_edge_prop_kinds(schema: Schema, label: str) -> dict[str, str]:
    for n in schema.nodes:
        if n.kind is Kind.ARRAY and n.name == f"{label}#":
            return {
                schema.node(c).name: schema.node(c).primitive
                for c in n.children
                if schema.node(c).kind is Kind.PRIMITIVE
            }
    return {}


# ---------------------------------------------------------------------------
# on-disk format


def _encode_values(col: PrimitiveColumn) -> bytes:
    """Validity bitmap, then the values.  A string column writes ``<i4``
    codes, its ``<u4`` dictionary size and entry byte lengths, then the
    entries' UTF-8 bytes back to back."""
    parts = [np.packbits(col.validity.astype(np.uint8)).tobytes()]
    if col.kind in ("number", "null"):
        parts.append(col.stored.astype("<f8").tobytes())
    elif col.kind == "boolean":
        parts.append(col.stored.astype(np.uint8).tobytes())
    elif col.kind == "string":
        d = col.dictionary
        parts += [col.stored.astype("<i4").tobytes(), struct.pack("<I", len(d)), d.lengths.astype("<u4").tobytes(), d.blob]
    else:
        raise StoreError(f"cannot encode primitive kind {col.kind!r}")
    return b"".join(parts)


def _decode_column(nid: int, kind: str, buf: memoryview, count: int) -> PrimitiveColumn:
    """Decode a value payload; dictionary entries are decoded on first use."""
    nvalid = (count + 7) // 8
    validity = np.unpackbits(np.frombuffer(buf[:nvalid], dtype=np.uint8), count=count).astype(bool)
    buf = buf[nvalid:]
    if kind in ("number", "null"):
        values = np.frombuffer(buf[: 8 * count], dtype="<f8").copy()
    elif kind == "boolean":
        values = np.frombuffer(buf[:count], dtype=np.uint8).astype(bool)
    elif kind == "string":
        if len(buf) < 4 * count + 4:
            raise StoreError(f"column {nid}: string payload is truncated")
        codes = np.frombuffer(buf[: 4 * count], dtype="<i4").astype(np.int32)
        (size,) = struct.unpack("<I", buf[4 * count : 4 * count + 4])
        blob_at = 4 * count + 4 + 4 * size
        if len(buf) < blob_at:
            raise StoreError(f"column {nid}: string payload is truncated")
        lengths = np.frombuffer(buf[4 * count + 4 : blob_at], dtype="<u4").astype(np.int64)
        blob = bytes(buf[blob_at:])
        if int(lengths.sum(dtype=np.int64)) != len(blob):
            raise StoreError(f"column {nid}: string lengths do not match the payload")
        if count and (codes.min() < 0 or codes.max() >= size):
            raise StoreError(f"column {nid}: string codes fall outside the dictionary")
        return PrimitiveColumn(nid, kind, codes, validity, StringDictionary(lengths, blob))
    else:
        raise StoreError(f"cannot decode primitive kind {kind!r}")
    return PrimitiveColumn(node=nid, kind=kind, values=values, validity=validity)


def _encode_column_file(kind_code: int, cardinality: int, payload: bytes) -> bytes:
    header = MAGIC + struct.pack("<HBQ", FORMAT_VERSION, kind_code, cardinality)
    body = header + payload
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def write_column(path, kind_code: int, cardinality: int, payload: bytes) -> None:
    Path(path).write_bytes(_encode_column_file(kind_code, cardinality, payload))


_REINGEST = "rewrite the store with `quest ingest`"


def read_column(path) -> tuple[int, int, memoryview]:
    """Read and checksum one column file; returns (kind_code, cardinality, payload)."""
    raw = Path(path).read_bytes()
    if len(raw) < 19 or raw[:4] != MAGIC:
        raise StoreError(f"{path}: not a column file")
    body, trailer = raw[:-4], raw[-4:]
    (crc,) = struct.unpack("<I", trailer)
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise StoreError(f"{path}: checksum mismatch")
    version, kind_code, cardinality = struct.unpack("<HBQ", body[4:15])
    if version != FORMAT_VERSION:
        raise StoreError(f"{path}: format version {version}, not {FORMAT_VERSION}; {_REINGEST}")
    return kind_code, int(cardinality), memoryview(body)[15:]


def _node_file_payload(data: SchemaData, node) -> tuple[int, int, bytes] | None:
    """(kind_code, cardinality, payload) for one node, or None if it has no file."""
    nid = node.id
    has_counter = nid in data.counters
    has_column = nid in data.columns
    has_indicator = nid in data.indicators
    if has_counter and has_column:  # leaf array with scalar elements
        ctr = data.counters[nid]
        col = data.columns[nid]
        payload = struct.pack("<Q", ctr.cardinality) + ctr.boundaries.astype("<i8").tobytes()
        payload += _encode_values(col)
        return _ARRAY_KIND_BY_PRIM[col.kind], col.cardinality, payload
    if has_counter:
        ctr = data.counters[nid]
        return K_COUNTER, ctr.cardinality, ctr.boundaries.astype("<i8").tobytes()
    if has_column:
        col = data.columns[nid]
        return _VALUE_KIND_BY_PRIM[col.kind], col.cardinality, _encode_values(col)
    if has_indicator:
        ind = data.indicators[nid]
        return K_INDICATOR, ind.cardinality, ind.pointers.astype("<i8").tobytes()
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


def open_store(path) -> Store:
    """Open a store written by `write_store`.

    Every column file is read and CRC-checked here, so a corrupt file
    raises `StoreError` at open.  Counters, pointers, values, string
    codes and dictionaries and every validity bitmap are decoded here
    too; a dictionary entry is decoded to `str` on first use.  A store
    of another format version raises `StoreError`.
    """
    root = Path(path)
    mpath = root / "manifest.json"
    if not mpath.exists():
        raise StoreError(f"{root}: no manifest.json (not a store)")
    manifest = json.loads(mpath.read_text(encoding="utf-8"))
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise StoreError(f"{root}: store format version {version}, not {FORMAT_VERSION}; {_REINGEST}")
    store = Store(
        block_size=manifest.get("block_size", DEFAULT_BLOCK_SIZE),
        metadata_unit=manifest.get("metadata_unit", DEFAULT_METADATA_UNIT),
        path=root,
    )
    for name, sdoc in manifest.get("schemas", {}).items():
        schema = parse_schema(sdoc["manifest"])
        data = SchemaData(schema)
        path_to_id = {schema.path_of(n.id): n.id for n in schema.nodes}
        for npath, card in sdoc.get("cardinalities", {}).items():
            data.cardinality[path_to_id[npath]] = card
        for npath, ndoc in sdoc.get("nodes", {}).items():
            nid = path_to_id[npath]
            if "stats" in ndoc:
                data.stats[nid] = ColumnStats.from_json(ndoc["stats"])
            if "file" not in ndoc:
                continue
            kind_code, cardinality, payload = read_column(root / name / ndoc["file"])
            node = schema.node(nid)
            if kind_code == K_COUNTER:
                data.counters[nid] = CounterArray(
                    node=nid, boundaries=np.frombuffer(payload, dtype="<i8").copy()
                )
            elif kind_code == K_INDICATOR:
                ptrs = np.frombuffer(payload, dtype="<i8").copy()
                target = node.target if node.target is not None else nid
                data.indicators[nid] = IndicatorArray(
                    node=nid,
                    pointers=ptrs,
                    target=target,
                    target_cardinality=sdoc["cardinalities"][schema.path_of(target)],
                )
            elif kind_code in (K_ARRAY_NUMBER, K_ARRAY_STRING, K_ARRAY_BOOLEAN):
                (ctr_len,) = struct.unpack("<Q", payload[:8])
                boundaries = np.frombuffer(payload[8 : 8 + 8 * ctr_len], dtype="<i8").copy()
                data.counters[nid] = CounterArray(node=nid, boundaries=boundaries)
                prim = {K_ARRAY_NUMBER: "number", K_ARRAY_STRING: "string", K_ARRAY_BOOLEAN: "boolean"}[kind_code]
                data.columns[nid] = _decode_column(nid, prim, payload[8 + 8 * ctr_len :], cardinality)
            else:
                prim = {K_NUMBER: "number", K_STRING: "string", K_BOOLEAN: "boolean"}[kind_code]
                if node.primitive == "null":
                    prim = "null"
                data.columns[nid] = _decode_column(nid, prim, payload, cardinality)
        data.validate()
        store.add(data)
    return store
