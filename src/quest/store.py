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
import json
import math
import struct
import zlib
from collections import Counter as _TallyCounter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
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

_MISSING = object()


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
        encoded = [s.encode("utf-8") for s in ordered]
        out = cls(np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded)), b"".join(encoded))
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

    def entries(self) -> list[str]:
        return self.decode(np.arange(len(self))).tolist()

    def codes_of(self, values: list[str]) -> np.ndarray:
        """The code of each of `values`, -1 for one the column never holds."""
        lookup = dict(zip(self.entries(), range(len(self))))
        return np.fromiter(map(lookup.get, values, repeat(-1)), dtype=np.int32, count=len(values))


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
            starts = (positions * unit_size // self.block_size).astype(np.int64)
            steps = np.diff(starts)
            if (steps >= 0).all():  # sorted, as every scan's positions are
                nblocks = 1 + int(np.count_nonzero(steps))
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
# ingestion: documents


def _coerce(value, prim_kind: str, path: str, ordinal: int):
    """Type-check one scalar; returns (value, valid). None means null."""
    if value is None or value is _MISSING:
        defaults = {"number": 0.0, "string": "", "boolean": False, "null": 0.0}
        return defaults[prim_kind], False
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


def _column_from_buffers(nid, prim_kind, raw, valid) -> PrimitiveColumn:
    validity = np.asarray(valid, dtype=bool)
    if prim_kind == "string":
        # nulls hold "", so "" is in the dictionary whenever a null is
        ordered = sorted(set(raw))
        code_of = dict(zip(ordered, range(len(ordered))))
        codes = np.fromiter(map(code_of.__getitem__, raw), dtype=np.int32, count=len(raw))
        return PrimitiveColumn(nid, prim_kind, codes, validity, StringDictionary.from_sorted(ordered))
    dtype = bool if prim_kind == "boolean" else np.float64
    return PrimitiveColumn(node=nid, kind=prim_kind, values=np.asarray(raw, dtype=dtype), validity=validity)


def ingest_json(source, schema: Schema) -> SchemaData:
    """Shred a stream of documents (dicts, JSON lines, or a file path)."""
    docs = _document_iter(source)
    vals: dict[int, list] = {n.id: [] for n in schema.nodes if n.has_values}
    valid: dict[int, list] = {nid: [] for nid in vals}
    bounds: dict[int, list] = {n.id: [] for n in schema.nodes if n.link is Link.COUNTER}
    counts: dict[int, int] = {nid: 0 for nid in bounds}

    def shred(node, value, ordinal):
        path = schema.path_of(node.id)
        if node.kind is Kind.RECORD:
            if value is _MISSING or value is None:
                value = {}
            if not isinstance(value, dict):
                raise IngestError(f"expected an object, got {value!r}", path=path, ordinal=ordinal)
            known = {schema.node(c).name for c in node.children}
            unknown = set(value) - known
            if unknown:
                raise IngestError(f"unknown fields {sorted(unknown)}", path=path, ordinal=ordinal)
            for cid in node.children:
                child = schema.node(cid)
                shred(child, value.get(child.name, _MISSING), ordinal)
        elif node.kind is Kind.ARRAY:
            if value is _MISSING or value is None:
                value = []
            if not isinstance(value, list):
                raise IngestError(f"expected an array, got {value!r}", path=path, ordinal=ordinal)
            counts[node.id] += len(value)
            bounds[node.id].append(counts[node.id])
            if node.has_values:
                for item in value:
                    v, ok = _coerce(item, node.primitive, path, ordinal)
                    vals[node.id].append(v)
                    valid[node.id].append(ok)
            else:
                for item in value:
                    if not isinstance(item, dict):
                        raise IngestError(
                            f"array elements must be objects, got {item!r}", path=path, ordinal=ordinal
                        )
                    known = {schema.node(c).name for c in node.children}
                    unknown = set(item) - known
                    if unknown:
                        raise IngestError(f"unknown fields {sorted(unknown)}", path=path, ordinal=ordinal)
                    for cid in node.children:
                        child = schema.node(cid)
                        shred(child, item.get(child.name, _MISSING), ordinal)
        elif node.kind is Kind.PRIMITIVE:
            v, ok = _coerce(value, node.primitive, path, ordinal)
            vals[node.id].append(v)
            valid[node.id].append(ok)
        else:
            raise IngestError("indicator fields cannot be ingested from documents", path=path, ordinal=ordinal)

    n_docs = 0
    for ordinal, doc in enumerate(docs):
        shred(schema.root, doc, ordinal)
        n_docs += 1

    data = SchemaData(schema)
    data.cardinality[schema.root.id] = n_docs
    for nid, blist in bounds.items():
        data.counters[nid] = CounterArray(node=nid, boundaries=np.asarray(blist, dtype=np.int64))
    for nid in vals:
        node = schema.node(nid)
        data.columns[nid] = _column_from_buffers(nid, node.primitive, vals[nid], valid[nid])
    return data.finalize()


def _document_iter(source):
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    yield json.loads(line)
        return
    for item in source:
        if isinstance(item, (str, bytes)):
            item = json.loads(item)
        yield item


# ---------------------------------------------------------------------------
# ingestion: tables


def ingest_rows(rows: list[dict], schema: Schema) -> SchemaData:
    """Ingest an already-parsed table: one dict per row, keys = column names."""
    _require_flat(schema)
    data = SchemaData(schema)
    data.cardinality[schema.root.id] = len(rows)
    for cid in schema.root.children:
        child = schema.node(cid)
        raw, ok = [], []
        for i, row in enumerate(rows):
            v, valid = _coerce(row.get(child.name), child.primitive, schema.path_of(cid), i)
            raw.append(v)
            ok.append(valid)
        data.columns[cid] = _column_from_buffers(cid, child.primitive, raw, ok)
    return data.finalize()


def _require_flat(schema: Schema) -> None:
    for cid in schema.root.children:
        if schema.node(cid).kind is not Kind.PRIMITIVE:
            raise SchemaError(f"table schema {schema.name!r} must be a record of primitives")


def _parse_cell(cell: str, prim_kind: str, colname: str, row_idx: int):
    if cell == "":
        return None
    if prim_kind == "number":
        try:
            return float(cell)
        except ValueError:
            raise IngestError(f"non-numeric value {cell!r} in column {colname!r}", ordinal=row_idx) from None
    if prim_kind == "boolean":
        low = cell.lower()
        if low in ("true", "1"):
            return True
        if low in ("false", "0"):
            return False
        raise IngestError(f"non-boolean value {cell!r} in column {colname!r}", ordinal=row_idx)
    return cell


def ingest_csv(source, schema: Schema) -> SchemaData:
    """Ingest an RFC-4180 CSV file with a header row matching the schema columns."""
    _require_flat(schema)
    close = False
    if isinstance(source, (str, Path)):
        fh = open(source, "r", encoding="utf-8", newline="")
        close = True
    else:
        fh = source
    try:
        reader = _csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"table {schema.name!r}: input has no header row") from None
        declared = {schema.node(c).name: schema.node(c) for c in schema.root.children}
        missing = set(declared) - set(header)
        extra = set(header) - set(declared)
        if missing or extra:
            raise IngestError(
                f"table {schema.name!r}: header mismatch (missing {sorted(missing)}, extra {sorted(extra)})"
            )
        rows = []
        for idx, rec in enumerate(reader):
            if len(rec) != len(header):
                raise IngestError(f"row has {len(rec)} fields, header has {len(header)}", ordinal=idx)
            row = {}
            for colname, cell in zip(header, rec):
                row[colname] = _parse_cell(cell, declared[colname].primitive, colname, idx)
            rows.append(row)
    finally:
        if close:
            fh.close()
    return ingest_rows(rows, schema)


# ---------------------------------------------------------------------------
# ingestion: graphs


def ingest_graph_tables(vertices: dict[str, list[dict]], edges: dict[str, list], schema: Schema) -> SchemaData:
    """Ingest a property graph from in-memory tables.

    ``vertices[label]`` is a list of dicts, each with an ``"id"`` key plus the
    declared properties.  ``edges[label]`` is a list of ``(src_id, dst_id)`` or
    ``(src_id, dst_id, props)`` tuples.  Vertex order in the input defines the
    column order; edges are grouped by source vertex (stable within a source).
    """
    data = SchemaData(schema)
    record_of: dict[str, int] = {}
    for n in schema.nodes:
        if n.kind is Kind.RECORD and (n.parent is None or n.name.startswith("#")):
            record_of[n.name.lstrip("#")] = n.id

    offsets: dict[str, dict] = {}
    for label, rid in record_of.items():
        rows = vertices.get(label)
        if rows is None:
            raise IngestError(f"no vertex table for label {label!r}")
        idx = {}
        for i, row in enumerate(rows):
            if "id" not in row:
                raise IngestError(f"vertex table {label!r} row {i} has no 'id'", ordinal=i)
            if row["id"] in idx:
                raise IngestError(f"duplicate vertex id {row['id']!r} for label {label!r}", ordinal=i)
            idx[row["id"]] = i
        offsets[label] = idx
        data.cardinality[rid] = len(rows)
        node = schema.node(rid)
        for cid in node.children:
            child = schema.node(cid)
            if child.kind is not Kind.PRIMITIVE:
                continue
            raw, ok = [], []
            for i, row in enumerate(rows):
                v, valid = _coerce(row.get(child.name), child.primitive, schema.path_of(cid), i)
                raw.append(v)
                ok.append(valid)
            data.columns[cid] = _column_from_buffers(cid, child.primitive, raw, ok)

    for n in schema.nodes:
        if n.kind is not Kind.ARRAY or not n.name.endswith("#"):
            continue
        label = n.name[:-1]
        src_label = schema.node(n.parent).name.lstrip("#")
        rows = edges.get(label, [])
        src_idx, dst_idx, props = [], [], []
        # target label comes from the single child that carries the pointers
        tgt_child = next(
            (schema.node(c) for c in n.children if schema.node(c).kind in (Kind.RECORD, Kind.INDICATOR)),
            None,
        )
        if tgt_child is None:
            raise SchemaError(f"edge node {n.name!r} has no target child")
        tgt_label = tgt_child.name.lstrip("#")
        for i, rec in enumerate(rows):
            src, dst = rec[0], rec[1]
            extra = rec[2] if len(rec) > 2 else {}
            if src not in offsets[src_label]:
                raise IngestError(f"edge {label!r} references unknown {src_label!r} id {src!r}", ordinal=i)
            if dst not in offsets[tgt_label]:
                raise IngestError(f"edge {label!r} references unknown {tgt_label!r} id {dst!r}", ordinal=i)
            src_idx.append(offsets[src_label][src])
            dst_idx.append(offsets[tgt_label][dst])
            props.append(extra)
        order = np.argsort(np.asarray(src_idx, dtype=np.int64), kind="stable") if src_idx else np.array([], dtype=np.int64)
        src_sorted = np.asarray(src_idx, dtype=np.int64)[order]
        dst_sorted = np.asarray(dst_idx, dtype=np.int64)[order]
        n_src = data.cardinality[record_of[src_label]]
        degree = np.bincount(src_sorted, minlength=n_src) if len(src_sorted) else np.zeros(n_src, dtype=np.int64)
        data.counters[n.id] = CounterArray(node=n.id, boundaries=np.cumsum(degree).astype(np.int64))
        tgt_record = record_of[tgt_label]
        pointers = IndicatorArray(
            node=tgt_child.id,
            pointers=dst_sorted,
            target=tgt_record,
            target_cardinality=data.cardinality[tgt_record],
        )
        data.indicators[tgt_child.id] = pointers
        for cid in n.children:
            child = schema.node(cid)
            if child.kind is not Kind.PRIMITIVE:
                continue
            raw, ok = [], []
            for j in order.tolist():
                v, valid = _coerce(props[j].get(child.name), child.primitive, schema.path_of(cid), j)
                raw.append(v)
                ok.append(valid)
            data.columns[cid] = _column_from_buffers(cid, child.primitive, raw, ok)

    return data.finalize()


def ingest_graph(vertex_files: dict[str, object], edge_files: dict[str, object], schema: Schema) -> SchemaData:
    """Ingest a property graph from CSV files.

    Vertex files: first column is the vertex id, remaining columns are
    properties matched by name.  Edge files: first two columns are source and
    destination vertex ids, remaining columns are edge properties.
    """
    vertices: dict[str, list[dict]] = {}
    for label, path in vertex_files.items():
        rows = []
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = _csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise IngestError(f"vertex file for {label!r} has no header")
            prop_kinds = _graph_prop_kinds(schema, label)
            for idx, rec in enumerate(reader):
                if len(rec) != len(header):
                    raise IngestError(f"vertex row has {len(rec)} fields, header has {len(header)}", ordinal=idx)
                row = {"id": rec[0]}
                for colname, cell in zip(header[1:], rec[1:]):
                    kind = prop_kinds.get(colname, "string")
                    row[colname] = _parse_cell(cell, kind, colname, idx)
                rows.append(row)
        vertices[label] = rows

    edges: dict[str, list] = {}
    for label, path in edge_files.items():
        recs = []
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = _csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise IngestError(f"edge file for {label!r} has no header")
            prop_kinds = _graph_edge_prop_kinds(schema, label)
            for idx, rec in enumerate(reader):
                if len(rec) < 2:
                    raise IngestError(f"edge row needs at least src and dst", ordinal=idx)
                props = {}
                for colname, cell in zip(header[2:], rec[2:]):
                    kind = prop_kinds.get(colname, "string")
                    props[colname] = _parse_cell(cell, kind, colname, idx)
                recs.append((rec[0], rec[1], props))
        edges[label] = recs

    return ingest_graph_tables(vertices, edges, schema)


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
