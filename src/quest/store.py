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
CRC32 trailer; offsets are 64-bit little-endian.  An opened store reads a
schema's files on the first use of its arrays (see `open_store`).  All reads
go through the owning `Store` so that I/O counters reflect what a query
actually touched.
"""
from __future__ import annotations

import bisect
import gc
import json
import math
import os
import shutil
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from .errors import StoreError
from .schema import Link, Schema, parse_schema, serialize_schema

MAGIC = b"QSTC"
FORMAT_VERSION = 2
# a schema's persisted Skip-Tree lives in this subdirectory of its own
SKIPTREE_DIR = "_skiptree"
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
# per-column statistics (used by the optimizer's selectivity estimates;
# `ingest.build_stats` builds them)


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

    Data opened from disk is given `load`, which reads its arrays: the
    first use of `columns`, `counters` or `indicators` calls it and
    validates what it returns (see `open_store`).  A load that fails
    keeps no arrays, and every later use raises its error again.
    """

    def __init__(self, schema: Schema, load=None):
        self.schema = schema
        self.cardinality: dict[int, int] = {}
        self.stats: dict[int, ColumnStats] = {}
        # height-0 Skip-Tree for delivery without an index
        # (`skiptree.layered_tree` builds it on first use)
        self.layered_tree = None
        self._load = load
        self._arrays = None if load else ({}, {}, {})
        self._failure: str | None = None

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def columns(self) -> dict[int, PrimitiveColumn]:
        return self._loaded()[0]

    @property
    def counters(self) -> dict[int, CounterArray]:
        return self._loaded()[1]

    @property
    def indicators(self) -> dict[int, IndicatorArray]:
        return self._loaded()[2]

    def _loaded(self) -> tuple[dict, dict, dict]:
        if self._arrays is None:
            if self._failure is not None:
                raise StoreError(self._failure)
            try:
                self._arrays = self._load()
                self.validate()
            except (StoreError, OSError) as exc:
                self._arrays = None
                self._failure = str(exc)
                raise StoreError(self._failure) from exc
        return self._arrays

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


def _stamp(path) -> tuple[int, int]:
    """A file's size and modification time in ns, from one `stat`."""
    st = os.stat(path)
    return st.st_size, st.st_mtime_ns


def read_column(path, stamp: tuple[int, int] | None = None) -> tuple[int, int, memoryview]:
    """Read and checksum one column file; returns (kind_code, cardinality, payload).

    With `stamp` (see `_stamp`), a file whose size or modification time
    differs from it raises `StoreError`.
    """
    with open(path, "rb") as fh:
        if stamp is not None:
            st = os.fstat(fh.fileno())
            if (st.st_size, st.st_mtime_ns) != stamp:
                raise StoreError(f"{path}: changed after the store was opened; reopen it, or {_REINGEST}")
        raw = fh.read()
    if len(raw) < 19 or raw[:4] != MAGIC:
        raise StoreError(f"{path}: not a column file")
    body = memoryview(raw)[:-4]
    (crc,) = struct.unpack("<I", raw[-4:])
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise StoreError(f"{path}: checksum mismatch")
    version, kind_code, cardinality = struct.unpack("<HBQ", body[4:15])
    if version != FORMAT_VERSION:
        raise StoreError(f"{path}: format version {version}, not {FORMAT_VERSION}; {_REINGEST}")
    return kind_code, int(cardinality), body[15:]


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
    """Persist every schema's arrays under `path` plus a manifest.json.

    A schema's persisted Skip-Tree is composed from the arrays written
    here, so each written schema's `SKIPTREE_DIR` is removed first.
    """
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
        if (sdir / SKIPTREE_DIR).exists():
            shutil.rmtree(sdir / SKIPTREE_DIR)
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

    Only ``manifest.json`` is read here: the schemas, cardinalities and
    column statistics, which are all that parsing, planning and loading
    a skip index need.  Each column file is only stat'ed.  A schema's
    files are read, CRC-checked and decoded together on the first use of
    its arrays (see `SchemaData`), so a query reads only the schemas it
    touches.  That load raises `StoreError` for a corrupt file, one of
    another format version, one whose header disagrees with the
    manifest, or one changed since the open.  A dictionary entry is
    decoded to `str` on first use.  A store of another format version
    raises `StoreError` here.
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
        path_to_id = {schema.path_of(n.id): n.id for n in schema.nodes}
        cardinality = {path_to_id[npath]: card for npath, card in sdoc.get("cardinalities", {}).items()}
        files = []
        stats = {}
        for npath, ndoc in sdoc.get("nodes", {}).items():
            nid = path_to_id[npath]
            if "stats" in ndoc:
                stats[nid] = ColumnStats.from_json(ndoc["stats"])
            if "file" in ndoc:
                fpath = root / name / ndoc["file"]
                files.append((nid, fpath, ndoc["kind_code"], ndoc["cardinality"], _stamp(fpath)))
        data = SchemaData(schema, load=partial(_read_schema_files, schema, cardinality, files))
        data.cardinality, data.stats = cardinality, stats
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


def _read_schema_files(schema: Schema, cardinality: dict, files: list) -> tuple[dict, dict, dict]:
    """The columns, counters and indicators in one schema's files.

    `files` holds (node, path, kind code, cardinality, stamp) per file,
    the middle two as the manifest gives them.
    """
    columns, counters, indicators = {}, {}, {}
    for nid, fpath, kind_code, count, stamp in files:
        found = read_column(fpath, stamp)
        if found[:2] != (kind_code, count):
            raise StoreError(
                f"{fpath}: the header gives kind {found[0]} and cardinality {found[1]}, the manifest "
                f"kind {kind_code} and cardinality {count}; {_REINGEST}"
            )
        payload = found[2]
        node = schema.node(nid)
        if kind_code == K_COUNTER:
            counters[nid] = CounterArray(node=nid, boundaries=np.frombuffer(payload, dtype="<i8").copy())
        elif kind_code == K_INDICATOR:
            target = node.target if node.target is not None else nid
            indicators[nid] = IndicatorArray(
                node=nid,
                pointers=np.frombuffer(payload, dtype="<i8").copy(),
                target=target,
                target_cardinality=cardinality[target],
            )
        elif kind_code in (K_ARRAY_NUMBER, K_ARRAY_STRING, K_ARRAY_BOOLEAN):
            (ctr_len,) = struct.unpack("<Q", payload[:8])
            boundaries = np.frombuffer(payload[8 : 8 + 8 * ctr_len], dtype="<i8").copy()
            counters[nid] = CounterArray(node=nid, boundaries=boundaries)
            columns[nid] = _decode_column(nid, _PRIMITIVE_OF_KIND[kind_code], payload[8 + 8 * ctr_len :], count)
        else:
            prim = "null" if node.primitive == "null" else _PRIMITIVE_OF_KIND[kind_code]
            columns[nid] = _decode_column(nid, prim, payload, count)
    return columns, counters, indicators
