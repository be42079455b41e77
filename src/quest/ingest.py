"""Ingestion: tables, documents and property graphs shredded into arrays.

Every input family is shredded into columns of cells (Python values,
None for null), and each column is type-checked and built as a whole.
Ingest holds all its input's parsed values at once, so it runs with the
cyclic collector paused (see `collector_paused`).  `finalize` then
derives the remaining cardinalities, builds each column's statistics and
validates the arrays.

Queries never run this code, so `quest query` does not import it.
"""
from __future__ import annotations

import csv as _csv
import json
from collections import Counter as _TallyCounter
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .delivery import Mapping
from .errors import IngestError, SchemaError
from .schema import Kind, Link, Schema
from .store import (
    ColumnStats,
    PrimitiveColumn,
    SchemaData,
    StringDictionary,
    collector_paused,
    number_column,
)

# ---------------------------------------------------------------------------
# per-column statistics (used by the optimizer's selectivity estimates)

HISTOGRAM_BUCKETS = 64
MCV_KEEP = 16


def build_stats(column: PrimitiveColumn) -> ColumnStats:
    stats = ColumnStats(cardinality=column.cardinality, unit_size=round(column.unit_size, 4))
    if column.dictionary is not None:
        return _string_stats(column, stats)
    valid = column.values[column.validity]
    n = len(valid)
    if n == 0:
        stats.distinct = 0
        return stats
    if column.kind == "number" and np.isnan(valid).any():
        # a Counter keeps every NaN apart, where `np.unique` merges them
        tally = _TallyCounter(valid.tolist())
        ordered = sorted(tally)
        stats.distinct, stats.vmin, stats.vmax = len(ordered), ordered[0], ordered[-1]
        top = tally.most_common(MCV_KEEP)
    else:
        distinct, inverse, counts = np.unique(valid, return_inverse=True, return_counts=True)
        first = np.full(distinct.size, n)
        np.minimum.at(first, inverse, np.arange(n))
        # each value as first seen, as a Counter keys it: of 0.0 and -0.0,
        # which `np.unique` merges, the one seen first stands for both
        distinct = valid[first]
        stats.distinct = int(distinct.size)
        stats.vmin, stats.vmax = distinct[[0, -1]].tolist()
        at = _most_common(counts, first, n)
        top = zip(distinct[at].tolist(), counts[at].tolist())
    stats.mcv = {v: c / column.cardinality for v, c in top}
    if column.kind == "number":
        svals = np.sort(np.asarray(valid, dtype=np.float64))
        cuts = np.linspace(0, n - 1, HISTOGRAM_BUCKETS + 1).astype(np.int64)
        stats.bounds = [float(svals[i]) for i in cuts]
    return stats


def _most_common(counts: np.ndarray, first: np.ndarray, n: int) -> np.ndarray:
    """The indexes of the `MCV_KEEP` values with the largest `counts`, most
    common first and ties to the smallest `first` (the value seen first),
    as `Counter.most_common` orders them.  `n` bounds `counts` and `first`."""
    key = (n - counts) * n + first  # no two values share a first position
    top = np.argpartition(key, MCV_KEEP)[:MCV_KEEP] if key.size > MCV_KEEP else np.arange(key.size)
    return top[np.argsort(key[top])]


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
    first = np.full(len(column.dictionary), codes.size)
    np.minimum.at(first, codes, np.arange(codes.size))
    top = present[_most_common(counts[present], first[present], codes.size)]
    shares = (counts[top] / column.cardinality).tolist()
    stats.mcv = dict(zip(column.dictionary.decode(top).tolist(), shares))
    return stats


def finalize(data: SchemaData) -> SchemaData:
    """Derive identity-link cardinalities, build stats, and validate."""
    schema = data.schema
    for nid in schema.preorder:
        node = schema.node(nid)
        if node.link is Link.ROOT:
            data.cardinality.setdefault(nid, 0)
        elif node.link is Link.COUNTER:
            data.cardinality[nid] = data.counters[nid].lower_cardinality
        elif node.link is Link.INDICATOR:
            pass  # set explicitly at ingest (vertex count)
        else:
            data.cardinality[nid] = data.cardinality[node.parent]
    for nid, col in data.columns.items():
        data.stats[nid] = build_stats(col)
    data.validate()
    return data


# ---------------------------------------------------------------------------
# columns of cells


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
    if node.primitive == "boolean":
        return PrimitiveColumn(node.id, "boolean", np.asarray(raw, dtype=bool), validity)
    return number_column(node.id, node.primitive, raw, validity)


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
    return finalize(data)


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
        data.counters[node.id] = Mapping(int(lengths.sum()), boundaries=np.cumsum(lengths))
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
    return finalize(data)


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
        data.counters[n.id] = Mapping(src_idx.size, boundaries=np.cumsum(np.bincount(src_idx, minlength=n_src)))
        data.indicators[tgt_child.id] = Mapping(data.cardinality[record_of[tgt_label]], pointers=dst_idx[order])
        for cid in n.children:
            child = schema.node(cid)
            if child.kind is not Kind.PRIMITIVE:
                continue
            cells = props.get(child.name)
            cells = [None] * order.size if cells is None else list(map(cells.__getitem__, order.tolist()))
            data.columns[cid] = _column(child, cells, schema.path_of(cid), order)

    return finalize(data)


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

