import csv
import hashlib
import io
import json
import operator
import os
import random
import zlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from quest.cli import main
from quest.datagen import generate, random_corpus
from quest.delivery import Mapping
from quest.engine import run_query
from quest.errors import IngestError, StoreError
from quest.schema import Kind, expand_graph_schema, parse_schema
from quest.ingest import (
    MCV_KEEP,
    build_stats,
    ingest_csv,
    ingest_graph,
    ingest_graph_tables,
    ingest_json,
    ingest_rows,
)
from quest.store import (
    K_COUNTER,
    K_INDICATOR,
    PrimitiveColumn,
    IOStats,
    Store,
    StringDictionary,
    _decode_column,
    _encode_uints,
    _encode_values,
    _Payload,
    _read_schema_files,
    estimate_selectivity,
    number_column,
    open_store,
    write_column,
    write_store,
)

from conftest import (
    ADS_DOCS,
    ADVERTISER,
    CAMPAIGN,
    CLICKS,
    EMAIL,
    PEOPLE_MANIFEST,
    PERSON,
    SOCIAL_EDGE_ROWS,
    SOCIAL_EDGES,
    SOCIAL_VERTEX_ROWS,
    SOCIAL_VERTICES,
    WORD,
    WORDSET,
)


def test_golden_counters(ads_data):
    assert ads_data.counters[CAMPAIGN].boundaries.tolist() == [2, 3]
    assert ads_data.counters[WORD].boundaries.tolist() == [3, 5, 8]
    assert ads_data.counters[CLICKS].boundaries.tolist() == [1, 2, 4]
    assert ads_data.counters[PERSON].boundaries.tolist() == [2, 4, 5, 7]


def test_golden_cardinalities(ads_data):
    got = {nid: ads_data.cardinality[nid] for nid in range(7)}
    assert got == {ADVERTISER: 2, EMAIL: 2, CAMPAIGN: 3, WORDSET: 3, WORD: 8, CLICKS: 4, PERSON: 7}


def test_golden_values(ads_data):
    assert ads_data.columns[EMAIL].values.tolist() == ["e1", "e2"]
    assert ads_data.columns[WORD].values.tolist() == ["wA", "w2", "w3", "wA", "w5", "w6", "w7", "w8"]
    assert ads_data.columns[PERSON].values.tolist() == ["p1", "p2", "p3", "p4", "p5", "p6", "p7"]
    assert ads_data.columns[WORD].validity.all()


def test_counter_range(ads_data):
    # a counter is a Mapping from parents to children: parent 2 owns [2, 4)
    clicks = ads_data.counters[CLICKS]
    assert isinstance(clicks, Mapping) and clicks.pointers is None
    assert (clicks.upper_cardinality, clicks.lower_cardinality) == (3, 4)
    assert clicks.owner.tolist() == [0, 1, 2, 2]


def test_counter_must_not_decrease():
    with pytest.raises(StoreError, match="decreases"):
        Mapping(1, boundaries=np.array([2, 1]))
    # nor end short of its entries, nor point outside its lower space
    with pytest.raises(StoreError, match="ends at 2, not at its 3 entries"):
        Mapping(3, boundaries=np.array([1, 2]))
    with pytest.raises(StoreError, match=r"pointers span \[0, 2\], outside the 2 instances"):
        Mapping(2, pointers=np.array([0, 2]))


def test_missing_fields_become_nulls(ads_schema):
    data = ingest_json([{"Campaign": []}], ads_schema)
    assert data.columns[EMAIL].validity.tolist() == [False]
    assert data.cardinality[CAMPAIGN] == 0


def test_type_errors_carry_path_and_ordinal(ads_schema):
    with pytest.raises(IngestError) as err:
        ingest_json([{"Email": "ok", "Campaign": []}, {"Email": 5, "Campaign": []}], ads_schema)
    msg = str(err.value)
    assert "Advertiser.Email" in msg and "#1" in msg


def test_unknown_field_rejected(ads_schema):
    with pytest.raises(IngestError) as err:
        ingest_json([{"Email": "e", "Campaigns": []}], ads_schema)
    assert "Campaigns" in str(err.value)


def test_array_where_scalar_expected(ads_schema):
    with pytest.raises(IngestError):
        ingest_json([{"Email": "e", "Campaign": {"WordSet": {}}}], ads_schema)


def test_table_ingest(people_data):
    assert people_data.cardinality[0] == 7
    assert people_data.columns[1].values.tolist()[:3] == ["p1", "p2", "p3"]
    assert people_data.columns[2].values.dtype == np.float64


def test_csv_ingest(tmp_path, people_schema):
    path = tmp_path / "people.csv"
    path.write_text("PID,credit_score,balance\na,700,10\nb,,20\n")
    data = ingest_csv(path, people_schema)
    assert data.columns[2].values.tolist() == [700.0, 0.0]
    assert data.columns[2].validity.tolist() == [True, False]


def test_csv_header_mismatch(tmp_path, people_schema):
    path = tmp_path / "people.csv"
    path.write_text("PID,score\na,1\n")
    with pytest.raises(IngestError):
        ingest_csv(path, people_schema)


def test_csv_bad_number(tmp_path, people_schema):
    path = tmp_path / "people.csv"
    path.write_text("PID,credit_score,balance\na,seven,10\n")
    with pytest.raises(IngestError) as err:
        ingest_csv(path, people_schema)
    assert "credit_score" in str(err.value)


def test_graph_ingest_golden(social_data):
    # know edges grouped by source: p1->[p2,p3], p2->[p3], p3->[p1]
    assert social_data.counters[3].boundaries.tolist() == [2, 3, 4]
    assert social_data.indicators[4].pointers.tolist() == [1, 2, 2, 0]
    # like edges: p1->m1, p2->m1, p3->m2
    assert social_data.counters[5].boundaries.tolist() == [1, 2, 3]
    assert social_data.indicators[6].pointers.tolist() == [0, 0, 1]
    assert social_data.cardinality[0] == 3 and social_data.cardinality[6] == 2
    assert social_data.columns[7].values.tolist() == ["x", "y"]


def test_graph_dangling_edge_rejected(social_schema):
    edges = {"know": [("p1", "zz")], "like": []}
    with pytest.raises(IngestError):
        ingest_graph_tables(SOCIAL_VERTEX_ROWS, edges, social_schema)


def test_graph_duplicate_vertex_id_rejected(social_schema):
    vertices = {
        "Person": SOCIAL_VERTEX_ROWS["Person"] + [{"id": "p1", "name": "dup", "city": "x"}],
        "Message": SOCIAL_VERTEX_ROWS["Message"],
    }
    with pytest.raises(IngestError):
        ingest_graph_tables(vertices, SOCIAL_EDGE_ROWS, social_schema)


def test_stats_mcv_and_selectivity(ads_data):
    stats = ads_data.stats[WORD]
    assert stats.cardinality == 8 and stats.distinct == 7
    assert stats.mcv["wA"] == pytest.approx(2 / 8)
    assert estimate_selectivity(stats, "=", "wA") == pytest.approx(0.25)
    # every distinct value fits in the common-value list, so estimates are exact
    assert estimate_selectivity(stats, "=", "w2") == pytest.approx(1 / 8)
    assert estimate_selectivity(stats, "!=", "wA") == pytest.approx(0.75)


def test_string_stats_equal_a_counter_tally(people_schema):
    # 19 distinct values, most of them once: which 16 are kept, and in what
    # order, is decided by first appearance, as Counter.most_common decides it
    order = [5, 3, 19, 3, 0, 7, 12, 1, 2, 4, 6, 8, 9, 10, 11, 13, 14, 15, 16, 0]
    raw = [f"t{i:02d}" for i in order] + [None, None]
    data = ingest_rows([{"PID": v} for v in raw], people_schema)
    stats = data.stats[1]
    valid = [v for v in raw if v is not None]
    tally = Counter(valid)
    assert list(stats.mcv.items()) == [(v, c / len(raw)) for v, c in tally.most_common(MCV_KEEP)]
    assert stats.distinct == len(tally)
    assert (stats.vmin, stats.vmax) == (min(valid), max(valid))


def _counter_tally(column):
    """What `build_stats` recorded when it tallied every number and boolean
    column with a `Counter`: distinct count, min, max and common values."""
    tally = Counter(column.values[column.validity].tolist())
    ordered = sorted(tally)
    return len(tally), ordered[0], ordered[-1], [(v, c / column.cardinality) for v, c in tally.most_common(MCV_KEEP)]


_TIED = [float(v) for v in random.Random(4).choices(range(40), k=90)]
NAN = float("nan")
_rng = random.Random(0)
# -0.0 first, then 0.0 among 4000 values: `np.unique` sorts a 0.0 ahead of it
_ZERO_LATE = [-0.0] + [0.0 if _rng.random() < 0.05 else float(_rng.randrange(400)) for _ in range(4000)]


@pytest.mark.parametrize(
    "values",
    [
        _TIED,  # 40 values, many tied in count: the first seen of a tie wins
        [True, False, None, False, True, True, None],
        [1.0, NAN, 2.0, NAN, 1.0, None],  # a Counter keeps each NaN apart
        [0.0, -0.0, 1.0, -0.0, None],  # and both zeros under the first one's sign
        [-0.0, 2.0, 0.0, 0.0],
        [-0.0, 3.0, -0.0],
        _ZERO_LATE,
        [5.0, None],
    ],
    ids=["ties", "booleans", "nan", "zero-first", "minus-zero-first", "minus-zero-only", "zero-late", "one"],
)
def test_number_stats_equal_a_counter_tally(values):
    kind = "boolean" if isinstance(values[0], bool) else "number"
    cells = np.array([False if kind == "boolean" else 0.0 if v is None else v for v in values])
    column = PrimitiveColumn(0, kind, cells, [v is not None for v in values])
    stats = build_stats(column)
    # repr tells NaN and the sign of zero apart, and NaN equals itself there
    got = (stats.distinct, stats.vmin, stats.vmax, list(stats.mcv.items()))
    assert repr(got) == repr(_counter_tally(column))


def test_numeric_range_selectivity():
    values = np.arange(1000, dtype=np.float64)
    col = PrimitiveColumn(node=0, kind="number", values=values, validity=np.ones(1000, bool))
    stats = build_stats(col)
    assert estimate_selectivity(stats, "<", 250.0) == pytest.approx(0.25, abs=0.02)
    assert estimate_selectivity(stats, ">=", 900.0) == pytest.approx(0.10, abs=0.02)
    # equality on a value outside the common-value list falls back to 1/distinct
    assert estimate_selectivity(stats, "=", 123.0) == pytest.approx(1 / 1000)


def test_store_round_trip(tmp_path, multi_store):
    write_store(multi_store, tmp_path / "s1")
    loaded = open_store(tmp_path / "s1")
    for name, data in multi_store.datasets.items():
        other = loaded.data(name)
        assert other.cardinality == data.cardinality
        for nid, ctr in data.counters.items():
            assert other.counters[nid].boundaries.tolist() == ctr.boundaries.tolist()
        for nid, col in data.columns.items():
            assert other.columns[nid].values.tolist() == col.values.tolist()
            assert other.columns[nid].validity.tolist() == col.validity.tolist()
        for nid, ind in data.indicators.items():
            assert other.indicators[nid].pointers.tolist() == ind.pointers.tolist()
            assert other.indicators[nid].lower_cardinality == ind.lower_cardinality


def test_store_write_is_deterministic(tmp_path, multi_store):
    write_store(multi_store, tmp_path / "a")
    write_store(multi_store, tmp_path / "b")
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_reload_then_rewrite_is_byte_identical(tmp_path, multi_store):
    write_store(multi_store, tmp_path / "a")
    write_store(open_store(tmp_path / "a"), tmp_path / "b")
    for rel in sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file()):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel


def test_corrupt_column_detected(tmp_path, ads_store):
    write_store(ads_store, tmp_path / "s")
    target = next((tmp_path / "s" / "ads").glob("*.col"))
    raw = bytearray(target.read_bytes())
    raw[20] ^= 0xFF
    target.write_bytes(bytes(raw))
    # the open reads only the manifest; the schema's first use reads its files
    store = open_store(tmp_path / "s")
    with pytest.raises(StoreError, match="checksum"):
        store.data("ads").columns


def test_a_failed_load_raises_again_and_keeps_no_arrays(tmp_path, ads_store):
    write_store(ads_store, tmp_path / "s")
    target = tmp_path / "s" / "ads" / "Advertiser.Email.col"
    raw = bytearray(target.read_bytes())
    raw[-1] ^= 0xFF  # the checksum itself
    target.write_bytes(bytes(raw))
    data = open_store(tmp_path / "s").data("ads")
    with pytest.raises(StoreError, match="checksum") as first:
        data.counters
    for use in ("columns", "counters", "indicators", "counters"):
        with pytest.raises(StoreError) as again:
            getattr(data, use)
        assert str(again.value) == str(first.value)
    assert data._arrays is None


@pytest.mark.parametrize("change", ["rewritten", "touched"])
def test_a_file_changed_after_the_open_is_not_read(tmp_path, ads_store, change):
    write_store(ads_store, tmp_path / "s")
    target = tmp_path / "s" / "ads" / "Advertiser.Campaign.col"
    store = open_store(tmp_path / "s")
    if change == "rewritten":  # by another ingest, to the same size
        write_store(Store().add(ingest_json(ADS_DOCS[::-1], ads_store.schema("ads"))), tmp_path / "t")
        other = (tmp_path / "t" / "ads" / target.name).read_bytes()
        assert len(other) == len(target.read_bytes()) and other != target.read_bytes()
        target.write_bytes(other)
    else:  # the same bytes, with a later modification time
        st = target.stat()
        os.utime(target, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000))
    with pytest.raises(StoreError, match="changed after the store was opened.*quest ingest"):
        store.data("ads").columns
    # opened afresh, the store reads what is there now
    assert open_store(tmp_path / "s").data("ads").counters[CAMPAIGN].upper_cardinality == 2


def test_file_headers_must_match_the_manifest(tmp_path, ads_store):
    write_store(ads_store, tmp_path / "s")
    manifest = tmp_path / "s" / "manifest.json"
    good = manifest.read_text()
    for key, value in (("kind_code", 5), ("cardinality", 4)):
        doc = json.loads(good)
        doc["schemas"]["ads"]["nodes"]["Advertiser.Campaign"][key] = value
        manifest.write_text(json.dumps(doc))
        store = open_store(tmp_path / "s")
        with pytest.raises(StoreError, match="the header gives kind 4 and cardinality 2.*quest ingest"):
            store.data("ads").indicators


@pytest.mark.parametrize(
    "file, kind, entries, message",
    [
        ("Person.know#.col", K_COUNTER, [2, 1, 4], "counter decreases"),  # the parent of a child moves back
        ("Person.know#.#Person.col", K_INDICATOR, [1, 2, 3, 0], r"pointers span \[0, 3\], outside the 3"),
        ("Person.like#.col", K_COUNTER, [1, 2, 2], "counter ends at 2, not at its 3 entries"),  # manifest: 3 likes
    ],
)
def test_a_malformed_link_array_on_disk_is_a_data_error(tmp_path, multi_store, file, kind, entries, message):
    write_store(multi_store, tmp_path / "s")
    # a well-formed file: the header and CRC agree with the manifest
    target = tmp_path / "s" / "social" / file
    write_column(target, kind, len(entries), _encode_uints(np.asarray(entries)))
    store = open_store(tmp_path / "s")
    with pytest.raises(StoreError, match=f"{file}: {message}.*quest ingest"):
        store.data("social").columns
    assert store.data("ads").counters[CAMPAIGN].upper_cardinality == 2  # other schemas still load
    query = json.dumps({"from": "social", "fetch": ["social.name"]})
    for args in ([], ["--no-skiptree"], ["--oracle"]):
        result = CliRunner().invoke(main, ["query", "--store", str(tmp_path / "s"), *args, query])
        assert result.exit_code == 3, result.output
        assert file in result.stderr and "quest ingest" in result.stderr


def test_planning_and_index_load_read_no_column_file(tmp_path):
    from quest.optimizer import plan_query
    from quest.query import parse_query
    from quest.skiptree import build_skip_tree, load_skiptree, write_skiptree

    write_store(generate("tiny", seed=5).store(), tmp_path / "s")
    built = open_store(tmp_path / "s")
    for name in built.datasets:
        write_skiptree(build_skip_tree(built.data(name)), tmp_path / "s", built.schema(name))
    store = open_store(tmp_path / "s")
    for col in (tmp_path / "s").glob("*/*.col"):
        col.write_bytes(b"not a column file")
    doc = {
        "from": "people",
        "filters": [{"path": "people.segment", "op": "=", "value": "vip"}],
        "fetch": ["people.PID"],
    }
    schemas = {name: store.schema(name) for name in store.datasets}
    q = parse_query(schemas, doc)
    plan = plan_query(store, q)
    indexes = {name: load_skiptree(store, name) for name in store.datasets}
    assert all(build_skip_tree(store.data(name)) is indexes[name] for name in store.datasets)
    with pytest.raises(StoreError, match="changed after the store was opened"):
        run_query(store, doc, plan=plan, indexes=indexes)


def test_open_store_requires_manifest(tmp_path):
    with pytest.raises(StoreError):
        open_store(tmp_path)


def test_manifest_is_stable_json(tmp_path, ads_store):
    write_store(ads_store, tmp_path / "s")
    doc = json.loads((tmp_path / "s" / "manifest.json").read_text())
    assert doc["schemas"]["ads"]["cardinalities"]["Advertiser.Campaign.Clicks.Person"] == 7


def test_io_counters(ads_store):
    io = ads_store.io
    ads_store.scan_values("ads", WORD)
    assert io.columns_read == 1 and io.bytes_read > 0
    ads_store.read_link("ads", CAMPAIGN)
    assert io.metadata_reads == 1
    positions = np.array([0, 3])
    values, validity = ads_store.scan_values("ads", WORD, positions=positions)
    assert values.tolist() == ["wA", "wA"] and validity.all()
    assert io.columns_read == 2


def test_audit_mode_flags_reads_outside_context(ads_store):
    ads_store.io.audit_enabled = True
    bits = np.zeros(8, dtype=bool)
    bits[0] = True
    ads_store.scan_values("ads", WORD, positions=np.array([0, 3]), context_bits=bits)
    assert ads_store.io.audit_violations == 1
    assert ads_store.io.audit[-1]["violations"] == 1


# -- string columns: a sorted dictionary plus int32 codes --------------------

TEXT_MANIFEST = {
    "name": "text",
    "model": "document",
    "root": {
        "name": "doc",
        "kind": "record",
        "children": [
            {"name": "title", "kind": "primitive", "primitive": "string"},
            {"name": "tags", "kind": "array", "primitive": "string"},
            {"name": "never", "kind": "array", "primitive": "string"},
        ],
    },
}

# 1- to 4-byte UTF-8 sequences, empty strings, nulls, and an embedded and a
# trailing NUL next to the string they would collapse into as fixed-width
# bytes; `never` is always empty, so its column has no values at all
TEXT_DOCS = [
    {"title": "caf\u00e9", "tags": ["\u20ac", "\U0001d11e", ""], "never": []},
    {"title": None, "tags": []},
    {"title": "", "tags": [None, "a\u00e9\u20ac\U0001d11e", "plain"]},
    {"title": "\U0001f600\U0001f600", "tags": ["\u00df" * 40]},
    {"title": "a\x00b", "tags": ["end\x00", "end", "a\x00b", "plain"]},
]


def _raw_strings(docs, field: str) -> list:
    """A field's input values in column order, None for a null."""
    if field == "title":
        return [doc.get("title") for doc in docs]
    return [v for doc in docs for v in doc.get(field, [])]


def _walk_unit_size(values) -> float:
    if not len(values):
        return 8.0
    return sum(len(str(v).encode("utf-8")) + 4 for v in values) / len(values)


@pytest.mark.parametrize("docs", [TEXT_DOCS, []], ids=["mixed", "no-documents"])
def test_string_columns_round_trip_encoded(tmp_path, docs):
    schema = parse_schema(TEXT_MANIFEST)
    data = ingest_json(docs, schema)
    write_store(Store().add(data), tmp_path / "a")
    reopened = open_store(tmp_path / "a")
    loaded = reopened.data("text")
    assert len(loaded.columns) == 3
    for nid, col in data.columns.items():
        want = _raw_strings(docs, schema.node(nid).name)
        other = loaded.columns[nid]
        # fewer than 256 entries: one-byte codes, built and loaded alike
        assert other.stored.dtype == col.stored.dtype == np.uint8
        assert other.stored.tolist() == col.stored.tolist()
        assert other.unit_size == col.unit_size
        for column in (col, other):
            values = column.values.tolist()
            assert all(type(v) is str for v in values)
            assert [v if ok else None for v, ok in zip(values, column.validity.tolist())] == want
            assert [v for v, w in zip(values, want) if w is None] == [""] * want.count(None)
            assert column.dictionary.decode(np.arange(len(column.dictionary))).tolist() == sorted(set(values))
            assert column.unit_size == _walk_unit_size(values)
    write_store(reopened, tmp_path / "b")
    for rel in sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file()):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel


def test_opened_unit_size_equals_the_value_walk(tmp_path):
    write_store(generate("tiny", seed=5).store(), tmp_path / "s")
    store = open_store(tmp_path / "s")
    checked = 0
    for data in store.datasets.values():
        for col in data.columns.values():
            if col.kind != "string":
                continue
            size = col.unit_size  # computed from the codes and entry lengths
            assert "values" not in col.__dict__ and not col.dictionary._decoded.any()
            assert size == _walk_unit_size(col.values)
            checked += 1
    assert checked >= 10


def test_query_decodes_only_the_columns_it_reads(tmp_path):
    write_store(generate("tiny", seed=5).store(), tmp_path / "s")
    store = open_store(tmp_path / "s")
    people = store.data("people")
    result = run_query(
        store,
        {
            "from": "people",
            "filters": [{"path": "people.segment", "op": "=", "value": "vip"}],
            "fetch": ["people.PID"],
        },
    )
    assert result.rows
    path_of = store.schema("people").path_of
    decoded = {path_of(nid): int(col.dictionary._decoded.sum()) for nid, col in people.columns.items() if col.kind == "string"}
    # the filter compares codes; the fetch decodes the entries it returns
    assert decoded["people.segment"] == 0
    assert decoded["people.PID"] == len({row[0] for row in result.rows})
    for name, data in store.datasets.items():
        strings = [col for col in data.columns.values() if col.kind == "string"]
        assert strings, name
        assert not any("values" in col.__dict__ for col in strings), name
        if name != "people":
            assert not any(col.dictionary._decoded.any() for col in strings), name


def test_string_lengths_must_match_the_payload(tmp_path):
    data = ingest_json(TEXT_DOCS, parse_schema(TEXT_MANIFEST))
    write_store(Store().add(data), tmp_path / "s")
    target = tmp_path / "s" / "text" / "doc.title.col"
    good = target.read_bytes()
    n = len(TEXT_DOCS)
    codes_at = 15 + (n + 7) // 8  # after the header and the validity bitmap
    size_at = codes_at + 1 + good[codes_at] * n  # after the codes' width tag and the codes
    size = int.from_bytes(good[size_at : size_at + 4], "little")
    lengths_at = size_at + 4 + 1  # after the dictionary size and the lengths' width tag
    for offset, value, message in (
        (lengths_at, good[lengths_at] + 1, "string lengths"),  # low byte of the first entry length
        (codes_at + 1, size, "outside the dictionary"),  # low byte of the first code: one past the last entry
    ):
        body = bytearray(good[:-4])
        body[offset] = value
        target.write_bytes(bytes(body) + zlib.crc32(bytes(body)).to_bytes(4, "little"))
        store = open_store(tmp_path / "s")
        with pytest.raises(StoreError, match=message):
            store.data("text").columns


def test_other_format_versions_name_the_fix(tmp_path, ads_store):
    for version in (1, 2):  # 2 wrote every integer at 4 or 8 bytes and every number at 8
        write_store(ads_store, tmp_path / "s")
        manifest = tmp_path / "s" / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["format_version"] = version
        manifest.write_text(json.dumps(doc))
        with pytest.raises(StoreError, match=f"version {version}.*quest ingest"):
            open_store(tmp_path / "s")
        # a column file of another version, under a current manifest
        write_store(ads_store, tmp_path / "s")
        target = next((tmp_path / "s" / "ads").glob("*.col"))
        body = bytearray(target.read_bytes()[:-4])
        body[4:6] = version.to_bytes(2, "little")
        target.write_bytes(bytes(body) + zlib.crc32(bytes(body)).to_bytes(4, "little"))
        store = open_store(tmp_path / "s")
        with pytest.raises(StoreError, match=f"version {version}.*quest ingest"):
            store.data("ads").counters


@pytest.mark.parametrize("top, width", [(255, 1), (256, 2), (65535, 2), (65536, 4), (2**32 - 1, 4), (2**32, 8)])
def test_link_arrays_take_the_narrowest_width(tmp_path, social_schema, top, width):
    """A counter ending at `top` and a pointer array reaching it are
    written at `width` bytes an entry and reload bit-identical."""
    ids = {social_schema.path_of(n.id): n.id for n in social_schema.nodes}
    counter, pointers = ids["Person.know#"], ids["Person.know#.#Person"]
    target = social_schema.node(pointers).target
    entries = np.array([0, 1, top // 2, top], dtype=np.int64)
    files = []
    for nid, kind in ((counter, K_COUNTER), (pointers, K_INDICATOR)):
        path = tmp_path / f"{nid}.col"
        write_column(path, kind, entries.size, _encode_uints(entries))
        assert path.stat().st_size == 15 + 1 + width * entries.size + 4  # header, tag, entries, CRC
        files.append((nid, path, kind, entries.size, None))
    _, counters, indicators = _read_schema_files(social_schema, {counter: top, target: top + 1}, files)
    for array in (counters[counter].boundaries, indicators[pointers].pointers):
        assert array.dtype == np.int64 and array.tobytes() == entries.tobytes()


WIDE_MANIFEST = {
    "name": "wide",
    "model": "table",
    "root": {
        "name": "t",
        "kind": "record",
        "children": [
            {"name": "s", "kind": "primitive", "primitive": "string"},
            {"name": "x", "kind": "primitive", "primitive": "number"},
        ],
    },
}


def _reload_table(tmp_path, strings, numbers):
    """A `WIDE_MANIFEST` table of the given columns, as written and as
    reopened, and its directory."""
    rows = [{"s": a, "x": b} for a, b in zip(strings, numbers, strict=True)]
    data = ingest_rows(rows, parse_schema(WIDE_MANIFEST))
    write_store(Store().add(data), tmp_path / "s")
    return data, open_store(tmp_path / "s").data("wide"), tmp_path / "s" / "wide"


@pytest.mark.parametrize(
    "strings, code_width, length_width",
    [
        ([f"{i:03d}" for i in range(256)], 1, 1),
        ([f"{i:03d}" for i in range(257)], 2, 1),
        (["a" * 255, "b", "a" * 255], 1, 1),
        (["a" * 256, "b", "a" * 256], 1, 2),
        ([None] * 5, 1, 1),
        ([], 1, 1),
    ],
    ids=["256-entries", "257-entries", "255-bytes", "256-bytes", "all-null", "empty"],
)
def test_string_columns_take_the_narrowest_widths(tmp_path, strings, code_width, length_width):
    written, loaded, sdir = _reload_table(tmp_path, strings, [0.0] * len(strings))
    for nid, col in written.columns.items():
        if col.kind != "string":
            continue
        back = loaded.columns[nid]
        assert back.stored.dtype == col.stored.dtype == np.dtype(f"<u{code_width}")
        assert back.stored.tobytes() == col.stored.tobytes()
        assert back.validity.tobytes() == col.validity.tobytes()
        d = col.dictionary
        assert back.dictionary.lengths.dtype == np.int64 and back.dictionary.lengths.tolist() == d.lengths.tolist()
        assert back.dictionary.blob == d.blob
        n = len(strings)
        payload = (n + 7) // 8 + 1 + code_width * n + 4 + 1 + length_width * len(d) + len(d.blob)
        assert (sdir / "t.s.col").stat().st_size == 15 + payload + 4


@pytest.mark.parametrize(
    "numbers, offset_width",
    [
        ([-0.0, 1.0], None),
        ([float("nan"), 1.0], None),
        ([float("inf"), 1.0], None),
        ([float("-inf"), 1.0], None),
        ([0.5, 1.0], None),
        ([2.0**53, 2.0**53 - 1, 2.0**53 + 2], 1),
        ([0.0, 2.0**53], None),
        ([0.0, 2.0**32], None),  # a range past 4-byte offsets
        ([-(2.0**31), 2.0**31 - 1], 4),
        ([2.0**63, 2.0**63], None),  # no int64 holds it
        ([3.0, 7.0, 1000.0], 2),
        ([None] * 5, 1),  # nulls hold 0.0
        ([], None),
    ],
)
def test_number_columns_reload_bit_identical(tmp_path, numbers, offset_width):
    """Integral numbers are written, and held in memory, as offsets from
    their least at `offset_width` bytes, every other column as ``<f8``."""
    written, loaded, sdir = _reload_table(tmp_path, [""] * len(numbers), numbers)
    nid = next(nid for nid, col in written.columns.items() if col.kind == "number")
    back, col = loaded.columns[nid], written.columns[nid]
    want = np.dtype(np.float64) if offset_width is None else np.dtype(f"<u{offset_width}")
    assert back.stored.dtype == col.stored.dtype == want
    assert (back.base is None) == (offset_width is None) and back.base == col.base
    assert back.stored.tobytes() == col.stored.tobytes()
    values = np.array([0.0 if v is None else v for v in numbers], dtype=np.float64)  # nulls hold 0.0
    assert back.values.dtype == np.float64 and back.values.tobytes() == values.tobytes()
    n = len(numbers)
    values = 1 + (8 * n if offset_width is None else 8 + 1 + offset_width * n)  # encoding tag first
    assert (sdir / "t.x.col").stat().st_size == 15 + (n + 7) // 8 + values + 4


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats() | st.integers(-(2**40), 2**40).map(float), max_size=30))
def test_any_number_column_decodes_to_its_bits(values):
    col = PrimitiveColumn(0, "number", np.array(values, dtype=np.float64), np.ones(len(values), dtype=bool))
    payload = _Payload(memoryview(_encode_values(col)))
    back = _decode_column(0, "number", payload, len(values))
    payload.end()
    assert back.values.tobytes() == col.stored.tobytes()


@pytest.mark.parametrize("lengths, width", [([], 1), ([0, 0], 1), ([255, 0], 1), ([256], 2)])
def test_leaf_array_counters_take_the_narrowest_width(tmp_path, lengths, width):
    """A leaf array's file holds its counter at `width` bytes an entry,
    empty arrays and no documents included."""
    manifest = {
        "name": "leaf",
        "model": "document",
        "root": {"name": "doc", "kind": "record", "children": [{"name": "xs", "kind": "array", "primitive": "number"}]},
    }
    data = ingest_json([{"xs": [1.0] * k} for k in lengths], parse_schema(manifest))
    write_store(Store().add(data), tmp_path / "s")
    loaded = open_store(tmp_path / "s").data("leaf")
    (nid,) = data.counters
    assert loaded.counters[nid].boundaries.tolist() == np.cumsum(lengths, dtype=np.int64).tolist()
    assert loaded.columns[nid].stored.tobytes() == data.columns[nid].stored.tobytes()
    n = sum(lengths)
    values = 1 + (8 + 1 + n if n else 0)  # all 1.0: offsets of one byte, or no values at all
    size = 15 + 8 + 1 + width * len(lengths) + (n + 7) // 8 + values + 4
    assert (tmp_path / "s" / "leaf" / "doc.xs.col").stat().st_size == size


def test_block_count_of_unsorted_positions(ads_store):
    io = ads_store.io
    io.block_size = 16  # Word values are 6 bytes each: 2.67 values per block
    for positions, blocks in (
        ([0, 1, 2, 3, 7], 3),  # sorted: blocks 0, 0, 0, 1, 2
        ([7, 0, 3, 1, 7], 3),  # unsorted, repeated block 2
        ([2, 5, 1], 2),  # blocks 0, 1, 0
    ):
        io.reset()
        ads_store.scan_values("ads", WORD, positions=np.array(positions))
        assert io.bytes_read == blocks * 16, positions



# ---------------------------------------------------------------------------
# column-at-a-time ingest: fault messages, agreeing paths, unchanged bytes

FLAGS_MANIFEST = {
    "name": "flags",
    "model": "table",
    "root": {
        "name": "flags",
        "kind": "record",
        "children": [
            {"name": "id", "kind": "primitive", "primitive": "string"},
            {"name": "on", "kind": "primitive", "primitive": "boolean"},
            {"name": "score", "kind": "primitive", "primitive": "number"},
        ],
    },
}

NESTED_MANIFEST = {
    "name": "nested",
    "root": {
        "name": "Doc",
        "kind": "record",
        "children": [
            {"name": "name", "kind": "primitive", "primitive": "string"},
            {"name": "scores", "kind": "array", "primitive": "number"},
            {
                "name": "items",
                "kind": "array",
                "children": [
                    {"name": "k", "kind": "primitive", "primitive": "number"},
                    {"name": "flags", "kind": "array", "primitive": "boolean"},
                    {
                        "name": "sub",
                        "kind": "array",
                        "children": [{"name": "word", "kind": "primitive", "primitive": "string"}],
                    },
                ],
            },
            {
                "name": "meta",
                "kind": "record",
                "children": [
                    {"name": "tag", "kind": "primitive", "primitive": "string"},
                    {"name": "on", "kind": "primitive", "primitive": "boolean"},
                ],
            },
        ],
    },
}

LINKED_MANIFEST = {
    "name": "linked",
    "root": {
        "name": "Doc",
        "kind": "record",
        "children": [
            {"name": "name", "kind": "primitive", "primitive": "string"},
            {"name": "ref", "kind": "indicator", "target": "Doc"},
        ],
    },
}

GOOD_DOC = {"name": "a", "scores": [1, 2.5], "items": [{"k": 1}], "meta": {"tag": "t"}}


def _csv(manifest, text):
    return ingest_csv(io.StringIO(text), parse_schema(manifest))


def _docs(manifest, *docs):
    return ingest_json(list(docs), parse_schema(manifest))


def _social(vertices=SOCIAL_VERTEX_ROWS, edges=SOCIAL_EDGE_ROWS):
    return ingest_graph_tables(vertices, edges, expand_graph_schema(SOCIAL_VERTICES, SOCIAL_EDGES, "Person"))


# Each input has exactly one fault.  The messages, paths and ordinals were
# recorded from the document-at-a-time, row-at-a-time ingest.
SINGLE_FAULTS = {
    "csv-bad-number": (
        lambda: _csv(PEOPLE_MANIFEST, "PID,credit_score,balance\na,700,10\nb,seven,20\n"),
        "non-numeric value 'seven' in column 'credit_score' [input #1]", None, 1,
    ),
    "csv-bad-boolean": (
        lambda: _csv(FLAGS_MANIFEST, "id,on,score\na,true,1\nb,maybe,2\n"),
        "non-boolean value 'maybe' in column 'on' [input #1]", None, 1,
    ),
    "csv-short-row": (
        lambda: _csv(PEOPLE_MANIFEST, "PID,credit_score,balance\na,700,10\nb,20\n"),
        "row has 2 fields, header has 3 [input #1]", None, 1,
    ),
    "csv-header-mismatch": (
        lambda: _csv(PEOPLE_MANIFEST, "PID,score,balance\na,700,10\n"),
        "table 'people': header mismatch (missing ['credit_score'], extra ['score'])", None, None,
    ),
    "doc-number-in-string": (
        lambda: _docs(NESTED_MANIFEST, GOOD_DOC, {**GOOD_DOC, "name": 5}),
        "expected a string, got 5 (at Doc.name) [input #1]", "Doc.name", 1,
    ),
    "doc-string-in-number-array": (
        lambda: _docs(NESTED_MANIFEST, GOOD_DOC, {**GOOD_DOC, "scores": [1, "x"]}),
        "expected a number, got 'x' (at Doc.scores) [input #1]", "Doc.scores", 1,
    ),
    "doc-unknown-field-in-element": (
        lambda: _docs(NESTED_MANIFEST, GOOD_DOC, {**GOOD_DOC, "items": [{"k": 1}, {"k": 2, "z": 3}]}),
        "unknown fields ['z'] (at Doc.items) [input #1]", "Doc.items", 1,
    ),
    "doc-scalar-element": (
        lambda: _docs(NESTED_MANIFEST, GOOD_DOC, {**GOOD_DOC, "items": [{"k": 1}, 7]}),
        "array elements must be objects, got 7 (at Doc.items) [input #1]", "Doc.items", 1,
    ),
    "doc-object-for-array": (
        lambda: _docs(NESTED_MANIFEST, GOOD_DOC, {**GOOD_DOC, "scores": {"a": 1}}),
        "expected an array, got {'a': 1} (at Doc.scores) [input #1]", "Doc.scores", 1,
    ),
    "doc-object-for-array-after-missing": (
        lambda: _docs(NESTED_MANIFEST, {"name": "a"}, {**GOOD_DOC, "scores": {"a": 1}}),
        "expected an array, got {'a': 1} (at Doc.scores) [input #1]", "Doc.scores", 1,
    ),
    "doc-object-for-array-after-null": (
        lambda: _docs(NESTED_MANIFEST, {**GOOD_DOC, "scores": None}, {**GOOD_DOC, "scores": {"a": 1}}),
        "expected an array, got {'a': 1} (at Doc.scores) [input #1]", "Doc.scores", 1,
    ),
    "doc-scalar-for-record": (
        lambda: _docs(NESTED_MANIFEST, GOOD_DOC, {**GOOD_DOC, "meta": "t"}),
        "expected an object, got 't' (at Doc.meta) [input #1]", "Doc.meta", 1,
    ),
    "doc-unknown-field": (
        lambda: _docs(NESTED_MANIFEST, GOOD_DOC, {**GOOD_DOC, "extra": 1}),
        "unknown fields ['extra'] (at Doc) [input #1]", "Doc", 1,
    ),
    "doc-indicator": (
        lambda: _docs(LINKED_MANIFEST, {"name": "a"}, {"name": "b"}),
        "indicator fields cannot be ingested from documents (at Doc.ref) [input #0]", "Doc.ref", 0,
    ),
    "graph-unknown-source": (
        lambda: _social(edges={**SOCIAL_EDGE_ROWS, "know": [("p1", "p2"), ("zz", "p1")]}),
        "edge 'know' references unknown 'Person' id 'zz' [input #1]", None, 1,
    ),
    "graph-unknown-destination": (
        lambda: _social(edges={**SOCIAL_EDGE_ROWS, "like": [("p1", "m1"), ("p2", "m9")]}),
        "edge 'like' references unknown 'Message' id 'm9' [input #1]", None, 1,
    ),
    "graph-duplicate-id": (
        lambda: _social({**SOCIAL_VERTEX_ROWS, "Message": [{"id": "m1"}, {"id": "m2"}, {"id": "m1", "tag": "z"}]}),
        "duplicate vertex id 'm1' for label 'Message' [input #2]", None, 2,
    ),
    "graph-no-id": (
        lambda: _social({**SOCIAL_VERTEX_ROWS, "Person": [{"id": "p1"}, {"id": "p2"}, {"name": "cy"}]}),
        "vertex table 'Person' row 2 has no 'id' [input #2]", None, 2,
    ),
}


@pytest.mark.parametrize("case", sorted(SINGLE_FAULTS))
def test_ingest_errors_name_the_fault(case):
    ingest, message, path, ordinal = SINGLE_FAULTS[case]
    with pytest.raises(IngestError) as err:
        ingest()
    assert (str(err.value), err.value.path, err.value.ordinal) == (message, path, ordinal)


def test_list_and_dict_subclasses_shred_like_their_bases():
    class Items(list):
        pass

    class Fields(dict):
        pass

    plain = [{"scores": None, "meta": None}, {**GOOD_DOC, "scores": [3, 4], "meta": {"tag": "x"}}]
    subclassed = [plain[0], {**plain[1], "scores": Items([3, 4]), "meta": Fields(tag="x")}]
    _assert_same_data(_docs(NESTED_MANIFEST, *subclassed), _docs(NESTED_MANIFEST, *plain))


def test_several_faults_name_a_real_one():
    """Faults are found column by column (node by node for documents), so
    with several the first in input order need not be the one named."""
    with pytest.raises(IngestError) as err:
        _docs(NESTED_MANIFEST, GOOD_DOC, {**GOOD_DOC, "scores": [1, "x"]}, {**GOOD_DOC, "name": 7}, {**GOOD_DOC, "meta": 2})
    assert (str(err.value), err.value.ordinal) in {
        ("expected a number, got 'x' (at Doc.scores) [input #1]", 1),
        ("expected a string, got 7 (at Doc.name) [input #2]", 2),
        ("expected an object, got 2 (at Doc.meta) [input #3]", 3),
    }
    with pytest.raises(IngestError) as err:
        _csv(PEOPLE_MANIFEST, "PID,credit_score,balance\na,700,10\nb,1,x\nc,y,3\n")
    assert (str(err.value), err.value.ordinal) in {
        ("non-numeric value 'x' in column 'balance' [input #1]", 1),
        ("non-numeric value 'y' in column 'credit_score' [input #2]", 2),
    }


def _assert_same_data(a, b):
    """Every column, validity bitmap, counter, indicator and stats entry equal."""
    assert a.cardinality == b.cardinality
    assert a.counters.keys() == b.counters.keys()
    for nid, ctr in a.counters.items():
        assert ctr.boundaries.tolist() == b.counters[nid].boundaries.tolist(), nid
    assert a.indicators.keys() == b.indicators.keys()
    for nid, ind in a.indicators.items():
        other = b.indicators[nid]
        assert ind.lower_cardinality == other.lower_cardinality, nid
        assert ind.pointers.tolist() == other.pointers.tolist(), nid
    assert a.columns.keys() == b.columns.keys()
    for nid, col in a.columns.items():
        other = b.columns[nid]
        assert (col.kind, col.stored.dtype) == (other.kind, other.stored.dtype), nid
        assert col.stored.tolist() == other.stored.tolist(), nid
        assert col.validity.tolist() == other.validity.tolist(), nid
        if col.dictionary is not None:
            assert col.dictionary.lengths.tolist() == other.dictionary.lengths.tolist(), nid
            assert col.dictionary.blob == other.dictionary.blob, nid
    assert {k: s.to_json() for k, s in a.stats.items()} == {k: s.to_json() for k, s in b.stats.items()}


def _cells(row: dict, names) -> list[str]:
    # as `quest gen` writes a cell; an empty cell reads back as a null
    return ["" if row.get(n) is None else str(row[n]).lower() if isinstance(row[n], bool) else str(row[n]) for n in names]


# an empty CSV cell is a null, so the rows hold None where the CSV is empty
TABLE_ROWS = [
    {"id": "a", "on": True, "score": 1},
    {"id": None, "on": False, "score": 2.5},
    {"id": "zürich 日本 \U0001f600", "on": None, "score": None},
    {"id": "a", "score": -0.0},
    {"id": 'x,"quoted"\nline', "on": True, "score": 1e300},
]


@pytest.mark.parametrize("rows", [TABLE_ROWS, []], ids=["rows", "empty"])
def test_csv_and_rows_ingest_agree(rows):
    schema = parse_schema(FLAGS_MANIFEST)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["id", "on", "score"])
    writer.writerows(_cells(row, ["id", "on", "score"]) for row in rows)
    from_csv = ingest_csv(io.StringIO(buf.getvalue()), schema)
    _assert_same_data(from_csv, ingest_rows(rows, schema))
    ids = from_csv.columns[1]
    assert [v if ok else None for v, ok in zip(ids.values.tolist(), ids.validity.tolist())] == [r.get("id") for r in rows]


def _graph_schema():
    vertices = [
        {"label": "Person", "properties": [{"name": "name", "primitive": "string"}, {"name": "age", "primitive": "number"}]},
        {"label": "Message", "properties": [{"name": "tag", "primitive": "string"}]},
    ]
    edges = [
        {
            "label": "know",
            "from": "Person",
            "to": "Person",
            "properties": [{"name": "since", "primitive": "number"}, {"name": "note", "primitive": "string"}],
        },
        {"label": "like", "from": "Person", "to": "Message"},
    ]
    return expand_graph_schema(vertices, edges, "Person", name="g")


GRAPH_VERTICES = {
    "Person": [
        {"id": "p1", "name": "ann", "age": 30},
        {"id": "p2", "name": None, "age": 41.5},
        {"id": "p3", "name": "zürich 日本 \U0001f600"},
    ],
    "Message": [{"id": "m1", "tag": "x"}, {"id": "m2", "tag": None}],
}
GRAPH_EDGES = {
    "know": [
        ("p3", "p1", {"since": 2001, "note": "été"}),
        ("p1", "p2", {"since": None}),
        ("p1", "p3"),  # written as a row with no property cells
        ("p3", "p2", {"note": "b"}),
    ],
    "like": [("p2", "m2"), ("p1", "m1")],
}
GRAPH_PROPS = {"Person": ["name", "age"], "Message": ["tag"], "know": ["since", "note"], "like": []}


@pytest.mark.parametrize("empty", [False, True], ids=["graph", "empty"])
def test_graph_files_and_tables_agree(tmp_path, empty):
    vertices = {label: [] for label in GRAPH_VERTICES} if empty else GRAPH_VERTICES
    edges = {label: [] for label in GRAPH_EDGES} if empty else GRAPH_EDGES
    vertex_files, edge_files = {}, {}
    for label, rows in vertices.items():
        vertex_files[label] = tmp_path / f"v_{label}.csv"
        with open(vertex_files[label], "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", *GRAPH_PROPS[label]])
            writer.writerows([row["id"], *_cells(row, GRAPH_PROPS[label])] for row in rows)
    for label, recs in edges.items():
        edge_files[label] = tmp_path / f"e_{label}.csv"
        with open(edge_files[label], "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["src", "dst", *GRAPH_PROPS[label]])
            writer.writerows([*rec[:2], *(_cells(rec[2], GRAPH_PROPS[label]) if len(rec) > 2 else [])] for rec in recs)
    schema = _graph_schema()
    from_files = ingest_graph(vertex_files, edge_files, schema)
    _assert_same_data(from_files, ingest_graph_tables(vertices, edges, schema))
    if not empty:  # know edges grouped by source: p1->p2, p1->p3, p3->p1, p3->p2
        since = from_files.columns[schema.resolve(["know#", "since"]).id]
        assert since.values.tolist() == [0.0, 0.0, 2001.0, 0.0]
        assert since.validity.tolist() == [False, False, True, False]
        assert from_files.columns[schema.resolve(["name"]).id].values.tolist()[2] == "zürich 日本 \U0001f600"


def _walk_documents(docs, schema):
    """A document-at-a-time walk: each value node's cells, each array's boundaries."""
    cells = {n.id: [] for n in schema.nodes if n.has_values}
    bounds = {n.id: [] for n in schema.nodes if n.kind is Kind.ARRAY}

    def walk(node, value):
        if node.kind is Kind.PRIMITIVE:
            cells[node.id].append(value)
        elif node.kind is Kind.ARRAY:
            items = value or []
            bounds[node.id].append((bounds[node.id] or [0])[-1] + len(items))
            for item in items:
                if node.has_values:
                    cells[node.id].append(item)
                else:
                    fields(node, item)
        else:
            fields(node, value or {})

    def fields(node, obj):
        for cid in node.children:
            walk(schema.node(cid), obj.get(schema.node(cid).name))

    for doc in docs:
        walk(schema.root, doc)
    return cells, bounds


_WORDS = ["", "a", "a\x00", "\u00e9", "\u65e5\u672c", "\U0001f600", "zz"]


def _random_documents(seed: int) -> list[dict]:
    """Documents for `NESTED_MANIFEST`; any field may be absent or null."""
    rng = np.random.default_rng(seed)

    def fields(**makers):
        obj = {}
        for name, make in makers.items():
            roll = rng.random()
            if roll < 0.7:
                obj[name] = make()
            elif roll < 0.85:
                obj[name] = None
        return obj

    def listing(make, most):
        return [make() for _ in range(rng.integers(0, most + 1))]

    def nullable(make):
        return lambda: None if rng.random() < 0.2 else make()

    def number():
        return int(rng.integers(-3, 4)) if rng.random() < 0.5 else float(rng.normal())

    def word():
        return _WORDS[rng.integers(len(_WORDS))]

    def boolean():
        return bool(rng.integers(2))

    def item():
        return fields(
            k=number,
            flags=lambda: listing(nullable(boolean), 3),
            sub=lambda: listing(lambda: fields(word=word), 3),
        )

    def document():
        return fields(
            name=word,
            scores=lambda: listing(nullable(number), 4),
            items=lambda: listing(item, 3),
            meta=lambda: fields(tag=word, on=boolean),
        )

    return [document() for _ in range(rng.integers(0, 8))]


NESTED_DOCUMENTS = {
    "empty": [],
    "null-and-missing": [{}, {"items": None, "meta": None, "scores": None}, {"items": [{"sub": None}, {}], "meta": {}}],
    "empty-strings": [{"name": "", "scores": []}, {"name": "a\x00", "items": [{"sub": [{}, {"word": ""}]}]}],
    **{f"seed-{seed}": _random_documents(seed) for seed in range(20)},
}


@pytest.mark.parametrize("case", list(NESTED_DOCUMENTS))
def test_documents_shred_as_a_document_walk(case):
    docs = NESTED_DOCUMENTS[case]
    schema = parse_schema(NESTED_MANIFEST)
    data = ingest_json(docs, schema)
    cells, bounds = _walk_documents(docs, schema)
    for nid, want in cells.items():
        col = data.columns[nid]
        assert [v if ok else None for v, ok in zip(col.values.tolist(), col.validity.tolist())] == want, nid
    for nid, want in bounds.items():
        assert data.counters[nid].boundaries.tolist() == want, nid
    assert data.cardinality[0] == len(docs)


def test_document_files_and_objects_agree(tmp_path):
    path = tmp_path / "docs.ndjson"
    path.write_text("\n".join(json.dumps(doc) for doc in TEXT_DOCS) + "\n\n", encoding="utf-8")
    schema = parse_schema(TEXT_MANIFEST)
    from_objects = ingest_json(TEXT_DOCS, schema)
    _assert_same_data(ingest_json(path, schema), from_objects)
    _assert_same_data(ingest_json([json.dumps(doc) for doc in TEXT_DOCS], schema), from_objects)


def _config_store(tmp_path, config: str) -> Path:
    """The store `quest gen` and `ingest` write for `config`:
    `tiny-<seed>` is `quest gen --scale tiny --seed <seed>`, and
    `random-<seed>` the raw files of `random_corpus` at that seed."""
    from quest.cli import _write_raw

    kind, seed = config.split("-")
    root = tmp_path / "store"
    steps = [["ingest", "--store", root]]
    if kind == "tiny":
        steps.insert(0, ["gen", "--store", root, "--scale", "tiny", "--seed", seed])
    else:
        raw = root / "raw"
        raw.mkdir(parents=True)
        files = _write_raw(random_corpus(random.Random(int(seed))), raw)
        (raw / "gen.json").write_text(json.dumps({"files": files}), encoding="utf-8")
    for step in steps:
        result = CliRunner().invoke(main, [str(a) for a in step])
        assert result.exit_code == 0, result.output
    return root


@pytest.mark.parametrize("config", ["tiny-3", "random-8"])
def test_store_files_match_recorded_digests(tmp_path, config):
    """`ingest` writes the same bytes as the document-at-a-time ingest
    did; the digests were recorded from it.  `tiny-3` is `quest gen
    --scale tiny --seed 3`.  At `tiny` the seed reaches only the people
    table, so `random-8` adds the raw files of `random_corpus` (ragged and
    empty arrays, missing fields, empty CSV cells) at seed 8."""
    want = json.loads((Path(__file__).parent / "data" / "store_sha256.json").read_text())[config]
    root = _config_store(tmp_path, config)
    got = {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in root.rglob("*") if p.is_file()}
    assert got == want


def _array_digests(store) -> dict[str, str]:
    """``<schema>/<node path>/<array>`` -> ``<dtype>:<sha256 of its bytes>``
    for every array an opened store loads, plus the decoded ``values`` of
    each number column held as offsets."""
    out = {}
    for name, data in sorted(store.datasets.items()):
        path_of = data.schema.path_of
        arrays = {}
        for nid, col in data.columns.items():
            arrays[(nid, "validity")] = col.validity
            arrays[(nid, "stored")] = col.stored
            if col.base is not None:
                arrays[(nid, "values")] = col.values
            if col.dictionary is not None:
                arrays[(nid, "lengths")] = col.dictionary.lengths
                arrays[(nid, "blob")] = np.frombuffer(col.dictionary.blob, dtype=np.uint8)
        for links in (data.counters, data.indicators):
            for nid, link in links.items():
                for field in ("boundaries", "pointers"):
                    if getattr(link, field) is not None:
                        arrays[(nid, field)] = getattr(link, field)
        for (nid, field), array in arrays.items():
            digest = hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()
            out[f"{name}/{path_of(nid)}/{field}"] = f"{array.dtype.str}:{digest}"
    return out


@pytest.mark.parametrize("config", ["tiny-3", "random-8"])
def test_loaded_arrays_match_recorded_digests(tmp_path, config):
    """An opened store loads the arrays, dtypes included, recorded in
    `store_arrays_sha256.json`: value columns at the files' widths (string
    codes and number offsets narrow, with each offset column's float64
    values), the other integer arrays as int64."""
    want = json.loads((Path(__file__).parent / "data" / "store_arrays_sha256.json").read_text())[config]
    assert _array_digests(open_store(_config_store(tmp_path, config))) == want


DICTIONARY_LEFT = ["", "a", "a\x00", "a\x00\x00", "a\x00b", "ab", "é", "€", "\U0001d11e", "\U0010ffff", "left", "z\x00"]
DICTIONARY_RIGHT = ["a", "a\x00", "a\x00b", "a\x01", "b", "é", "€\x00", "\U0001d11e", "right", "z", "z\x00", ""]


def test_dictionary_translation_matches_entries_by_bytes():
    def undecoded(values):
        d = StringDictionary.from_sorted(sorted(set(values)))
        return StringDictionary(d.lengths, d.blob)

    rng = random.Random(5)
    # entries of many lengths over a few letters, NUL and multi-byte ones, and one long entry
    drawn = [["".join(rng.choices("a\x00é€\U0001d11e", k=rng.randint(0, 6))) for _ in range(300)] + ["a" * 5000] for _ in range(2)]
    cases = [(DICTIONARY_LEFT, DICTIONARY_RIGHT), (DICTIONARY_RIGHT, DICTIONARY_LEFT), ([], DICTIONARY_LEFT), (DICTIONARY_LEFT, []), drawn]
    for mine, theirs in cases:
        ordered = sorted(set(mine))
        want = [ordered.index(v) if v in ordered else -1 for v in sorted(set(theirs))]
        left, right = undecoded(mine), undecoded(theirs)
        codes = left.translate(right)
        assert codes.dtype == np.int32 and codes.tolist() == want
        assert not left._decoded.any() and not right._decoded.any()


@pytest.mark.parametrize("block_size", [16, 4096])
def test_block_count_equals_the_float_formula(ads_store, block_size):
    rng = np.random.default_rng(7)
    io_stats = ads_store.io
    io_stats.block_size = block_size
    for unit_size in (1.0, 6.0, 8.0, 11.37, 0.3, 0.7):
        for positions in (np.sort(rng.choice(100_000, 500, replace=False)), rng.integers(0, 100_000, 500), np.array([5])):
            io_stats.reset()
            io_stats.record_column("k", positions, unit_size, 100_000)
            blocks = np.unique((positions * unit_size // block_size).astype(np.int64)).size
            assert io_stats.bytes_read == blocks * block_size


def _unit_columns() -> dict[str, PrimitiveColumn]:
    """Columns of 100,000 values of unit size 1 (booleans), 8 (numbers) and
    a non-integral string size."""
    n = 100_000
    rng = np.random.default_rng(3)
    strings = StringDictionary.from_sorted(["a", "bbb", "cccccccccc"])
    columns = {
        "boolean": PrimitiveColumn(0, "boolean", rng.random(n) < 0.5, np.ones(n, dtype=bool)),
        "number": number_column(1, "number", rng.integers(0, 50, n).astype(np.float64), np.ones(n, dtype=bool)),
        "string": PrimitiveColumn(2, "string", rng.integers(0, 3, n), np.ones(n, dtype=bool), strings),
    }
    assert [c.unit_size for c in columns.values()][:2] == [1.0, 8.0]
    assert not columns["string"].unit_size.is_integer()
    return columns


@pytest.mark.parametrize("block_size", [16, 4096])
def test_block_count_from_the_bits_equals_the_count_from_positions(block_size):
    """Counted from the context bits (`block_starts`) or from each
    position's block, a read costs the same blocks, whatever the density."""
    rng = np.random.default_rng(11)
    for kind, col in _unit_columns().items():
        starts = col.block_starts(block_size)
        assert starts[0] == 0 and (np.diff(starts) > 0).all()
        for density in (0.0, 1e-4, 0.01, 0.3, 0.99):
            bits = rng.random(col.cardinality) < density
            positions = np.flatnonzero(bits)
            counts = []
            for block_starts in (starts, None):
                io_stats = IOStats(block_size)
                io_stats.record_column("k", positions, col.unit_size, col.cardinality, bits, block_starts)
                counts.append(io_stats.bytes_read)
            want = np.unique((positions * col.unit_size // block_size).astype(np.int64)).size * block_size
            assert counts == [want, want], (kind, density)


def test_a_read_at_the_context_bits_costs_what_a_read_at_positions_costs(tmp_path):
    write_store(generate("tiny", seed=2).store(), tmp_path / "s")
    store = open_store(tmp_path / "s")
    rng = np.random.default_rng(5)
    for name, data in store.datasets.items():
        for nid, col in data.columns.items():
            bits = rng.random(col.cardinality) < 0.2
            read = []
            for exact in (True, False):
                store.io.reset()
                values, valid = store.scan_values(name, nid, np.flatnonzero(bits), context_bits=bits, exact=exact)
                read.append((store.io.bytes_read, values.tolist(), valid.tolist()))
            assert read[0] == read[1], (name, nid)


def test_loaded_columns_keep_the_file_widths_and_index_arrays_are_intp(tmp_path):
    """Codes and offsets are held at their file width, aligned and owning
    their memory; counters, pointers and owners stay intp."""
    write_store(generate("tiny", seed=3).store(), tmp_path / "s")
    store = open_store(tmp_path / "s")
    widths = Counter()
    for name, data in store.datasets.items():
        for nid, col in data.columns.items():
            path = Path(tmp_path / "s" / name / f"{data.schema.path_of(nid)}.col")
            payload = path.read_bytes()[15:-4]
            if col.kind == "string":
                at = (col.cardinality + 7) // 8
                if data.schema.node(nid).kind is Kind.ARRAY:  # a leaf array's counter comes first
                    at += 8 + 1 + payload[8] * data.counters[nid].upper_cardinality
                assert col.stored.dtype == np.dtype(f"<u{payload[at]}"), path
            elif col.base is not None:
                assert col.stored.dtype.kind == "u" and col.stored.dtype.itemsize in (1, 2, 4), path
            else:
                assert col.stored.dtype in (np.float64, np.bool_), path
            if col.dictionary is not None or col.base is not None:
                widths[(col.kind, col.stored.dtype.str)] += 1
                assert col.stored.flags.aligned and col.stored.flags.owndata and col.stored.flags.writeable, path
            assert col.validity.dtype == np.bool_ and col.has_nulls == (not col.validity.all())
        for links in (data.counters, data.indicators):
            for link in links.values():
                for array in (link.boundaries, link.pointers):
                    assert array is None or array.dtype == np.intp
                if link.boundaries is not None:
                    assert link.owner.dtype == np.intp
    assert {("string", "|u1"), ("number", "|u1")} <= set(widths), widths


_COMPARISONS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
# integral operands far below and above any column, fractions, and the non-finite
_NUMBER_OPERANDS = (
    st.integers(-(2**60), 2**60)
    | st.integers(-(2**33), 2**33).map(float)
    | st.integers(-(2**33), 2**33).map(lambda i: i + 0.5)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 2.0**53 + 2, 10**30])
)


@settings(max_examples=400, deadline=None)
@given(
    cells=st.lists(st.integers(-3, 70_000) | st.none(), min_size=1, max_size=40),
    shift=st.integers(-(2**31), 2**31) | st.integers(-300, 300),
    op=st.sampled_from([*_COMPARISONS, "in"]),
    operands=st.lists(_NUMBER_OPERANDS | st.integers(-5, 70_005), min_size=1, max_size=4),
    step=st.integers(1, 3),
)
def test_offset_compares_equal_float_compares(cells, shift, op, operands, step):
    """A filter over offsets selects what the float64 compare selects, at
    the same positions, with any operand and any null."""
    values = np.array([0.0 if c is None else float(c + shift) for c in cells])  # a null holds 0.0
    valid = np.array([c is not None for c in cells])
    column = number_column(0, "number", values, valid)
    assert column.base is not None and column.stored.dtype.kind == "u"
    operand = operands if op == "in" else operands[0]
    positions = np.arange(0, len(cells), step)
    stored, validity = column.stored[positions], column.validity[positions]
    got = column.match(stored, op, operand) & validity
    floats = values[positions]
    if op == "in":
        want = np.isin(floats, np.asarray(operand, dtype=np.float64))
    else:
        want = _COMPARISONS[op](floats, operand)
    assert got.tolist() == (want & validity).tolist()


@pytest.mark.parametrize("entries, width", [(256, 1), (300, 2)], ids=["uint8", "uint16"])
def test_absent_string_operands_match_no_code(tmp_path, people_schema, entries, width):
    """An operand the dictionary lacks is code -1: it equals no code, even
    code 255 of a full one-byte dictionary, and an ``in`` list drops it."""
    rows = [{"PID": f"p{i:03d}", "credit_score": 1.0, "balance": float(i)} for i in range(entries)]
    write_store(Store().add(ingest_rows(rows, people_schema)), tmp_path / "s")
    last = f"p{entries - 1:03d}"
    for store in (Store().add(ingest_rows(rows, people_schema)), open_store(tmp_path / "s")):
        assert store.column("people", 1).stored.dtype == np.dtype(f"<u{width}")
        for op, value, count in (
            ("=", "zz", 0),
            ("=", last, 1),
            ("!=", "zz", entries),
            ("!=", last, entries - 1),
            ("in", ["zz"], 0),
            ("in", ["zz", last, "p000"], 2),
        ):
            doc = {"from": "people", "filters": [{"path": "people.PID", "op": op, "value": value}], "fetch": ["people.PID"]}
            rows_out = run_query(store, doc).rows
            assert len(rows_out) == count, (op, value)
            if op != "!=":
                assert {r[0] for r in rows_out} <= {last, "p000"}


@pytest.mark.parametrize("block_size", [0, 1000])
def test_block_size_must_be_a_power_of_two(block_size):
    with pytest.raises(StoreError, match="power of two"):
        Store(block_size=block_size)


@pytest.mark.parametrize("was_enabled", [True, False], ids=["enabled", "disabled"])
def test_ingest_pauses_the_collector_and_restores_it(people_schema, was_enabled):
    import gc

    rows = [{"PID": f"p{i}", "credit_score": float(i), "balance": None} for i in range(3000)]
    text = "PID,credit_score,balance\n" + "".join(f"p{i},{i},\n" for i in range(3000))
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    # a full collection zeroes every generation's count, so the young
    # collections below cannot be promoted by what earlier tests allocated
    gc.collect()
    threshold = gc.get_threshold()
    gc.set_threshold(100)
    gc.callbacks.append(count)
    if not was_enabled:
        gc.disable()
    try:
        ingested = [ingest_csv(io.StringIO(text), people_schema), ingest_json(rows, people_schema)]
        assert gc.isenabled() == was_enabled
    finally:
        gc.enable()
        gc.callbacks.remove(count)
        gc.set_threshold(*threshold)
    # unpaused, the 3000-row inputs start dozens; paused, at most the first
    # allocation after each call starts a young collection
    assert len(started) <= 2 and set(started) <= {0}, started
    for data in ingested:
        _assert_same_data(data, ingest_rows(rows, people_schema))
