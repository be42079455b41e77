import json
import zlib
from collections import Counter

import numpy as np
import pytest

from quest.datagen import generate
from quest.engine import run_query
from quest.errors import IngestError, StoreError
from quest.schema import parse_schema
from quest.store import (
    MCV_KEEP,
    CounterArray,
    Store,
    estimate_selectivity,
    ingest_csv,
    ingest_graph_tables,
    ingest_json,
    ingest_rows,
    open_store,
    write_store,
)

from conftest import (
    ADVERTISER,
    CAMPAIGN,
    CLICKS,
    EMAIL,
    PERSON,
    SOCIAL_EDGE_ROWS,
    SOCIAL_VERTEX_ROWS,
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
    clicks = ads_data.counters[CLICKS]
    assert clicks.range(0) == (0, 1)
    assert clicks.range(1) == (1, 2)
    assert clicks.range(2) == (2, 4)
    assert clicks.child_cardinality == 4


def test_counter_must_not_decrease():
    with pytest.raises(StoreError):
        CounterArray(node=0, boundaries=np.array([2, 1]))


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


def test_numeric_range_selectivity():
    from quest.store import PrimitiveColumn, build_stats

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
            assert other.indicators[nid].target == ind.target


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
    with pytest.raises(StoreError, match="checksum"):
        open_store(tmp_path / "s")


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
    ads_store.read_counter("ads", CAMPAIGN)
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
        assert other.stored.dtype == np.int32
        assert other.unit_size == col.unit_size
        for column in (col, other):
            values = column.values.tolist()
            assert all(type(v) is str for v in values)
            assert [v if ok else None for v, ok in zip(values, column.validity.tolist())] == want
            assert [v for v, w in zip(values, want) if w is None] == [""] * want.count(None)
            assert column.dictionary.entries() == sorted(set(values))
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
    for offset, message in (
        (codes_at + 4 * n + 4, "string lengths"),  # first dictionary entry length
        (codes_at + 3, "outside the dictionary"),  # high byte of the first code
    ):
        body = bytearray(good[:-4])
        body[offset] += 1
        target.write_bytes(bytes(body) + zlib.crc32(bytes(body)).to_bytes(4, "little"))
        with pytest.raises(StoreError, match=message):
            open_store(tmp_path / "s")


def test_other_format_versions_name_the_fix(tmp_path, ads_store):
    write_store(ads_store, tmp_path / "s")
    manifest = tmp_path / "s" / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["format_version"] = 1
    manifest.write_text(json.dumps(doc))
    with pytest.raises(StoreError, match="version 1.*quest ingest"):
        open_store(tmp_path / "s")
    # a column file of another version, under a current manifest
    write_store(ads_store, tmp_path / "s")
    target = next((tmp_path / "s" / "ads").glob("*.col"))
    body = bytearray(target.read_bytes()[:-4])
    body[4:6] = (1).to_bytes(2, "little")
    target.write_bytes(bytes(body) + zlib.crc32(bytes(body)).to_bytes(4, "little"))
    with pytest.raises(StoreError, match="version 1.*quest ingest"):
        open_store(tmp_path / "s")


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
