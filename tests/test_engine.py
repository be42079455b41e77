"""Engine evaluation: golden row sets, oracle parity, and IO behavior.

Expected rows here are frozen by hand from the conftest datasets (the
oracle suite pins the same values); the engine must also agree with the
oracle under every valid filter order and with the skip index on.
"""
import copy
import gc
import random

import numpy as np
import pytest

from quest import datagen
from quest.bench import WORKLOAD
from quest.datagen import generate
from quest.delivery import deliver, positions_of
from quest.engine import JoinIndex, ResultSet, _Evaluation, evaluate, run_query
from quest.errors import QueryError
from quest.optimizer import _plan_filters, derive_wandering, enumerate_valid_orders, plan_query
from quest.oracle import oracle_query
from quest.query import parse_query
from quest.schema import parse_schema
from quest.skiptree import build_skip_tree
from quest.ingest import ingest_graph_tables, ingest_json, ingest_rows
from quest.store import Store, open_store, write_store

from conftest import PEOPLE_MANIFEST, PEOPLE_ROWS, PERSON


@pytest.fixture
def schemas(ads_schema, people_schema, social_schema):
    return {"ads": ads_schema, "people": people_schema, "social": social_schema}


def q(schemas, doc):
    return parse_query(schemas, doc)


JOIN_CLAUSE = [{"left": "ads.Campaign.Clicks.Person", "right": "people.PID", "unique": True}]


# -- goldens -------------------------------------------------------------------


def test_worked_example(multi_store, schemas):
    doc = {
        "from": ["ads"],
        "filters": [
            {"path": "ads.Campaign.WordSet.Word", "op": "=", "value": "wA"},
            {"path": "ads.Campaign.Clicks.Person", "op": "=", "value": "p4"},
        ],
        "fetch": ["ads.Email"],
    }
    assert evaluate(multi_store, q(schemas, doc)).rows == [("e1",)]


def test_filtered_column_fetches_matching_instances_only(multi_store, schemas):
    doc = {
        "from": ["ads"],
        "filters": [{"path": "ads.Campaign.WordSet.Word", "op": "=", "value": "wA"}],
        "fetch": ["ads.Campaign.WordSet.Word", "ads.Email"],
    }
    # wA appears once in each of a1's campaigns; w2/w3/w5 are filtered out
    assert evaluate(multi_store, q(schemas, doc)).rows == [("wA", "e1"), ("wA", "e1")]


def test_join_scoped_by_both_sides(multi_store, schemas):
    doc = {
        "from": ["ads", "people"],
        "joins": JOIN_CLAUSE,
        "filters": [
            {"path": "ads.Campaign.WordSet.Word", "op": "=", "value": "wA"},
            {"path": "people.credit_score", "op": ">", "value": 700},
        ],
        "fetch": ["people.credit_score", "ads.Email"],
    }
    assert evaluate(multi_store, q(schemas, doc)).rows == [(710.0, "e1")]


def test_join_membership_restricts_unfiltered_host(multi_store, schemas):
    # p1..p7 all have people rows, but only clicked persons are members
    doc = {
        "from": ["ads", "people"],
        "joins": JOIN_CLAUSE,
        "filters": [{"path": "people.credit_score", "op": ">", "value": 640}],
        "fetch": ["people.PID"],
    }
    rows = evaluate(multi_store, q(schemas, doc)).rows
    assert rows == [("p2",), ("p3",), ("p5",), ("p6",), ("p7",)]


def test_chain_filter_on_friend_name(multi_store, schemas):
    doc = {
        "from": ["social"],
        "graph_paths": [["social.Person.know#.#Person"]],
        "filters": [
            {"path": "social.Person.know#.#Person.name", "op": "=", "value": "cy"}
        ],
        "fetch": ["social.Person.name"],
    }
    assert evaluate(multi_store, q(schemas, doc)).rows == [("ann",), ("bo",)]


def test_chain_through_shared_vertex_record(multi_store, schemas):
    doc = {
        "from": ["social"],
        "graph_paths": [["social.Person.know#.#Person"]],
        "filters": [
            {
                "path": "social.Person.know#.#Person.like#.#Message.tag",
                "op": "=",
                "value": "y",
            }
        ],
        "fetch": ["social.Person.name"],
    }
    assert evaluate(multi_store, q(schemas, doc)).rows == [("ann",), ("bo",)]


def test_two_hop_chain(multi_store, schemas):
    doc = {
        "from": ["social"],
        "graph_paths": [
            ["social.Person.know#.#Person", "social.Person.know#.#Person.know#.#Person"]
        ],
        "filters": [
            {
                "path": "social.Person.know#.#Person.know#.#Person.name",
                "op": "=",
                "value": "ann",
            }
        ],
        "fetch": ["social.Person.name"],
    }
    assert evaluate(multi_store, q(schemas, doc)).rows == [("ann",), ("bo",)]


def _join_store(ads_schema, people_schema):
    # nulls on both sides, a click with no people row, duplicate left keys
    # (p1 clicked three times), and people rows nobody clicked
    docs = [
        {"Email": "e1", "Campaign": [
            {"WordSet": {"Word": ["w"]}, "Clicks": [{"Person": ["p1", None, "p2", "p1"]}]},
        ]},
        {"Email": "e2", "Campaign": [
            {"WordSet": {"Word": ["w"]}, "Clicks": [{"Person": ["zz", "p1"]}, {"Person": [None]}]},
        ]},
    ]
    rows = PEOPLE_ROWS + [{"PID": None, "credit_score": 1.0, "balance": 1.0}]
    return Store().add(ingest_json(docs, ads_schema)).add(ingest_rows(rows, people_schema))


def _checked_join_pairs(store, join):
    """The join's index, after checking its pairs against a nested loop."""
    ji = JoinIndex(store, join)
    lvals, lvalid = store.scan_values(join.left.schema, join.left.node)
    rvals, rvalid = store.scan_values(join.right.schema, join.right.node)
    want = [
        (left, right)
        for right in range(len(rvals))
        for left in range(len(lvals))
        if rvalid[right] and lvalid[left] and lvals[left] == rvals[right]
    ]
    assert list(zip(ji.l_pair.tolist(), ji.r_pair.tolist())) == want
    return ji, want


def test_join_index_pairs_equal_nested_loop(ads_schema, people_schema):
    store = _join_store(ads_schema, people_schema)
    query = parse_query(
        {"ads": ads_schema, "people": people_schema},
        {"from": ["ads", "people"], "joins": JOIN_CLAUSE, "fetch": ["ads.Email"]},
    )
    ji, want = _checked_join_pairs(store, query.joins[0])
    assert sorted({r for _, r in want}) == [0, 1]  # p1, p2 match; p3..p7 and null do not

    # mapping a right back to its host: exactly one surviving left, or an error
    survivors = np.ones(ji.left_cardinality, dtype=bool)
    survivors[[0, 3]] = False  # two of p1's three clicks
    assert ji.host_of(np.array([1, 0]), survivors).tolist() == [2, 5]
    for rights, alive in (([0], None), ([2], survivors), ([7], survivors)):
        with pytest.raises(QueryError, match="single host instance"):
            ji.host_of(np.array(rights), alive)


def test_nan_join_keys_never_match(people_schema):
    other = parse_schema({**PEOPLE_MANIFEST, "name": "other"})
    nan = float("nan")
    store = (
        Store()
        .add(ingest_rows([{"credit_score": nan}, {"credit_score": 5.0}], people_schema))
        .add(ingest_rows([{"credit_score": 5.0}, {"credit_score": nan}], other))
    )
    query = parse_query(
        {"people": people_schema, "other": other},
        {
            "from": ["people", "other"],
            "joins": [{"left": "people.credit_score", "right": "other.credit_score"}],
            "fetch": ["people.PID"],
        },
    )
    _, want = _checked_join_pairs(store, query.joins[0])
    assert want == [(1, 0)]


def test_number_join_keys_compare_values_across_bases(people_schema, tmp_path):
    """Integral number keys are held as offsets from each column's least
    value; the two columns' bases differ, so offset 0 is 700 on the left
    and 5 on the right, and keys must match by value."""
    other = parse_schema({**PEOPLE_MANIFEST, "name": "other"})
    lefts = [700.0, 701.0, 702.0, 900.0]
    rights = [5.0, 701.0, 702.0, 702.0, 1000.0, 700.5]
    memory = (
        Store()
        .add(ingest_rows([{"PID": f"p{i}", "credit_score": v} for i, v in enumerate(lefts)], people_schema))
        .add(ingest_rows([{"PID": f"q{i}", "credit_score": v, "balance": float(i)} for i, v in enumerate(rights)], other))
    )
    write_store(memory, tmp_path / "s")
    query = parse_query(
        {"people": people_schema, "other": other},
        {
            "from": ["people", "other"],
            "joins": [{"left": "people.credit_score", "right": "other.credit_score"}],
            "filters": [{"path": "other.balance", "op": "<", "value": 5}],
            "fetch": ["people.PID"],
        },
    )
    for store in (memory, open_store(tmp_path / "s")):
        left, right = store.column("people", 2), store.column("other", 2)
        assert (left.base, right.base) == (700, None)  # 700.5 is not integral
        store.add(store.data("other"))  # drop the cached relation
        _, want = _checked_join_pairs(store, query.joins[0])
        assert want == [(1, 1), (2, 2), (2, 3)]
        assert evaluate(store, query).rows == oracle_query(store, query) == [("p1",), ("p2",)]
    rights[-1] = 7.0  # now integral: offsets from 5, and offset 2 is 702 on the left
    shifted = Store().add(memory.data("people")).add(
        ingest_rows([{"PID": f"q{i}", "credit_score": v, "balance": float(i)} for i, v in enumerate(rights)], other)
    )
    assert shifted.column("other", 2).base == 5
    _, want = _checked_join_pairs(shifted, query.joins[0])
    assert want == [(1, 1), (2, 2), (2, 3)]
    assert evaluate(shifted, query).rows == oracle_query(shifted, query) == [("p1",), ("p2",)]


def test_store_add_invalidates_cached_join(multi_store, schemas, people_schema):
    doc = {
        "from": ["ads", "people"],
        "joins": JOIN_CLAUSE,
        "filters": [{"path": "people.credit_score", "op": ">", "value": 700}],
        "fetch": ["people.credit_score", "ads.Email"],
    }
    query = q(schemas, doc)
    assert evaluate(multi_store, query).rows == [(710.0, "e1"), (805.0, "e2"), (745.0, "e2")]
    assert multi_store.joins
    # fewer rows, reordered keys: a stale relation would point past the
    # new column or at the wrong people
    multi_store.add(ingest_rows(
        [
            {"PID": "p6", "credit_score": 100.0, "balance": 0.0},
            {"PID": "p1", "credit_score": 900.0, "balance": 0.0},
        ],
        people_schema,
    ))
    rows = evaluate(multi_store, query).rows
    assert rows == [(900.0, "e1")]
    assert rows == oracle_query(multi_store, query)


# -- oracle parity ---------------------------------------------------------------

PARITY_DOCS = [
    {"from": ["ads"], "fetch": ["ads.Email"]},
    {
        "from": ["ads"],
        "filters": [{"path": "ads.Campaign.WordSet.Word", "op": "=", "value": "wA"}],
        "fetch": ["ads.Campaign.Clicks.Person"],
    },
    {
        "from": ["ads"],
        "filters": [
            {"path": "ads.Campaign.WordSet.Word", "op": "in", "value": ["w5", "w7"]}
        ],
        "fetch": ["ads.Email"],
    },
    {
        "from": ["ads"],
        "filters": [{"path": "ads.Email", "op": "!=", "value": "e1"}],
        "fetch": ["ads.Email"],
    },
    {
        "from": ["people"],
        "filters": [
            {"path": "people.credit_score", "op": ">", "value": 650},
            {"path": "people.credit_score", "op": "<", "value": 750},
        ],
        "fetch": ["people.PID", "people.balance"],
    },
    {
        "from": ["ads", "people"],
        "joins": JOIN_CLAUSE,
        "filters": [{"path": "ads.Email", "op": "=", "value": "e2"}],
        "fetch": ["people.PID", "people.credit_score"],
    },
    {
        "from": ["ads", "people"],
        "joins": JOIN_CLAUSE,
        "filters": [],
        "fetch": ["ads.Email"],
    },
    {
        "from": ["social"],
        "filters": [
            {"path": "social.Person.like#.#Message.tag", "op": "=", "value": "x"}
        ],
        "fetch": ["social.Person.name"],
    },
    {
        "from": ["social"],
        "graph_paths": [["social.Person.know#.#Person"]],
        "filters": [],
        "fetch": ["social.Person.name"],
    },
    {
        "from": ["social"],
        "graph_paths": [["social.Person.know#.#Person"]],
        "filters": [
            {"path": "social.Person.know#.#Person.city", "op": "=", "value": "rome"},
            {"path": "social.Person.know#.#Person.name", "op": "=", "value": "cy"},
        ],
        "fetch": ["social.Person.name"],
    },
    {
        "from": ["social"],
        "filters": [
            {"path": "social.Person.like#.#Message.tag", "op": "=", "value": "x"}
        ],
        "fetch": ["social.Person.like#.#Message.tag"],
    },
]


@pytest.mark.parametrize("doc", PARITY_DOCS)
def test_engine_matches_oracle(multi_store, schemas, doc):
    query = q(schemas, doc)
    assert evaluate(multi_store, query).rows == oracle_query(multi_store, query)


def test_parity_under_every_valid_order(multi_store, schemas):
    doc = {
        "from": ["ads", "people"],
        "joins": JOIN_CLAUSE,
        "filters": [
            {"path": "ads.Campaign.WordSet.Word", "op": "=", "value": "wA"},
            {"path": "ads.Campaign.Clicks.Person", "op": "!=", "value": "p1"},
            {"path": "people.credit_score", "op": "<", "value": 800},
        ],
        "fetch": ["people.PID"],
    }
    query = q(schemas, doc)
    want = oracle_query(multi_store, query)
    tree = query.composite
    filters = _plan_filters(multi_store, query)
    fetch_keys = [(f.site.schema, f.site.node) for f in query.fetch]
    orders = enumerate_valid_orders(tree, filters)
    assert len(orders) >= 2
    for order in orders:
        seq = derive_wandering(tree, list(order), fetch_keys)
        got = evaluate(multi_store, query, plan=seq).rows
        assert got == want, f"order {[f.key for f in order]} diverged"


# -- IO behavior -------------------------------------------------------------------


def test_always_false_filter_short_circuits(multi_store, schemas):
    doc = {
        "from": ["ads"],
        "filters": [
            {"path": "ads.Email", "op": "=", "value": "nope", "selectivity": 0.001},
            {"path": "ads.Campaign.WordSet.Word", "op": "=", "value": "wA"},
        ],
        "fetch": ["ads.Email"],
    }
    result = evaluate(multi_store, q(schemas, doc))
    assert result.rows == []
    # the Email scan came back empty, so the Word column was never read
    assert result.stats["columns_read"] == 1


def test_a_full_context_scan_computes_no_positions(monkeypatch):
    store = generate("tiny", seed=0).store()
    query = parse_query({"people": store.schema("people")}, WORKLOAD[0].doc)
    calls = []

    def counting(bits):
        calls.append(int(bits.size))
        return positions_of(bits)

    monkeypatch.setattr("quest.engine.positions_of", counting)
    result = evaluate(store, query)
    # Q01 scans one column under an all-ones context; only the rows take positions
    assert result.rows
    assert calls == [store.data("people").cardinality[store.schema("people").root.id]]


def test_audit_finds_no_stray_reads(multi_store, schemas):
    docs = [
        PARITY_DOCS[1],
        PARITY_DOCS[5],
        PARITY_DOCS[9],
        {
            "from": ["ads", "people"],
            "joins": JOIN_CLAUSE,
            "filters": [
                {"path": "ads.Campaign.WordSet.Word", "op": "=", "value": "wA"},
                {"path": "people.credit_score", "op": ">", "value": 600},
            ],
            "fetch": ["people.balance", "ads.Email"],
        },
    ]
    for doc in docs:
        result = evaluate(multi_store, q(schemas, doc), audit=True)
        assert result.stats["audit_violations"] == 0


def test_skip_index_preserves_rows_and_saves_metadata(multi_store, schemas):
    doc = {
        "from": ["ads"],
        "filters": [{"path": "ads.Campaign.Clicks.Person", "op": "=", "value": "p4"}],
        "fetch": ["ads.Email"],
    }
    query = q(schemas, doc)
    plain = evaluate(multi_store, query)
    indexes = {"ads": build_skip_tree(multi_store.data("ads"))}
    skipped = evaluate(multi_store, query, indexes=indexes)
    assert skipped.rows == plain.rows == [("e1",)]
    assert skipped.stats["metadata_reads"] <= plain.stats["metadata_reads"]


def test_result_stats_shape(multi_store, schemas):
    result = evaluate(multi_store, q(schemas, PARITY_DOCS[1]))
    assert isinstance(result, ResultSet)
    assert len(result) == len(result.rows) == len(list(result))
    for key in ("columns_read", "metadata_reads", "bytes_read", "bitset_ops", "wall_time"):
        assert key in result.stats
    assert result.stats["columns_read"] >= 1
    assert result.stats["bytes_read"] > 0
    assert result.stats["wall_time"] >= 0


def test_run_query_parses_against_store(multi_store):
    doc = {
        "from": ["ads"],
        "filters": [{"path": "ads.Campaign.WordSet.Word", "op": "=", "value": "wA"}],
        "fetch": ["ads.Email"],
    }
    # one row per advertiser: both wA hits live under e1
    assert run_query(multi_store, doc).rows == [("e1",)]


# -- error parity -------------------------------------------------------------------


def test_ambiguous_join_fetch_raises_like_oracle(ads_schema, people_schema):
    docs = [
        {
            "Email": "e1",
            "Campaign": [
                {"WordSet": {"Word": ["w"]}, "Clicks": [{"Person": ["p1"]}]},
                {"WordSet": {"Word": ["w"]}, "Clicks": [{"Person": ["p1"]}]},
            ],
        }
    ]
    store = (
        Store()
        .add(ingest_json(docs, ads_schema))
        .add(ingest_rows(PEOPLE_ROWS, people_schema))
    )
    doc = {
        "from": ["ads", "people"],
        "joins": JOIN_CLAUSE,
        "filters": [{"path": "people.credit_score", "op": ">", "value": 0}],
        "fetch": ["people.balance", "ads.Email"],
    }
    query = parse_query({"ads": ads_schema, "people": people_schema}, doc)
    with pytest.raises(QueryError, match="single host instance"):
        evaluate(store, query)


def test_nulls_never_match_inequality(ads_schema, schemas):
    docs = [
        {"Email": None, "Campaign": [{"WordSet": {"Word": ["w"]}, "Clicks": []}]},
        {"Email": "e9", "Campaign": [{"WordSet": {"Word": ["w"]}, "Clicks": []}]},
    ]
    store = Store().add(ingest_json(docs, ads_schema))
    doc = {
        "from": ["ads"],
        "filters": [{"path": "ads.Email", "op": "!=", "value": "zzz"}],
        "fetch": ["ads.Email"],
    }
    assert evaluate(store, q(schemas, doc)).rows == [("e9",)]


def test_null_fetch_comes_back_as_none(ads_schema, schemas):
    docs = [{"Campaign": [{"WordSet": {"Word": ["w"]}, "Clicks": []}]}]
    store = Store().add(ingest_json(docs, ads_schema))
    doc = {
        "from": ["ads"],
        "filters": [{"path": "ads.Campaign.WordSet.Word", "op": "=", "value": "w"}],
        "fetch": ["ads.Email"],
    }
    assert evaluate(store, q(schemas, doc)).rows == [(None,)]


# -- string columns compare dictionary codes -----------------------------------


def _reopened(store, tmp_path, reopen: bool):
    if not reopen:
        return store
    write_store(store, tmp_path / "s")
    return open_store(tmp_path / "s")


@pytest.mark.parametrize("reopen", [False, True], ids=["in-memory", "reopened"])
def test_string_operands_absent_from_the_dictionary(tmp_path, ads_schema, people_schema, reopen):
    store = _reopened(_join_store(ads_schema, people_schema), tmp_path, reopen)
    schemas = {"ads": ads_schema, "people": people_schema}
    person = "ads.Campaign.Clicks.Person"
    valid = sum(store.data("ads").columns[PERSON].validity)
    for op, value, count in (
        ("=", "nope", 0),
        ("!=", "nope", valid),
        ("in", ["nope"], 0),
        ("in", ["nope", "zz", "p2", "also-not"], 2),
        ("=", "", 0),  # nulls hold "", and match nothing
        ("!=", "", valid),
        ("=", "p1", 3),
        ("!=", "p1", valid - 3),
    ):
        doc = {"from": ["ads"], "filters": [{"path": person, "op": op, "value": value}], "fetch": [person]}
        query = parse_query(schemas, doc)
        rows = evaluate(store, query).rows
        assert rows == oracle_query(store, query), (op, value)
        assert len(rows) == count, (op, value)


@pytest.mark.parametrize("reopen", [False, True], ids=["in-memory", "reopened"])
def test_string_join_with_keys_on_one_side_only(tmp_path, ads_schema, people_schema, reopen):
    # "zz" and "yy" are clicked but have no people row; "p3".."p7" and "qq"
    # have a people row nobody clicked
    docs = [
        {"Email": "e1", "Campaign": [
            {"WordSet": {"Word": ["w"]}, "Clicks": [{"Person": ["p1", None, "zz"]}]},
        ]},
        {"Email": "e2", "Campaign": [
            {"WordSet": {"Word": ["w"]}, "Clicks": [{"Person": ["p2", "yy"]}]},
        ]},
    ]
    rows = PEOPLE_ROWS + [{"PID": "qq", "credit_score": 1.0, "balance": 5000.0}]
    store = Store().add(ingest_json(docs, ads_schema)).add(ingest_rows(rows, people_schema))
    store = _reopened(store, tmp_path, reopen)
    schemas = {"ads": ads_schema, "people": people_schema}
    fetch = {"from": ["ads", "people"], "joins": JOIN_CLAUSE, "fetch": ["ads.Email", "people.PID", "people.balance"]}
    _, pairs = _checked_join_pairs(store, parse_query(schemas, fetch).joins[0])
    assert pairs == [(0, 0), (3, 1)]
    for filters in ([], [{"path": "people.balance", "op": ">", "value": 100.0}]):
        query = parse_query(schemas, {**fetch, "filters": filters})
        got = evaluate(store, query).rows
        assert got == oracle_query(store, query)
        assert sorted(got) == [("e1", "p1", 1000.0), ("e2", "p2", 250.0)]


TYPED_MANIFEST = {
    "name": "typed",
    "model": "table",
    "root": {
        "name": "typed",
        "kind": "record",
        "children": [
            {"name": "s", "kind": "primitive", "primitive": "string"},
            {"name": "x", "kind": "primitive", "primitive": "number"},
            {"name": "b", "kind": "primitive", "primitive": "boolean"},
        ],
    },
}


@pytest.mark.parametrize("reopen", [False, True], ids=["in-memory", "reopened"])
def test_rows_keep_the_oracles_python_types(tmp_path, reopen):
    schema = parse_schema(TYPED_MANIFEST)
    rows = [
        {"s": "a", "x": 3, "b": True},  # an int comes back as the float it is stored as
        {"s": None, "x": float("nan"), "b": False},
        {"s": "", "x": None, "b": None},
        {"s": "é\x00", "x": -2.5, "b": True},
    ]
    store = _reopened(Store().add(ingest_rows(rows, schema)), tmp_path, reopen)
    fetch = ["typed.s", "typed.x", "typed.b"]
    results = []
    for filters in ([], [{"path": "typed.s", "op": "!=", "value": "a"}]):
        query = parse_query({"typed": schema}, {"from": ["typed"], "filters": filters, "fetch": fetch})
        got = evaluate(store, query).rows
        want = oracle_query(store, query)
        # repr, because NaN != NaN
        assert [[(type(v), repr(v)) for v in row] for row in got] == [[(type(v), repr(v)) for v in row] for row in want]
        results.append(got)
    everything, filtered = results
    assert [[type(v).__name__ for v in row] for row in everything] == [
        ["str", "float", "bool"],
        ["NoneType", "float", "bool"],
        ["str", "NoneType", "NoneType"],
        ["str", "float", "bool"],
    ]
    assert repr(everything[1][1]) == "nan"
    assert filtered == [everything[2], everything[3]]  # a null string matches no `!=`


def test_row_build_leaves_the_collector_as_it_found_it(multi_store, schemas):
    doc = {"from": ["ads"], "fetch": ["ads.Campaign.WordSet.Word"]}
    query = q(schemas, doc)
    assert gc.isenabled()
    assert evaluate(multi_store, query).rows
    assert gc.isenabled()
    gc.disable()
    try:
        assert evaluate(multi_store, query).rows
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_row_build_starts_no_collections(people_schema):
    rows = [{"PID": f"p{i}", "credit_score": float(i), "balance": 1.0} for i in range(3000)]
    store = Store().add(ingest_rows(rows, people_schema))
    query = parse_query({"people": people_schema}, {"from": ["people"], "fetch": ["people.PID", "people.balance"]})
    evaluate(store, query)  # first use builds the height-0 tree
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    threshold = gc.get_threshold()
    gc.set_threshold(100)
    gc.callbacks.append(count)
    try:
        assert len(evaluate(store, query).rows) == 3000
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*threshold)
    # building 3000 row tuples unpaused would start about thirty
    assert len(started) <= 2, started


# -- one-column string answers come from the dictionary's kept rows --------------


def _people_with_null_pids(people_schema, n=3000):
    rows = [{"PID": None if i % 7 == 3 else f"p{i % 1000}", "credit_score": float(i), "balance": 1.0} for i in range(n)]
    return Store().add(ingest_rows(rows, people_schema))


@pytest.mark.parametrize("reopen", [False, True], ids=["in-memory", "reopened"])
def test_a_warm_one_string_column_fetch_builds_and_collects_no_tuples(tmp_path, people_schema, reopen):
    store = _reopened(_people_with_null_pids(people_schema), tmp_path, reopen)
    query = parse_query({"people": people_schema}, {"from": ["people"], "fetch": ["people.PID"]})
    first = evaluate(store, query).rows
    assert first == oracle_query(store, query)
    assert first[3] == (None,) and all(row is first[3] for row in first if row[0] is None)
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    threshold = gc.get_threshold()
    gc.collect()
    gc.set_threshold(100)
    gc.callbacks.append(count)
    try:
        again = evaluate(store, query).rows
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*threshold)
    assert started == []
    assert type(again) is list and again == first
    assert all(a is b for a, b in zip(again, first))  # the same kept tuples


def test_ingest_and_multi_column_fetches_build_no_kept_rows(people_schema):
    store = _people_with_null_pids(people_schema)
    dictionary = store.column("people", 1).dictionary
    assert "_rows" not in vars(dictionary)  # `from_sorted` builds none
    one = parse_query({"people": people_schema}, {"from": ["people"], "fetch": ["people.PID"]})
    two = parse_query({"people": people_schema}, {"from": ["people"], "fetch": ["people.PID", "people.balance"]})
    both = evaluate(store, two).rows
    assert "_rows" not in vars(dictionary)
    assert both == oracle_query(store, two)
    assert [row[:1] for row in both] == evaluate(store, one).rows
    assert dictionary._rowed.all()  # the one-column fetch read every entry


# -- a join round trip stays inside its left context ------------------------------

Q07 = next(wq for wq in WORKLOAD if wq.name.startswith("Q07"))


def _q07_doc(word, credit):
    doc = dict(Q07.doc)
    doc["filters"] = [
        {"path": "ads.Campaign.WordSet.Word", "op": "=", "value": word},
        {"path": "people.credit_score", "op": ">", "value": credit},
    ]
    return doc


def _rows_under_every_order(store, query):
    """The rows of every valid filter order, with the skip index on and off."""
    indexes = {name: build_skip_tree(store.data(name)) for name in query.schemas}
    filters = _plan_filters(store, query)
    fetch_keys = [(f.site.schema, f.site.node) for f in query.fetch]
    for order in enumerate_valid_orders(query.composite, filters):
        seq = derive_wandering(query.composite, list(order), fetch_keys)
        for idx in (indexes, None):
            yield order, idx is not None, evaluate(store, query, plan=seq, indexes=idx).rows


def test_a_join_round_trip_keeps_its_left_context(ads_schema, people_schema):
    # A's hot campaign was clicked only by p1 (low credit); p2 (credit 800)
    # clicked A's cold campaign and B's hot one: only B has a hot campaign
    # with a high-credit click
    docs = [
        {"Email": "A", "Campaign": [
            {"WordSet": {"Word": ["hot"]}, "Clicks": [{"Person": ["p1"]}]},
            {"WordSet": {"Word": ["cold"]}, "Clicks": [{"Person": ["p2"]}]},
        ]},
        {"Email": "B", "Campaign": [
            {"WordSet": {"Word": ["hot"]}, "Clicks": [{"Person": ["p2"]}]},
        ]},
    ]
    people = [
        {"PID": "p1", "credit_score": 600.0, "balance": 1.0},
        {"PID": "p2", "credit_score": 800.0, "balance": 1.0},
    ]
    store = Store().add(ingest_json(docs, ads_schema)).add(ingest_rows(people, people_schema))
    query = parse_query({"ads": ads_schema, "people": people_schema}, _q07_doc("hot", 700))
    assert oracle_query(store, query) == [("B",)]
    firsts = set()
    for order, indexed, rows in _rows_under_every_order(store, query):
        firsts.add(order[0].key[0])
        assert rows == [("B",)], ([f.key for f in order], indexed)
    assert firsts == {"ads", "people"}


def _repeating_clicks_store(rng, ads_schema, people_schema):
    """A few advertisers whose campaigns are clicked from a pool of three
    or four persons, so every key repeats across campaigns and advertisers."""
    pids = [f"p{i}" for i in range(rng.randint(3, 4))]
    docs = []
    for a in range(rng.randint(2, 4)):
        campaigns = [
            {
                "WordSet": {"Word": rng.sample(["hot", "cold", "warm"], rng.randint(0, 2))},
                "Clicks": [{"Person": [rng.choice(pids + [None]) for _ in range(rng.randint(0, 3))]}],
            }
            for _ in range(rng.randint(1, 3))
        ]
        docs.append({"Email": f"a{a}", "Campaign": campaigns})
    people = [
        {"PID": pid, "credit_score": float(rng.choice([600, 650, 750, 800])), "balance": float(rng.randint(0, 9))}
        for pid in pids
        if rng.random() < 0.9
    ]
    return Store().add(ingest_json(docs, ads_schema)).add(ingest_rows(people, people_schema))


def test_parity_under_every_valid_order_with_repeating_join_keys(ads_schema, people_schema):
    rng = random.Random(20)
    schemas = {"ads": ads_schema, "people": people_schema}
    fetches = (["ads.Email"], ["ads.Campaign.Clicks.Person"], ["ads.Campaign.WordSet.Word", "ads.Email"])
    evaluations = 0
    for _ in range(300):
        store = _repeating_clicks_store(rng, ads_schema, people_schema)
        doc = {**_q07_doc(rng.choice(["hot", "cold"]), rng.choice([620, 700, 780])), "fetch": rng.choice(fetches)}
        query = parse_query(schemas, doc)
        want = oracle_query(store, query)
        for order, indexed, rows in _rows_under_every_order(store, query):
            assert rows == want, (doc, [f.key for f in order], indexed)
            evaluations += 1
    assert evaluations >= 1200


# -- a walk that re-enters a guest keeps the bits that left it --------------------

ROOM = "org.Region.Site.Building.Floor.Room"
ORG_SOCIAL_JOIN = [{"left": f"{ROOM}.owner", "right": "social.Person.pid", "unique": False}]
LIKED_TAG = "social.Person.like#.#Message.tag"


def _org_social_store(rooms, persons, tags, likes):
    """One org whose one floor holds `rooms` (dicts of label, owner and
    sensor), and a social graph of `persons` ``(pid, city)`` named P0, P1,
    ..., messages m0, m1, ... with `tags`, and `likes` ``(person, message)``."""
    org = [{"name": "o0", "Region": [{"code": "R0", "Site": [{"city": "c0", "Building": [
        {"tag": "b0", "Floor": [{"level": 0.0, "Room": rooms}]},
    ]}]}]}]
    vertices = {
        "Person": [{"id": f"P{i}", "pid": pid, "name": f"n{i}", "city": city} for i, (pid, city) in enumerate(persons)],
        "Message": [{"id": f"m{j}", "tag": tag} for j, tag in enumerate(tags)],
    }
    edges = {"know": [], "like": [(f"P{p}", f"m{m}") for p, m in likes]}
    return (
        Store()
        .add(ingest_json(org, parse_schema(datagen.ORG_MANIFEST)))
        .add(ingest_graph_tables(vertices, edges, datagen.social_schema()))
    )


def _org_social_schemas(store):
    return {name: store.schema(name) for name in ("org", "social")}


def test_a_walk_back_into_a_guest_keeps_the_bits_that_left_it():
    # P1 and P2 share the key pA, but only P1 passes the city filter; the
    # walk leaves `social` through the join and comes back down to fetch,
    # so the key must not bring P2 (and its like of m1) back
    store = _org_social_store(
        rooms=[{"label": "r0", "owner": "pA", "sensor": [1.0]}],
        persons=[("pA", "c0"), ("pA", "c9"), ("pZ", "c0")],
        tags=["t0", "t1"],
        likes=[(0, 0), (1, 1), (2, 1)],
    )
    doc = {
        "from": ["org", "social"],
        "joins": ORG_SOCIAL_JOIN,
        "filters": [{"path": "social.Person.city", "op": "=", "value": "c0"}],
        "fetch": [LIKED_TAG],
    }
    query = parse_query(_org_social_schemas(store), doc)
    assert oracle_query(store, query) == [("t0",)]
    runs = 0
    for order, indexed, rows in _rows_under_every_order(store, query):
        assert rows == [("t0",)], ([f.key for f in order], indexed)
        runs += 1
    assert runs == 4  # two orders, the index on and off


def _repeating_pids_store(rng):
    """Rooms and persons whose keys come from a pool of three, so a key
    repeats on both sides of the join; some rooms have no owner."""
    pool = ["pA", "pB", "pC"]
    rooms = []
    for _ in range(rng.randint(1, 4)):
        room = {"label": rng.choice(["r0", "r1"]), "sensor": [float(rng.randint(0, 3)) for _ in range(rng.randint(0, 2))]}
        if rng.random() < 0.9:
            room["owner"] = rng.choice(pool)
        rooms.append(room)
    persons = [(rng.choice(pool), rng.choice(["c0", "c1"])) for _ in range(rng.randint(2, 8))]
    tags = [f"t{j}" for j in range(rng.randint(1, 5))]
    likes = [(p, rng.randrange(len(tags))) for p in range(len(persons)) for _ in range(rng.randint(0, 2))]
    return _org_social_store(rooms, persons, tags, likes)


def test_parity_under_every_valid_order_with_repeating_right_keys():
    """`org` joined to `social` on `Person.pid`s drawn from three keys, so
    the right key repeats, with filters on either side and fetches below
    the shared `#Message` record.  Two of the 300 stores fail without the
    guest context kept."""
    rng = random.Random(21)
    filters = [
        {"path": "social.Person.city", "op": "=", "value": "c0"},
        {"path": "social.Person.name", "op": "!=", "value": "n1"},
        {"path": f"{ROOM}.label", "op": "=", "value": "r0"},
        {"path": f"{ROOM}.sensor", "op": "<", "value": 2},
    ]
    fetches = ([LIKED_TAG], [LIKED_TAG], ["social.Person.name"], ["social.Person.city", "social.Person.name"])
    evaluations = 0
    for _ in range(300):
        store = _repeating_pids_store(rng)
        doc = {
            "from": ["org", "social"],
            "joins": ORG_SOCIAL_JOIN,
            "filters": rng.sample(filters, rng.randint(1, 3)),
            "fetch": rng.choice(fetches),
        }
        query = parse_query(_org_social_schemas(store), doc)
        want = oracle_query(store, query)
        for order, indexed, rows in _rows_under_every_order(store, query):
            assert rows == want, (doc, [f.key for f in order], indexed)
            evaluations += 1
    assert evaluations >= 1800


# -- kept state is never stale -------------------------------------------------


def _answers(store, schemas) -> dict:
    """Rows and I/O counters of every workload query, index on and off."""
    indexes = {name: build_skip_tree(store.data(name)) for name in store.datasets}
    out = {}
    for wq in WORKLOAD:
        for idx in (indexes, None):
            rs = evaluate(store, parse_query(schemas, wq.doc), indexes=idx)
            stats = {k: rs.stats[k] for k in ("columns_read", "metadata_reads", "bytes_read", "bitset_ops")}
            out[wq.name, idx is None] = (rs.rows, stats, dict(store.io.metadata_log))
    return out


def test_a_partial_filter_scan_equals_the_compress_it_replaces():
    """`_scan_mask` on a partial context writes each scanned position's
    match in place; that equals compressing the positions by the match,
    and the whole column's match ANDed with the context."""
    rng = random.Random(23)
    bits_rng = np.random.default_rng(23)
    stores = [(generate("tiny", seed=3).store(), [wq.doc for wq in WORKLOAD])]
    for _ in range(12):
        store = datagen.random_corpus(rng).store()
        stores.append((store, [datagen.random_query_doc(rng) for _ in range(8)]))
    checked = nulls = 0
    for store, docs in stores:
        schemas = {name: store.schema(name) for name in store.datasets}
        for doc in docs:
            try:
                query = parse_query(schemas, doc)
            except QueryError:
                continue
            ev = _Evaluation(store, query, plan_query(store, query), {})
            for pred in query.filters:
                name, node = pred.site.schema, pred.site.node
                n = store.data(name).cardinality[node]
                column = store.column(name, node)
                whole = ev._scan_mask(name, node, np.ones(n, bool), [pred])
                for density in (0.05, 0.5, 0.95):
                    ctx = bits_rng.random(n) < density
                    positions = np.flatnonzero(ctx)
                    vals, valid = store.scan_values(name, node, positions, decode=False)
                    mask = column.match(vals, pred.op, pred.value) & valid
                    compressed = np.zeros(n, bool)
                    compressed[positions[mask]] = True
                    got = ev._scan_mask(name, node, ctx, [pred])
                    assert got.dtype == bool
                    assert np.array_equal(got, compressed) and np.array_equal(got, whole & ctx), doc
                    checked += 1
                nulls += column.has_nulls
    assert checked > 100 and nulls


def test_a_kept_route_delivers_as_it_did_the_first_time():
    store = generate("tiny", seed=0).store()
    data = store.data("org")
    schema = data.schema
    sensor = schema.resolve(["Region", "Site", "Building", "Floor", "Room", "sensor"]).id
    rng = np.random.default_rng(5)
    for src, dst in ((sensor, schema.root.id), (schema.root.id, sensor), (sensor, schema.resolve(["name"]).id)):
        bits = rng.random(data.cardinality[src]) < 0.3
        for index in (build_skip_tree(data), None):
            seen = []
            for _ in range(2):
                store.io.reset()
                out = deliver(store, "org", src, dst, bits, index=index)
                seen.append((out, dict(store.io.metadata_log), store.io.bitset_ops))
            (first, log1, ops1), (second, log2, ops2) = seen
            assert np.array_equal(first, second)
            assert log1 == log2 and ops1 == ops2
            assert log1  # the route reads at least one array


def test_new_data_for_a_schema_is_answered_from_its_new_arrays():
    store = generate("tiny", seed=3).store()
    schemas = {name: store.schema(name) for name in store.datasets}
    before = _answers(store, schemas)  # makes every kept table
    other = generate("tiny", seed=4, high=0.2, low=0.3)
    # the same Schema objects, so their kept composites are reused
    new = {
        "org": ingest_json(other.records["org"], schemas["org"]),
        "people": ingest_rows(other.records["people"], schemas["people"]),
    }
    for data in new.values():
        store.add(data)
    after = _answers(store, schemas)

    fresh_new = {
        "org": ingest_json(other.records["org"], datagen.org_schema()),
        "people": ingest_rows(other.records["people"], datagen.people_schema()),
    }
    fresh = Store()
    for name, data in generate("tiny", seed=3).datasets.items():
        fresh.add(fresh_new.get(name, data))
    assert after == _answers(fresh, {name: fresh.schema(name) for name in fresh.datasets})
    assert after != before
    for wq in WORKLOAD:
        assert after[wq.name, False][0] == oracle_query(store, parse_query(schemas, wq.doc)), wq.name


def test_two_parses_of_one_lone_schema_document_share_one_composite():
    store = generate("tiny", seed=0).store()
    schemas = {name: store.schema(name) for name in store.datasets}
    doc = next(wq.doc for wq in WORKLOAD if wq.name.startswith("Q09"))
    first, second = parse_query(schemas, doc), parse_query(schemas, doc)
    assert first.composite is second.composite is schemas["org"].composites[("org",)]
    assert first is not second
    assert first.filters is not second.filters and first.filters[0] is not second.filters[0]
    first.filters[0].value = -1.0
    assert second.filters[0].value == 999.0
    assert evaluate(store, second).rows == oracle_query(store, second) != []
    assert evaluate(store, first).rows == oracle_query(store, first) == []


def test_two_parses_of_one_join_shape_share_one_composite():
    store = generate("tiny", seed=0).store()
    schemas = {name: store.schema(name) for name in store.datasets}
    docs = {wq.name[:3]: wq.doc for wq in WORKLOAD}
    first, second = parse_query(schemas, docs["Q07"]), parse_query(schemas, docs["Q07"])
    assert first.composite is second.composite
    assert first is not second and first.joins[0] is not second.joins[0]
    # the same shape spelled with the root's name is the same shape
    spelled = copy.deepcopy(docs["Q07"])
    spelled["joins"][0]["left"] = "ads.Advertiser.Campaign.Clicks.Person"
    assert parse_query(schemas, spelled).composite is first.composite
    # another `unique` flag, or another guest Schema, is another shape
    flipped = copy.deepcopy(docs["Q07"])
    flipped["joins"][0]["unique"] = True
    unique = parse_query(schemas, flipped)
    assert unique.composite is not first.composite
    assert parse_query(schemas, flipped).composite is unique.composite
    guest = parse_query(dict(schemas, people=datagen.people_schema()), docs["Q07"])
    assert guest.composite not in (first.composite, unique.composite)
    assert len(schemas["ads"].composites) == 3
    three = [parse_query(schemas, docs["Q11"]) for _ in range(2)]
    assert three[0].composite is three[1].composite
    # new data for a guest schema, ingested with the same Schema object
    other = generate("tiny", seed=4, high=0.2, low=0.3)
    store.add(ingest_rows(other.records["people"], schemas["people"]))
    for query in (first, unique, parse_query(schemas, docs["Q07"]), *three, parse_query(schemas, docs["Q11"])):
        assert query.composite in (first.composite, unique.composite, three[0].composite)
        for indexes in (None, {name: build_skip_tree(store.data(name)) for name in store.datasets}):
            assert evaluate(store, query, indexes=indexes).rows == oracle_query(store, query)
    assert len(schemas["ads"].composites) == 3 and len(schemas["org"].composites) == 1


@pytest.mark.parametrize("indexed", [True, False])
def test_engine_equals_oracle_on_the_workload_after_a_warm_pass(indexed):
    store = generate("tiny", seed=6).store()
    schemas = {name: store.schema(name) for name in store.datasets}
    indexes = {name: build_skip_tree(store.data(name)) for name in store.datasets} if indexed else None
    for wq in WORKLOAD:
        evaluate(store, parse_query(schemas, wq.doc), indexes=indexes)
    for wq in WORKLOAD:
        query = parse_query(schemas, wq.doc)
        assert evaluate(store, query, indexes=indexes).rows == oracle_query(store, query), wq.name
