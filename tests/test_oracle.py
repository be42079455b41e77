"""Reference evaluator: materialization round trips and query semantics.

The expected row sets below were worked out by hand from the conftest
datasets; engine tests later compare against oracle output, so these pin
down what that output means.
"""
import pytest

from quest.errors import QueryError
from quest.oracle import materialize_records, oracle_evaluate, oracle_query
from quest.query import parse_query
from quest.schema import parse_schema
from quest.ingest import ingest_json
from quest.store import Store

from conftest import ADS_DOCS, PEOPLE_ROWS, SOCIAL_EDGE_ROWS, SOCIAL_VERTEX_ROWS


@pytest.fixture
def schemas(ads_schema, people_schema, social_schema):
    return {"ads": ads_schema, "people": people_schema, "social": social_schema}


def q(schemas, doc):
    return parse_query(schemas, doc)


# -- materialization -----------------------------------------------------------


def test_documents_round_trip(ads_store):
    assert materialize_records(ads_store, "ads") == ADS_DOCS


def test_rows_round_trip(multi_store):
    assert materialize_records(multi_store, "people") == PEOPLE_ROWS


def test_graph_round_trip_uses_offsets(multi_store):
    got = materialize_records(multi_store, "social")
    assert got["vertices"]["Person"] == [
        {"name": "ann", "city": "rome"},
        {"name": "bo", "city": "oslo"},
        {"name": "cy", "city": "rome"},
    ]
    assert got["vertices"]["Message"] == [{"tag": "x"}, {"tag": "y"}]
    # edges come back grouped by source offset, matching ingest order
    assert got["edges"]["know"] == [(0, 1, {}), (0, 2, {}), (1, 2, {}), (2, 0, {})]
    assert got["edges"]["like"] == [(0, 0, {}), (1, 0, {}), (2, 1, {})]


def test_missing_fields_materialize_as_defaults(ads_schema):
    docs = [{"Campaign": [{"Clicks": []}]}]
    store = Store().add(ingest_json(docs, ads_schema))
    assert materialize_records(store, "ads") == [
        {"Email": None, "Campaign": [{"WordSet": {"Word": []}, "Clicks": []}]}
    ]


# -- single-schema semantics ------------------------------------------------------


def test_two_filters_share_the_campaign(multi_store, schemas):
    doc = {
        "from": ["ads"],
        "filters": [
            {"path": "ads.Campaign.WordSet.Word", "op": "=", "value": "wA"},
            {"path": "ads.Campaign.Clicks.Person", "op": "=", "value": "p4"},
        ],
        "fetch": ["ads.Email"],
    }
    assert oracle_query(multi_store, q(schemas, doc)) == [("e1",)]
    # p5 clicks live in a2's only campaign, whose words lack wA
    doc["filters"][1]["value"] = "p5"
    assert oracle_query(multi_store, q(schemas, doc)) == []


def test_store_and_record_evaluation_agree(multi_store, schemas):
    doc = {
        "from": ["ads"],
        "filters": [{"path": "ads.Campaign.WordSet.Word", "op": "=", "value": "wA"}],
        "fetch": ["ads.Campaign.WordSet.Word", "ads.Email"],
    }
    query = q(schemas, doc)
    from_store = oracle_query(multi_store, query)
    from_records = oracle_evaluate(schemas, {"ads": ADS_DOCS}, query)
    assert from_store == from_records == [("wA", "e1"), ("wA", "e1")]


def test_one_row_per_deepest_instance(multi_store, schemas):
    doc = {
        "from": ["ads"],
        "filters": [{"path": "ads.Email", "op": "=", "value": "e2"}],
        "fetch": ["ads.Campaign.Clicks.Person", "ads.Email"],
    }
    rows = oracle_query(multi_store, q(schemas, doc))
    assert sorted(rows) == [("p5", "e2"), ("p6", "e2"), ("p7", "e2")]


def test_same_site_predicates_bind_one_instance(multi_store, schemas):
    doc = {
        "from": ["people"],
        "filters": [
            {"path": "people.credit_score", "op": ">", "value": 650},
            {"path": "people.credit_score", "op": "<", "value": 700},
        ],
        "fetch": ["people.PID"],
    }
    assert sorted(oracle_query(multi_store, q(schemas, doc))) == [("p3",), ("p7",)]


def test_in_operator(multi_store, schemas):
    doc = {
        "from": ["people"],
        "filters": [
            {"path": "people.PID", "op": "in", "value": ["p1", "p4", "p5"]},
            {"path": "people.balance", "op": "<", "value": 5000},
        ],
        "fetch": ["people.PID", "people.balance"],
    }
    rows = oracle_query(multi_store, q(schemas, doc))
    assert sorted(rows) == [("p1", 1000.0), ("p4", 60.0)]


def test_nulls_never_match(ads_schema, schemas):
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
    # != still skips the null: predicates never match missing values
    assert oracle_query(store, q(schemas, doc)) == [("e9",)]


def test_null_fetch_value_comes_back_as_none(ads_schema, schemas):
    docs = [{"Campaign": [{"WordSet": {"Word": ["w"]}, "Clicks": []}]}]
    store = Store().add(ingest_json(docs, ads_schema))
    doc = {
        "from": ["ads"],
        "filters": [{"path": "ads.Campaign.WordSet.Word", "op": "=", "value": "w"}],
        "fetch": ["ads.Email"],
    }
    assert oracle_query(store, q(schemas, doc)) == [(None,)]


def test_empty_array_fails_existential(ads_schema, schemas):
    docs = [{"Email": "e1", "Campaign": []}]
    store = Store().add(ingest_json(docs, ads_schema))
    doc = {
        "from": ["ads"],
        "filters": [{"path": "ads.Campaign.WordSet.Word", "op": "=", "value": "w"}],
        "fetch": ["ads.Email"],
    }
    assert oracle_query(store, q(schemas, doc)) == []


# -- joins ---------------------------------------------------------------------


def test_join_filters_host_by_guest(multi_store, schemas):
    doc = {
        "from": ["ads", "people"],
        "filters": [{"path": "people.credit_score", "op": ">", "value": 700}],
        "joins": [{"left": "ads.Campaign.Clicks.Person", "right": "people.PID"}],
        "fetch": ["ads.Email"],
    }
    rows = oracle_query(multi_store, q(schemas, doc))
    assert sorted(rows) == [("e1",), ("e2",)]


def test_join_is_scoped_by_host_filters(multi_store, schemas):
    doc = {
        "from": ["ads", "people"],
        "filters": [
            {"path": "ads.Campaign.WordSet.Word", "op": "=", "value": "wA"},
            {"path": "people.credit_score", "op": ">", "value": 700},
        ],
        "joins": [
            {"left": "ads.Campaign.Clicks.Person", "right": "people.PID", "unique": True}
        ],
        "fetch": ["people.credit_score", "ads.Email"],
    }
    # within wA campaigns the only clicker above 700 is p2
    assert oracle_query(multi_store, q(schemas, doc)) == [(710.0, "e1")]


def test_join_misses_yield_no_rows(multi_store, schemas):
    doc = {
        "from": ["ads", "people"],
        "filters": [{"path": "people.credit_score", "op": ">", "value": 10000}],
        "joins": [{"left": "ads.Campaign.Clicks.Person", "right": "people.PID"}],
        "fetch": ["ads.Email"],
    }
    assert oracle_query(multi_store, q(schemas, doc)) == []


def test_ambiguous_join_fetch_raises(ads_schema, people_schema):
    # two valid left instances share the key value p1; fetching across the
    # unique join cannot decide between them
    docs = [
        {
            "Email": "e1",
            "Campaign": [
                {"WordSet": {"Word": ["w"]}, "Clicks": [{"Person": ["p1"]}]},
                {"WordSet": {"Word": ["w"]}, "Clicks": [{"Person": ["p1"]}]},
            ],
        }
    ]
    from quest.ingest import ingest_rows

    store = (
        Store()
        .add(ingest_json(docs, ads_schema))
        .add(ingest_rows(PEOPLE_ROWS, people_schema))
    )
    schemas = {"ads": ads_schema, "people": people_schema}
    doc = {
        "from": ["ads", "people"],
        "filters": [{"path": "people.credit_score", "op": ">", "value": 0}],
        "joins": [
            {"left": "ads.Campaign.Clicks.Person", "right": "people.PID", "unique": True}
        ],
        "fetch": ["people.balance", "ads.Email"],
    }
    with pytest.raises(QueryError, match="single host instance"):
        oracle_query(store, parse_query(schemas, doc))


# -- graph chains -----------------------------------------------------------------


def social_query(filters, graph_paths):
    return {
        "from": ["social"],
        "filters": filters,
        "graph_paths": graph_paths,
        "fetch": ["social.Person.name"],
    }


def test_one_hop_chain(multi_store, schemas):
    doc = social_query(
        [{"path": "social.Person.know#.#Person.name", "op": "=", "value": "cy"}],
        [["social.Person.know#.#Person"]],
    )
    assert sorted(oracle_query(multi_store, q(schemas, doc))) == [("ann",), ("bo",)]


def test_chain_through_shared_vertex_record(multi_store, schemas):
    doc = social_query(
        [
            {
                "path": "social.Person.know#.#Person.like#.#Message.tag",
                "op": "=",
                "value": "y",
            }
        ],
        [["social.Person.know#.#Person"]],
    )
    # the known person must have liked a message tagged y: only cy did
    assert sorted(oracle_query(multi_store, q(schemas, doc))) == [("ann",), ("bo",)]


def test_two_hop_chain(multi_store, schemas):
    doc = social_query(
        [
            {
                "path": "social.Person.know#.#Person.know#.#Person.name",
                "op": "=",
                "value": "ann",
            }
        ],
        [
            [
                "social.Person.know#.#Person",
                "social.Person.know#.#Person.know#.#Person",
            ]
        ],
    )
    assert sorted(oracle_query(multi_store, q(schemas, doc))) == [("ann",), ("bo",)]


def test_bare_path_asserts_edge_existence(multi_store, schemas):
    # no chain filters: the declared path just demands an outgoing know edge,
    # and every person has one; add a city filter to cut it down
    doc = social_query(
        [{"path": "social.Person.city", "op": "=", "value": "oslo"}],
        [["social.Person.know#.#Person"]],
    )
    assert sorted(oracle_query(multi_store, q(schemas, doc))) == [("bo",)]


def test_direct_filter_through_vertex_record(multi_store, schemas):
    doc = {
        "from": ["social"],
        "filters": [
            {"path": "social.Person.like#.#Message.tag", "op": "=", "value": "y"}
        ],
        "fetch": ["social.Person.name"],
    }
    # no graph path needed: the path never walks through a cycle pointer
    assert oracle_query(multi_store, q(schemas, doc)) == [("cy",)]


def test_chain_members_must_share_one_walk(multi_store, schemas):
    # ann knows bo (oslo) and cy (rome); demanding a known person who is
    # both in rome and named bo must fail, while rome+cy succeeds
    base = [
        {"path": "social.Person.know#.#Person.city", "op": "=", "value": "rome"},
        {"path": "social.Person.know#.#Person.name", "op": "=", "value": "bo"},
    ]
    doc = social_query(base, [["social.Person.know#.#Person"]])
    assert oracle_query(multi_store, q(schemas, doc)) == []
    base[1]["value"] = "cy"
    doc = social_query(base, [["social.Person.know#.#Person"]])
    assert sorted(oracle_query(multi_store, q(schemas, doc))) == [("ann",), ("bo",)]


def test_graph_evaluation_from_records(multi_store, schemas):
    records = {
        "social": {"vertices": SOCIAL_VERTEX_ROWS, "edges": SOCIAL_EDGE_ROWS}
    }
    doc = social_query(
        [{"path": "social.Person.know#.#Person.name", "op": "=", "value": "cy"}],
        [["social.Person.know#.#Person"]],
    )
    query = q(schemas, doc)
    assert sorted(oracle_evaluate(schemas, records, query)) == sorted(
        oracle_query(multi_store, query)
    )
