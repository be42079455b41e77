"""Shared fixtures: the worked advertiser example, a tiny table, a tiny graph.

The advertiser documents are the reference dataset used across the test suite;
all expected counters and bitsets below were derived by hand from the nesting
and are asserted as frozen literals.
"""
import numpy as np
import pytest

from quest.schema import expand_graph_schema, parse_schema
from quest.ingest import ingest_graph_tables, ingest_json, ingest_rows
from quest.store import Store

ADS_MANIFEST = {
    "name": "ads",
    "model": "document",
    "root": {
        "name": "Advertiser",
        "kind": "record",
        "children": [
            {"name": "Email", "kind": "primitive", "primitive": "string"},
            {
                "name": "Campaign",
                "kind": "array",
                "children": [
                    {
                        "name": "WordSet",
                        "kind": "record",
                        "children": [{"name": "Word", "kind": "array", "primitive": "string"}],
                    },
                    {
                        "name": "Clicks",
                        "kind": "array",
                        "children": [{"name": "Person", "kind": "array", "primitive": "string"}],
                    },
                ],
            },
        ],
    },
}

# Two advertisers; a1 runs two campaigns, a2 runs one with two click groups.
ADS_DOCS = [
    {
        "Email": "e1",
        "Campaign": [
            {"WordSet": {"Word": ["wA", "w2", "w3"]}, "Clicks": [{"Person": ["p1", "p2"]}]},
            {"WordSet": {"Word": ["wA", "w5"]}, "Clicks": [{"Person": ["p3", "p4"]}]},
        ],
    },
    {
        "Email": "e2",
        "Campaign": [
            {
                "WordSet": {"Word": ["w6", "w7", "w8"]},
                "Clicks": [{"Person": ["p5"]}, {"Person": ["p6", "p7"]}],
            }
        ],
    },
]

# node ids in the ads schema, in manifest order
ADVERTISER, EMAIL, CAMPAIGN, WORDSET, WORD, CLICKS, PERSON = range(7)

PEOPLE_ROWS = [
    {"PID": "p1", "credit_score": 620.0, "balance": 1000.0},
    {"PID": "p2", "credit_score": 710.0, "balance": 250.0},
    {"PID": "p3", "credit_score": 680.0, "balance": 4000.0},
    {"PID": "p4", "credit_score": 590.0, "balance": 60.0},
    {"PID": "p5", "credit_score": 805.0, "balance": 9000.0},
    {"PID": "p6", "credit_score": 745.0, "balance": 120.0},
    {"PID": "p7", "credit_score": 655.0, "balance": 777.0},
]

PEOPLE_MANIFEST = {
    "name": "people",
    "model": "table",
    "root": {
        "name": "people",
        "kind": "record",
        "children": [
            {"name": "PID", "kind": "primitive", "primitive": "string"},
            {"name": "credit_score", "kind": "primitive", "primitive": "number"},
            {"name": "balance", "kind": "primitive", "primitive": "number"},
        ],
    },
}

SOCIAL_VERTICES = [
    {
        "label": "Person",
        "properties": [
            {"name": "name", "primitive": "string"},
            {"name": "city", "primitive": "string"},
        ],
    },
    {"label": "Message", "properties": [{"name": "tag", "primitive": "string"}]},
]

SOCIAL_EDGES = [
    {"label": "know", "from": "Person", "to": "Person"},
    {"label": "like", "from": "Person", "to": "Message"},
]

SOCIAL_VERTEX_ROWS = {
    "Person": [
        {"id": "p1", "name": "ann", "city": "rome"},
        {"id": "p2", "name": "bo", "city": "oslo"},
        {"id": "p3", "name": "cy", "city": "rome"},
    ],
    "Message": [{"id": "m1", "tag": "x"}, {"id": "m2", "tag": "y"}],
}

SOCIAL_EDGE_ROWS = {
    "know": [("p1", "p2"), ("p2", "p3"), ("p3", "p1"), ("p1", "p3")],
    "like": [("p1", "m1"), ("p3", "m2"), ("p2", "m1")],
}


@pytest.fixture
def ads_schema():
    return parse_schema(ADS_MANIFEST)


@pytest.fixture
def ads_data(ads_schema):
    return ingest_json(ADS_DOCS, ads_schema)


@pytest.fixture
def ads_store(ads_data):
    return Store().add(ads_data)


@pytest.fixture
def people_schema():
    return parse_schema(PEOPLE_MANIFEST)


@pytest.fixture
def people_data(people_schema):
    return ingest_rows(PEOPLE_ROWS, people_schema)


@pytest.fixture
def social_schema():
    return expand_graph_schema(SOCIAL_VERTICES, SOCIAL_EDGES, "Person", name="social")


@pytest.fixture
def social_data(social_schema):
    return ingest_graph_tables(SOCIAL_VERTEX_ROWS, SOCIAL_EDGE_ROWS, social_schema)


@pytest.fixture
def multi_store(ads_data, people_data, social_data):
    return Store().add(ads_data).add(people_data).add(social_data)


def dense_relation(m):
    """The (upper x lower) boolean relation of mapping `m`, read through `m.up`
    on unit bit vectors, so it does not depend on how `m` stores its arrays."""
    out = np.zeros((m.upper_cardinality, m.lower_cardinality), dtype=bool)
    for lower in range(m.lower_cardinality):
        unit = np.zeros(m.lower_cardinality, dtype=bool)
        unit[lower] = True
        out[:, lower] = m.up(unit)
    return out
