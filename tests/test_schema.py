import random

import pytest

from quest.errors import SchemaError
from quest.schema import Kind, Link, Schema, SchemaNode, expand_graph_schema, parse_schema, serialize_schema

from conftest import ADS_MANIFEST, ADVERTISER, CAMPAIGN, CLICKS, EMAIL, PERSON, SOCIAL_EDGES, SOCIAL_VERTICES, WORD, WORDSET


def test_ads_schema_shape(ads_schema):
    assert len(ads_schema) == 7
    assert [n.name for n in ads_schema.nodes] == [
        "Advertiser", "Email", "Campaign", "WordSet", "Word", "Clicks", "Person",
    ]
    assert [n.depth for n in ads_schema.nodes] == [0, 1, 1, 2, 3, 2, 3]
    assert ads_schema.max_depth() == 3  # four levels, root at depth 0


def test_ads_schema_kinds_and_links(ads_schema):
    n = ads_schema.node
    assert n(ADVERTISER).kind is Kind.RECORD and n(ADVERTISER).link is Link.ROOT
    assert n(EMAIL).kind is Kind.PRIMITIVE and n(EMAIL).link is Link.IDENTITY
    assert n(CAMPAIGN).kind is Kind.ARRAY and n(CAMPAIGN).link is Link.COUNTER
    assert n(WORDSET).kind is Kind.RECORD and n(WORDSET).link is Link.IDENTITY
    # repeated scalar fields are arrays that own their value column
    assert n(WORD).kind is Kind.ARRAY and n(WORD).primitive == "string" and n(WORD).has_values
    assert n(CLICKS).kind is Kind.ARRAY and not n(CLICKS).has_values
    assert n(PERSON).link is Link.COUNTER


def test_campaign_interval_covers_its_subtree(ads_schema):
    iv = ads_schema.subtree_interval(CAMPAIGN)
    inside = {nid for nid in range(7) if iv.contains(ads_schema.preorder_index(nid))}
    assert inside == {CAMPAIGN, WORDSET, WORD, CLICKS, PERSON}


def test_ancestor_queries(ads_schema):
    def in_subtree(top, node):
        return ads_schema.subtree_interval(top).contains(ads_schema.preorder_index(node))

    assert in_subtree(ADVERTISER, PERSON)
    assert in_subtree(CAMPAIGN, WORD)
    assert not in_subtree(WORDSET, PERSON)
    assert in_subtree(PERSON, PERSON)  # a subtree holds its own root
    assert ads_schema.ancestors(PERSON) == [CLICKS, CAMPAIGN, ADVERTISER]


def test_resolve_and_paths(ads_schema):
    assert ads_schema.resolve(["Campaign", "WordSet", "Word"]).id == WORD
    assert ads_schema.path_of(PERSON) == "Advertiser.Campaign.Clicks.Person"
    with pytest.raises(SchemaError):
        ads_schema.resolve(["Campaign", "Nope"])


def test_serialize_round_trip(ads_schema):
    doc = serialize_schema(ads_schema)
    again = parse_schema(doc)
    assert serialize_schema(again) == doc
    assert [n.name for n in again.nodes] == [n.name for n in ads_schema.nodes]
    assert [n.link for n in again.nodes] == [n.link for n in ads_schema.nodes]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["root"].pop("name"),
        lambda d: d["root"].update(kind="blob"),
        lambda d: d["root"]["children"].append({"name": "Email", "kind": "primitive", "primitive": "string"}),
        lambda d: d["root"]["children"].append({"name": "X", "kind": "array"}),
        lambda d: d["root"]["children"].append({"name": "Y", "kind": "indicator"}),
        lambda d: d["root"]["children"].append(
            {"name": "Z", "kind": "primitive", "primitive": "string",
             "children": [{"name": "W", "kind": "primitive", "primitive": "string"}]}
        ),
    ],
)
def test_bad_manifests_rejected(mutate):
    import copy

    doc = copy.deepcopy(ADS_MANIFEST)
    mutate(doc)
    with pytest.raises(SchemaError):
        parse_schema(doc)


def test_non_record_root_rejected():
    with pytest.raises(SchemaError):
        parse_schema({"name": "x", "root": {"name": "r", "kind": "array", "primitive": "number"}})


def test_graph_expansion_shape(social_schema):
    names = [n.name for n in social_schema.nodes]
    assert names == ["Person", "name", "city", "know#", "#Person", "like#", "#Message", "tag"]
    n = social_schema.node
    assert n(3).kind is Kind.ARRAY and n(3).link is Link.COUNTER
    # the know edge re-enters Person, so its target is an indicator leaf
    assert n(4).kind is Kind.INDICATOR and n(4).target == 0 and n(4).link is Link.IDENTITY
    # the like edge reaches Message for the first time: a record mapped by pointers
    assert n(6).kind is Kind.RECORD and n(6).link is Link.INDICATOR
    assert [n(i).depth for i in range(8)] == [0, 1, 1, 1, 2, 1, 2, 3]


def test_graph_expansion_unreachable_edges_are_skipped(caplog):
    vertices = SOCIAL_VERTICES + [{"label": "Orphan", "properties": []}]
    edges = SOCIAL_EDGES + [{"label": "lost", "from": "Orphan", "to": "Person"}]
    with caplog.at_level("WARNING"):
        schema = expand_graph_schema(vertices, edges, "Person", name="social")
    assert "lost" not in {n.name.rstrip("#") for n in schema.nodes}
    assert any("unreachable" in r.message for r in caplog.records)


def test_graph_expansion_unknown_labels_rejected():
    with pytest.raises(SchemaError):
        expand_graph_schema(SOCIAL_VERTICES, [{"label": "e", "from": "Person", "to": "Ghost"}], "Person")
    with pytest.raises(SchemaError):
        expand_graph_schema(SOCIAL_VERTICES, [], "Ghost")


def _random_schema(rng, n_nodes):
    nodes = [SchemaNode(id=0, name="r", kind=Kind.RECORD, parent=None, depth=0, link=Link.ROOT)]
    for nid in range(1, n_nodes):
        parent = rng.randrange(nid)
        while nodes[parent].kind not in (Kind.RECORD, Kind.ARRAY) or nodes[parent].primitive:
            parent = rng.randrange(nid)
        kind = rng.choice([Kind.RECORD, Kind.ARRAY, Kind.PRIMITIVE])
        node = SchemaNode(
            id=nid,
            name=f"f{nid}",
            kind=kind,
            parent=parent,
            depth=nodes[parent].depth + 1,
            primitive="number" if kind is Kind.PRIMITIVE else None,
            link=Link.COUNTER if kind is Kind.ARRAY else Link.IDENTITY,
        )
        nodes.append(node)
        nodes[parent].children.append(nid)
    for n in nodes:
        if n.kind is Kind.ARRAY and not n.children:
            n.primitive = "number"
        if n.kind is Kind.RECORD and not n.children and n.id != 0:
            n.kind = Kind.PRIMITIVE
            n.primitive = "number"
    return Schema("rand", nodes)


def test_intervals_agree_with_parent_walk_on_random_trees():
    rng = random.Random(719)
    for _ in range(50):
        schema = _random_schema(rng, rng.randrange(2, 40))
        for node in schema.nodes:
            walked = set(schema.ancestors(node.id))
            via_intervals = {
                a.id
                for a in schema.nodes
                if a.id != node.id and schema.subtree_interval(a.id).contains(schema.preorder_index(node.id))
            }
            assert walked == via_intervals
