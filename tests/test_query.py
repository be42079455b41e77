"""Query parsing, path resolution, and the composite tree."""
import pytest

from quest.errors import QueryError
from quest.query import (
    OPERATORS,
    CompositeTree,
    parse_query,
    resolve_path,
)
from quest.schema import expand_graph_schema, parse_schema

from conftest import (
    ADS_MANIFEST,
    ADVERTISER,
    CAMPAIGN,
    CLICKS,
    EMAIL,
    PEOPLE_MANIFEST,
    PERSON,
    SOCIAL_EDGES,
    SOCIAL_VERTICES,
    WORD,
    WORDSET,
)


@pytest.fixture
def schemas():
    return {
        "ads": parse_schema(ADS_MANIFEST),
        "people": parse_schema(PEOPLE_MANIFEST),
        "social": expand_graph_schema(SOCIAL_VERTICES, SOCIAL_EDGES, "Person", name="social"),
    }


# social node ids, fixed by expansion order
S_PERSON, S_NAME, S_CITY, S_KNOW, S_KNOW_TGT, S_LIKE, S_MSG, S_TAG = range(8)


# -- path resolution ---------------------------------------------------------


def test_resolve_with_and_without_root_name(schemas):
    a = resolve_path(schemas, "ads.Advertiser.Campaign.WordSet.Word")
    b = resolve_path(schemas, "ads.Campaign.WordSet.Word")
    assert a == b
    assert a.schema == "ads" and a.node == WORD and a.chain == ()


def test_resolve_teleports_through_cycle_pointer(schemas):
    site = resolve_path(schemas, "social.Person.know#.#Person.name")
    assert site.node == S_NAME
    assert site.chain == (S_KNOW_TGT,)
    two = resolve_path(schemas, "social.Person.know#.#Person.know#.#Person.city")
    assert two.node == S_CITY
    assert two.chain == (S_KNOW_TGT, S_KNOW_TGT)


def test_resolve_walks_into_shared_vertex_record(schemas):
    # a first-visit record is entered in place, no chain entry
    site = resolve_path(schemas, "social.Person.like#.#Message.tag")
    assert site.node == S_TAG and site.chain == ()


@pytest.mark.parametrize(
    "path",
    [
        "nope.Email",
        "ads",
        "ads.Nope",
        "ads.Campaign.Nope",
        "ads.Campaign.WordSet.Word.deeper",
        "social.Person.know#.#Person",  # bare pointer has no values to address
    ],
)
def test_resolve_rejects_bad_paths(schemas, path):
    with pytest.raises(QueryError):
        site = resolve_path(schemas, path)
        # a path used as a filter/fetch must name a value column
        if not schemas[site.schema].node(site.node).has_values:
            raise QueryError("no values")


# -- filter validation ---------------------------------------------------------


def _q(schemas, doc):
    return parse_query(schemas, doc)


def base_doc():
    return {
        "from": ["ads"],
        "filters": [{"path": "ads.Email", "op": "=", "value": "e1"}],
        "fetch": ["ads.Email"],
    }


def test_minimal_query_parses(schemas):
    q = _q(schemas, base_doc())
    assert q.host == "ads"
    assert q.filters[0].site.node == EMAIL
    assert q.deepest_fetch.node == EMAIL


def test_operators_are_the_documented_set():
    assert OPERATORS == ("=", "!=", "<", "<=", ">", ">=", "in")


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(filters=[{"path": "ads.Email", "op": "~", "value": "x"}]),
        lambda d: d.update(filters=[{"path": "ads.Email", "op": "<", "value": "x"}]),
        lambda d: d.update(filters=[{"path": "ads.Email", "op": "=", "value": 3}]),
        lambda d: d.update(filters=[{"path": "ads.Email", "op": "=", "value": None}]),
        lambda d: d.update(filters=[{"path": "ads.Email", "op": "in", "value": []}]),
        lambda d: d.update(filters=[{"path": "ads.Email", "op": "in", "value": "e1"}]),
        lambda d: d.update(filters=[{"path": "ads.Email", "op": "=", "value": "e1", "selectivity": 1.5}]),
        lambda d: d.update(filters=[{"path": "ads.Advertiser", "op": "=", "value": "x"}]),
        lambda d: d.update(filters="nope"),
        lambda d: d.update(fetch=[]),
        lambda d: d.update(fetch=["ads.Advertiser"]),
        lambda d: d.update(**{"from": []}),
        lambda d: d.update(**{"from": ["nope"]}),
        lambda d: d.update(extra=1),
    ],
)
def test_bad_documents_are_rejected(schemas, mutate):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(QueryError):
        _q(schemas, doc)


def test_boolean_rejected_for_order_comparison(schemas):
    doc = {
        "from": ["people"],
        "filters": [{"path": "people.credit_score", "op": ">", "value": True}],
        "fetch": ["people.PID"],
    }
    with pytest.raises(QueryError):
        _q(schemas, doc)


def test_number_filter_accepts_int_and_float(schemas):
    for value in (600, 600.5):
        doc = {
            "from": ["people"],
            "filters": [{"path": "people.credit_score", "op": ">", "value": value}],
            "fetch": ["people.PID"],
        }
        q = _q(schemas, doc)
        assert q.filters[0].value == value


# -- joins -------------------------------------------------------------------


def join_doc(**join_kw):
    join = {"left": "ads.Campaign.Clicks.Person", "right": "people.PID"}
    join.update(join_kw)
    return {
        "from": ["ads", "people"],
        "filters": [{"path": "people.credit_score", "op": ">", "value": 700}],
        "joins": [join],
        "fetch": ["ads.Email"],
    }


def test_join_parses_and_picks_host(schemas):
    q = _q(schemas, join_doc())
    assert q.host == "ads"
    assert q.joins[0].left.node == PERSON
    assert not q.joins[0].unique


@pytest.mark.parametrize(
    "kw",
    [
        {"right": "people.credit_score"},  # string vs number
        {"left": "ads.Advertiser"},  # not a value column
        {"right": "ads.Email"},  # same schema on both sides
        {"unique": "yes"},
        {"extra": 1},
    ],
)
def test_bad_joins_are_rejected(schemas, kw):
    with pytest.raises(QueryError):
        _q(schemas, join_doc(**kw))


def test_unconnected_schema_is_rejected(schemas):
    doc = join_doc()
    doc["from"] = ["ads", "people", "social"]
    with pytest.raises(QueryError, match="exactly one schema"):
        _q(schemas, doc)


def test_right_side_may_appear_once(schemas):
    doc = join_doc()
    doc["joins"].append({"left": "ads.Campaign.WordSet.Word", "right": "people.PID"})
    with pytest.raises(QueryError):
        _q(schemas, doc)


def test_join_key_inside_vertex_record_is_rejected(schemas):
    doc = {
        "from": ["people", "social"],
        "filters": [{"path": "people.credit_score", "op": ">", "value": 0}],
        "joins": [{"left": "people.PID", "right": "social.Person.like#.#Message.tag"}],
        "fetch": ["people.PID"],
    }
    with pytest.raises(QueryError, match="vertex"):
        _q(schemas, doc)


def test_join_key_at_graph_root_is_allowed(schemas):
    doc = {
        "from": ["people", "social"],
        "filters": [{"path": "social.Person.city", "op": "=", "value": "rome"}],
        "joins": [{"left": "people.PID", "right": "social.Person.name"}],
        "fetch": ["people.PID"],
    }
    q = _q(schemas, doc)
    assert q.host == "people"


# -- graph paths ----------------------------------------------------------------


def chain_doc():
    return {
        "from": ["social"],
        "filters": [
            {"path": "social.Person.know#.#Person.name", "op": "=", "value": "cy"}
        ],
        "graph_paths": [["social.Person.know#.#Person"]],
        "fetch": ["social.Person.name"],
    }


def test_graph_path_parses(schemas):
    q = _q(schemas, chain_doc())
    gp = q.graph_paths[0]
    assert gp.anchor == S_PERSON
    assert [s.node for s in gp.hops] == [S_KNOW_TGT]
    assert gp.members == [0]
    assert q.filters[0].graph_path == 0


def test_chain_filter_without_declared_path_is_rejected(schemas):
    doc = chain_doc()
    doc.pop("graph_paths")
    with pytest.raises(QueryError, match="graph path"):
        _q(schemas, doc)


def test_chain_filter_matching_two_paths_is_rejected(schemas):
    doc = chain_doc()
    doc["graph_paths"] = [
        ["social.Person.know#.#Person"],
        ["social.Person.know#.#Person"],
    ]
    with pytest.raises(QueryError, match="more than one"):
        _q(schemas, doc)


def test_hops_must_telescope(schemas):
    doc = chain_doc()
    doc["filters"][0]["path"] = "social.Person.know#.#Person.know#.#Person.name"
    doc["graph_paths"] = [
        ["social.Person.know#.#Person", "social.Person.like#.#Message"]
    ]
    with pytest.raises(QueryError):
        _q(schemas, doc)


def test_hop_must_end_at_cycle_pointer(schemas):
    doc = chain_doc()
    doc["graph_paths"] = [["social.Person.know#"]]
    with pytest.raises(QueryError):
        _q(schemas, doc)


def test_fetch_through_cycle_pointer_is_rejected(schemas):
    doc = chain_doc()
    doc["fetch"] = ["social.Person.know#.#Person.name"]
    with pytest.raises(QueryError):
        _q(schemas, doc)


# -- fetch determinism ---------------------------------------------------------


def test_fetch_ancestor_value_is_allowed(schemas):
    doc = {
        "from": ["ads"],
        "filters": [{"path": "ads.Campaign.WordSet.Word", "op": "=", "value": "wA"}],
        "fetch": ["ads.Campaign.WordSet.Word", "ads.Email"],
    }
    q = _q(schemas, doc)
    assert q.deepest_fetch.node == WORD


def test_sibling_arrays_are_ambiguous(schemas):
    doc = {
        "from": ["ads"],
        "filters": [{"path": "ads.Email", "op": "=", "value": "e1"}],
        "fetch": ["ads.Campaign.WordSet.Word", "ads.Campaign.Clicks.Person"],
    }
    with pytest.raises(QueryError, match="ambiguous"):
        _q(schemas, doc)


def test_fetch_across_unique_join(schemas):
    doc = join_doc(unique=True)
    doc["fetch"] = ["people.credit_score", "ads.Email"]
    q = _q(schemas, doc)
    assert q.deepest_fetch.schema == "people"


def test_fetch_across_non_unique_join_is_ambiguous(schemas):
    doc = join_doc()
    doc["fetch"] = ["people.credit_score", "ads.Email"]
    with pytest.raises(QueryError, match="ambiguous"):
        _q(schemas, doc)


def test_fetch_below_vertex_record_stays_local(schemas):
    # tag is determined by a message instance, but the edge above is not
    doc = {
        "from": ["social"],
        "filters": [{"path": "social.Person.city", "op": "=", "value": "rome"}],
        "fetch": ["social.Person.like#.#Message.tag", "social.Person.name"],
    }
    with pytest.raises(QueryError, match="ambiguous"):
        _q(schemas, doc)


# -- composite tree --------------------------------------------------------------


def test_composite_splices_guest_under_left_key(schemas):
    q = _q(schemas, join_doc())
    tree = q.composite
    person = ("ads", PERSON)
    people_root = ("people", 0)
    assert tree.parent_of(people_root) == person
    assert tree.is_join_root(people_root)
    assert tree.depth(people_root) == tree.depth(person) + 1
    route = tree.route(("people", 1), ("ads", EMAIL))
    assert route[0] == ("people", 1) and route[-1] == ("ads", EMAIL)
    assert people_root in route and person in route


def test_composite_lca(schemas):
    q = _q(schemas, base_doc())
    tree = q.composite
    assert tree.lca(("ads", WORD), ("ads", PERSON)) == ("ads", CAMPAIGN)
    assert tree.lca(("ads", EMAIL), ("ads", WORD)) == ("ads", ADVERTISER)
    assert tree.lca(("ads", WORDSET), ("ads", WORDSET)) == ("ads", WORDSET)


def test_composite_requires_connection():
    schemas = {
        "ads": parse_schema(ADS_MANIFEST),
        "people": parse_schema(PEOPLE_MANIFEST),
    }
    with pytest.raises(QueryError, match="connected"):
        CompositeTree(schemas, "ads", [])
