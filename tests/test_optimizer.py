"""Planner: filter ordering, wandering derivation, the cost model, and the
revisit constraint.

Cost literals below are spelled out as the arithmetic that produces them
(cardinality x cumulative selectivity x unit size / block size and so on),
so a regression points at the exact term that moved.
"""
import itertools
import random

import pytest

from quest.errors import PlanConstraintError
from quest.optimizer import (
    CostParams,
    PlanFilter,
    _plan_filters,
    check_constraint,
    cumulative_selectivity,
    derive_wandering,
    enumerate_valid_orders,
    estimate_cost,
    estimate_selectivity,
    exhaustive_rank,
    explain_plan,
    order_filters,
    plan_query,
)
from quest.engine import evaluate
from quest.query import CompositeTree, parse_query
from quest.schema import parse_schema

from conftest import ADS_MANIFEST


@pytest.fixture
def ads_tree(ads_schema):
    return CompositeTree({"ads": ads_schema}, "ads", [])


@pytest.fixture
def schemas(ads_schema, people_schema):
    return {"ads": ads_schema, "people": people_schema}


WORKED = {
    "from": ["ads"],
    "filters": [
        {"path": "ads.Campaign.WordSet.Word", "op": "=", "value": "wA"},
        {"path": "ads.Campaign.Clicks.Person", "op": "=", "value": "p4"},
    ],
    "fetch": ["ads.Email"],
}

# ads node ids, in manifest order
ADVERTISER, EMAIL, CAMPAIGN, WORDSET, WORD, CLICKS, PERSON = range(7)


# -- constraint ------------------------------------------------------------------


def test_constraint_accepts_a_plain_wander(ads_tree):
    w = [("ads", n) for n in (PERSON, CLICKS, CAMPAIGN, WORDSET, WORD, WORDSET, CAMPAIGN, ADVERTISER, EMAIL)]
    assert check_constraint(w, ads_tree) == (True, None)


def test_constraint_flags_the_reentry_step(ads_tree):
    w = [("ads", n) for n in (WORD, WORDSET, CAMPAIGN, ADVERTISER, EMAIL, ADVERTISER, CAMPAIGN)]
    # the campaign subtree was left for Email and entered again at step 6
    assert check_constraint(w, ads_tree) == (False, 6)


def test_constraint_requires_adjacent_steps(ads_tree):
    with pytest.raises(PlanConstraintError, match="not adjacent"):
        check_constraint([("ads", WORD), ("ads", CAMPAIGN)], ads_tree)


def test_random_orders_always_wander_legally(ads_tree):
    rng = random.Random(7)
    nodes = list(range(7))
    for _ in range(200):
        picks = rng.sample(nodes, rng.randint(1, 4))
        filters = [
            PlanFilter(key=("ads", n), selectivity=rng.uniform(0.05, 1.0)) for n in picks
        ]
        seq = derive_wandering(ads_tree, order_filters(ads_tree, filters))
        ok, where = check_constraint(seq.w[: seq.filter_end], ads_tree)
        assert ok, f"re-entry at {where} for stops {picks}"


# -- ordering --------------------------------------------------------------------


def test_orders_by_selectivity(multi_store, schemas):
    query = parse_query(schemas, WORKED)
    filters = _plan_filters(multi_store, query)
    ordered = order_filters(query.composite, filters)
    # p4 is 1 of 7 person values, wA is 2 of 8 words: person goes first
    assert [f.key for f in ordered] == [("ads", PERSON), ("ads", WORD)]
    assert ordered[0].selectivity == pytest.approx(1 / 7)
    assert ordered[1].selectivity == pytest.approx(0.25)


def test_cumulative_selectivity_lags_by_one(multi_store, schemas):
    query = parse_query(schemas, WORKED)
    order = order_filters(query.composite, _plan_filters(multi_store, query))
    assert cumulative_selectivity(order, order[0]) == 1.0
    assert cumulative_selectivity(order, order[1]) == pytest.approx(1 / 7)


def test_explicit_selectivity_overrides_stats(multi_store, schemas):
    doc = {
        "from": ["ads"],
        "filters": [
            {"path": "ads.Email", "op": "=", "value": "e1", "selectivity": 0.9},
            {"path": "ads.Campaign.WordSet.Word", "op": "=", "value": "wA"},
        ],
        "fetch": ["ads.Email"],
    }
    query = parse_query(schemas, doc)
    ordered = order_filters(query.composite, _plan_filters(multi_store, query))
    assert [f.key for f in ordered] == [("ads", WORD), ("ads", EMAIL)]
    assert ordered[1].selectivity == pytest.approx(0.9)


def test_exact_value_selectivity_comes_from_stats(multi_store):
    stats = multi_store.data("ads").stats[WORD]
    assert estimate_selectivity(stats, "=", "wA") == pytest.approx(0.25)


def test_anchor_stop_added_for_unfiltered_host(multi_store, schemas):
    doc = {
        "from": ["ads", "people"],
        "joins": [
            {"left": "ads.Campaign.Clicks.Person", "right": "people.PID", "unique": True}
        ],
        "filters": [{"path": "people.credit_score", "op": ">", "value": 640}],
        "fetch": ["people.PID"],
    }
    query = parse_query(schemas, doc)
    filters = _plan_filters(multi_store, query)
    kinds = {(f.key, f.kind) for f in filters}
    assert (("ads", ADVERTISER), "anchor") in kinds


def test_no_anchor_for_a_lone_unfiltered_schema(multi_store, schemas):
    query = parse_query(schemas, {"from": ["ads"], "fetch": ["ads.Email"]})
    assert _plan_filters(multi_store, query) == []


# -- wandering derivation ----------------------------------------------------------


def test_worked_example_wandering(multi_store, schemas):
    query = parse_query(schemas, WORKED)
    seq = plan_query(multi_store, query)
    assert seq.w == [
        ("ads", PERSON),
        ("ads", CLICKS),
        ("ads", CAMPAIGN),
        ("ads", WORDSET),
        ("ads", WORD),
        ("ads", WORDSET),
        ("ads", CAMPAIGN),
        ("ads", ADVERTISER),
        ("ads", EMAIL),
    ]
    assert seq.filter_end == 5
    assert seq.stops == [
        ("ads", PERSON),
        ("ads", CAMPAIGN),
        ("ads", WORD),
        ("ads", ADVERTISER),
        ("ads", EMAIL),
    ]
    assert seq.rollups == {
        ("ads", PERSON): 1,
        ("ads", CLICKS): 1,
        ("ads", WORD): 1,
        ("ads", CAMPAIGN): 1,
    }
    assert seq.drilldowns == {("ads", WORD): 1}


# -- cost model ---------------------------------------------------------------------


def test_cost_terms_reproduce_by_hand(multi_store, schemas):
    query = parse_query(schemas, WORKED)
    seq = plan_query(multi_store, query)
    cost = seq.cost
    B = 4096
    # scans: person column at full context, word column after sigma(person)
    assert cost["io_filter_scan"] == pytest.approx((7 * 1.0 * 6 + 8 * (1 / 7) * 6) / B)
    # rolled counters: campaign(2 entries) + word(3) + clicks(3) + person(4)
    assert cost["io_metadata"] == pytest.approx((2 + 3 + 3 + 4) * 8 / B)
    # fetch: both advertisers' emails weighted by total selectivity
    assert cost["sigma_total"] == pytest.approx(0.25 / 7)
    assert cost["io_fetch_scan"] == pytest.approx(2 * 6 * (0.25 / 7) / B)
    assert cost["c_io"] == pytest.approx(
        cost["io_filter_scan"] + cost["io_metadata"] + cost["io_fetch_scan"]
    )
    assert cost["total"] == pytest.approx(cost["c_io"] + cost["c_cpu"])


def test_a_plan_is_priced_when_its_cost_is_first_read(multi_store, schemas, monkeypatch):
    priced = []

    def counting(tree, seq, params):
        priced.append(seq)
        return estimate_cost(tree, seq, params)

    monkeypatch.setattr("quest.optimizer.estimate_cost", counting)
    query = parse_query(schemas, WORKED)
    seq = plan_query(multi_store, query)
    assert evaluate(multi_store, query, plan=seq).rows == [("e1",)]
    assert priced == []  # neither planning nor evaluating prices the plan
    want = estimate_cost(query.composite, seq, CostParams.from_store(multi_store, query.composite))
    assert seq.cost == want and priced == [seq]
    assert seq.cost is seq.cost and priced == [seq]  # kept
    # a walk derived without a store has no price
    assert derive_wandering(query.composite, seq.order, [("ads", EMAIL)]).cost is None


def test_params_read_store_shape(multi_store, schemas):
    query = parse_query(schemas, WORKED)
    params = CostParams.from_store(multi_store, query.composite)
    assert params.G[("ads", WORD)] == 8.0
    assert params.G[("ads", PERSON)] == 7.0
    # short strings average 2 utf-8 bytes plus the 4-byte offset
    assert params.S[("ads", EMAIL)] == pytest.approx(6.0)
    assert params.S[("ads", CAMPAIGN)] == 0.0


def test_selective_first_order_costs_less(multi_store, schemas):
    query = parse_query(schemas, WORKED)
    params = CostParams.from_store(multi_store, query.composite)
    filters = _plan_filters(multi_store, query)
    fetch = [("ads", EMAIL)]
    best = order_filters(query.composite, filters)
    worst = list(reversed(best))
    cheap = estimate_cost(query.composite, derive_wandering(query.composite, best, fetch), params)
    dear = estimate_cost(query.composite, derive_wandering(query.composite, worst, fetch), params)
    assert cheap["total"] < dear["total"]


def test_exhaustive_rank_puts_heuristic_first(multi_store, schemas):
    query = parse_query(schemas, WORKED)
    params = CostParams.from_store(multi_store, query.composite)
    filters = _plan_filters(multi_store, query)
    report = exhaustive_rank(query.composite, filters, params, [("ads", EMAIL)])
    assert report["orders"] == 2
    assert report["rank"] == 1
    assert report["heuristic_cost"] == pytest.approx(report["best_cost"])
    assert report["worst_cost"] > report["best_cost"]


def test_explain_plan_is_json_shaped(multi_store, schemas):
    query = parse_query(schemas, WORKED)
    seq = plan_query(multi_store, query)
    view = explain_plan(query.composite, seq)
    assert [o["node"] for o in view["order"]] == [
        "ads.Advertiser.Campaign.Clicks.Person",
        "ads.Advertiser.Campaign.WordSet.Word",
    ]
    assert view["filter_steps"] == 5
    assert view["cost"]["total"] > 0


# -- model vs engine -----------------------------------------------------------------


def test_engine_metadata_reads_match_model_runs(multi_store, schemas):
    query = parse_query(schemas, WORKED)
    seq = plan_query(multi_store, query)
    result = evaluate(multi_store, query, plan=seq)
    assert result.rows == [("e1",)]
    runs: dict = {}
    for key, n in itertools.chain(seq.rollups.items(), seq.drilldowns.items()):
        runs[key] = runs.get(key, 0) + n
    schema = multi_store.schema("ads")
    expected = {
        f"ads/{schema.path_of(node)}#counter": n for (_, node), n in runs.items()
    }
    observed = {
        key: entry["reads"] for key, entry in multi_store.io.metadata_log.items()
    }
    assert observed == expected


# -- random trees --------------------------------------------------------------------


def random_composite(rng, max_children=3, max_depth=4):
    """A random single-schema composite tree for constraint fuzzing."""
    counter = itertools.count()

    def make(depth):
        name = f"n{next(counter)}"
        if depth >= max_depth or rng.random() < 0.35:
            if rng.random() < 0.5:
                return {"name": name, "kind": "primitive", "primitive": "number"}
            return {"name": name, "kind": "array", "primitive": "number"}
        kind = "record" if rng.random() < 0.5 else "array"
        kids = [make(depth + 1) for _ in range(rng.randint(1, max_children))]
        return {"name": name, "kind": kind, "children": kids}

    root = {
        "name": "r",
        "kind": "record",
        "children": [make(1) for _ in range(rng.randint(1, max_children))],
    }
    manifest = {"name": "s", "model": "document", "root": root}
    schema = parse_schema(manifest)
    return CompositeTree({"s": schema}, "s", [])


@pytest.mark.parametrize("seed", range(5))
def test_random_trees_satisfy_the_constraint(seed):
    rng = random.Random(seed)
    for _ in range(60):
        tree = random_composite(rng)
        nodes = [k[1] for k in tree.keys()]
        picks = rng.sample(nodes, min(len(nodes), rng.randint(1, 6)))
        filters = [
            PlanFilter(key=("s", n), selectivity=rng.uniform(0.02, 1.0)) for n in picks
        ]
        order = order_filters(tree, filters)
        seq = derive_wandering(tree, order)
        ok, where = check_constraint(seq.w[: seq.filter_end], tree)
        assert ok, f"seed {seed}: re-entry at {where} with stops {picks}"


def test_enumerate_valid_orders_rejects_reentrant_permutations(ads_tree):
    filters = [
        PlanFilter(key=("ads", WORD), selectivity=0.2),
        PlanFilter(key=("ads", PERSON), selectivity=0.3),
        PlanFilter(key=("ads", EMAIL), selectivity=0.4),
    ]
    orders = enumerate_valid_orders(ads_tree, filters)
    # Email between Word and Person would leave and re-enter the campaign
    for order in orders:
        keys = [f.key[1] for f in order]
        assert keys.index(EMAIL) in (0, len(keys) - 1)
