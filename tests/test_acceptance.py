"""Acceptance gate: one test per shipping criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
``ACCEPTANCE <n> PASS`` line per criterion with the measured numbers.
The whole gate is designed to finish in a few minutes; criteria with a
stated budget assert it.
"""

import itertools
import math
import random
import time
from collections import Counter

import numpy as np
import pytest

from quest.bench import DEEP_NAMES, WORKLOAD, run_workload
from quest.datagen import generate, random_corpus, random_query_doc
from quest.delivery import deliver, drill_down, new_bits, positions_of, roll_up
from quest.engine import evaluate
from quest.errors import QueryError
from quest.optimizer import (
    CostParams,
    PlanFilter,
    check_constraint,
    derive_wandering,
    exhaustive_rank,
    order_filters,
    plan_query,
)
from quest.oracle import materialize_records, oracle_query
from quest.query import parse_query
from quest.schema import Kind, parse_schema
from quest.skiptree import (
    Mapping,
    build_skip_structure,
    build_skip_tree,
    counter_union,
    multi_hop,
    naive_lca,
)
from quest.ingest import ingest_json
from quest.store import Store, open_store, write_store

from conftest import ADVERTISER, CAMPAIGN, EMAIL, PERSON, WORD, dense_relation

# the 18-node walkthrough tree (golden LCA example)
TREE18_PARENTS = [None, 0, 1, 2, 0, 4, 5, 6, 7, 8, 9, 7, 11, 12, 13, 4, 15, 16]


def _line(criterion: int, elapsed: float, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS {elapsed:7.2f}s  {detail}")


def _row_key(row):
    return tuple((v is None, str(type(v)), v) for v in row)


# -- 1: golden walkthroughs ----------------------------------------------------------


def test_criterion_01_golden_walkthroughs(ads_store, ads_data):
    t0 = time.perf_counter()

    assert ads_data.counters[CAMPAIGN].boundaries.tolist() == [2, 3]
    assert counter_union(np.array([1, 2, 4]), np.array([2, 4, 5, 7])).tolist() == [2, 4, 7]

    word_bits = np.array([1, 0, 0, 1, 0, 0, 0, 0], dtype=bool)
    campaign_bits = deliver(ads_store, "ads", WORD, CAMPAIGN, word_bits)
    assert campaign_bits.tolist() == [True, True, False]
    person_bits = deliver(ads_store, "ads", CAMPAIGN, PERSON, campaign_bits)
    assert person_bits.tolist() == [True, True, True, True, False, False, False]
    combined = person_bits & new_bits(7, positions=[3])
    assert combined.tolist() == [False, False, False, True, False, False, False]
    adv_bits = deliver(ads_store, "ads", PERSON, ADVERTISER, combined)
    assert adv_bits.tolist() == [True, False]
    emails, valid = ads_store.scan_values("ads", EMAIL, positions_of(adv_bits))
    assert list(emails) == ["e1"] and all(valid)

    tree = build_skip_structure(TREE18_PARENTS)
    assert tree.skip_ancestors(14) == [13, 12, 7, 0]
    assert tree.skip_ancestors(17) == [16, 15, 0]
    res = tree.find_lca(14, 17)
    assert res.lca == 4 == naive_lca(TREE18_PARENTS, 14, 17)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _line(1, elapsed, "counter [2,3]; skip-counter [2,4,7]; walk -> {e1}; lca(14,17)=4")


# -- 2: engine equals oracle on randomized pairs -------------------------------------


def test_criterion_02_engine_equals_oracle_on_random_pairs():
    rng = random.Random(20260817)
    t0 = time.perf_counter()
    target = 1000
    pairs = stores = 0
    mismatches = []
    model_mix = Counter()
    while pairs < target:
        corpus = random_corpus(rng)
        store = corpus.store()
        schemas = {name: data.schema for name, data in corpus.datasets.items()}
        stores += 1
        for _ in range(25):
            if pairs >= target:
                break
            try:
                query = parse_query(schemas, random_query_doc(rng))
            except QueryError:
                continue
            model_mix["+".join(sorted(query.schemas))] += 1
            try:
                got = sorted(evaluate(store, query).rows, key=_row_key)
            except Exception as exc:  # any engine failure is a miss
                mismatches.append((stores, repr(exc)))
                pairs += 1
                continue
            want = sorted(oracle_query(store, query), key=_row_key)
            if got != want:
                mismatches.append((stores, query))
            pairs += 1
    elapsed = time.perf_counter() - t0
    assert pairs >= 1000
    assert not mismatches, mismatches[:3]
    assert elapsed < 600.0
    single = sum(n for k, n in model_mix.items() if "+" not in k)
    joined = pairs - single
    _line(2, elapsed, f"{pairs} pairs over {stores} stores agree ({single} single, {joined} joined)")


# -- 3: skip transfers equal iterated transfers --------------------------------------


def _random_dataset(rng):
    """A random nested document schema with a few random documents."""
    counter = itertools.count()

    def make(depth):
        name = f"f{next(counter)}"
        if depth >= 4 or rng.random() < 0.35:
            if rng.random() < 0.4:
                return {"name": name, "kind": "primitive", "primitive": "number"}
            return {"name": name, "kind": "array", "primitive": "number"}
        kind = "record" if rng.random() < 0.4 else "array"
        kids = [make(depth + 1) for _ in range(rng.randint(1, 3))]
        return {"name": name, "kind": kind, "children": kids}

    root = {"name": "root", "kind": "record", "children": [make(1) for _ in range(rng.randint(1, 3))]}
    manifest = {"name": "t", "model": "document", "root": root}

    def fill(spec):
        if spec["kind"] == "primitive":
            return None if rng.random() < 0.1 else round(rng.random() * 9, 3)
        if spec["kind"] == "array" and "children" not in spec:
            return [round(rng.random() * 9, 3) for _ in range(rng.randint(0, 3))]
        if spec["kind"] == "record":
            return {c["name"]: fill(c) for c in spec["children"]}
        return [
            {c["name"]: fill(c) for c in spec["children"]} for _ in range(rng.randint(0, 3))
        ]

    docs = [{c["name"]: fill(c) for c in root["children"]} for _ in range(rng.randint(1, 5))]
    return ingest_json(docs, parse_schema(manifest))


def _iterated_up(data, node, ancestor, bits):
    schema = data.schema
    cur = node
    while cur != ancestor:
        if schema.node(cur).kind is Kind.ARRAY:
            bits = roll_up(bits, data.counters[cur].boundaries)
        cur = schema.node(cur).parent
    return bits


def _iterated_down(data, node, ancestor, bits):
    schema = data.schema
    chain = []
    cur = node
    while cur != ancestor:
        chain.append(cur)
        cur = schema.node(cur).parent
    for cid in reversed(chain):
        if data.schema.node(cid).kind is Kind.ARRAY:
            bits = drill_down(bits, data.counters[cid].boundaries)
    return bits


def test_criterion_03_skip_transfers_equal_iterated():
    rng = random.Random(303)
    nprng = np.random.default_rng(303)
    t0 = time.perf_counter()
    instances = 0
    pair_checks = 0
    while instances < 500:
        data = _random_dataset(rng)
        instances += 1
        tree = build_skip_tree(data)
        store = Store().add(data)
        schema = data.schema
        for node in range(len(schema)):
            for anc in schema.ancestors(node):
                bits = nprng.random(data.cardinality[node]) < 0.5
                up = deliver(store, "t", node, anc, bits, index=tree)
                assert np.array_equal(up, _iterated_up(data, node, anc, bits))
                abits = nprng.random(data.cardinality[anc]) < 0.5
                down = deliver(store, "t", anc, node, abits, index=tree)
                assert np.array_equal(down, _iterated_down(data, node, anc, abits))
                pair_checks += 1

    graphs = 0
    for _ in range(25):
        n = int(nprng.integers(2, 201))
        adj = nprng.random((n, n)) < min(1.0, float(nprng.uniform(0.5, 4.0)) / n)
        boundaries = np.cumsum(adj.sum(axis=1))
        pointers = (
            np.concatenate([np.flatnonzero(adj[u]) for u in range(n)])
            if boundaries[-1]
            else np.array([], dtype=np.int64)
        )
        hop = Mapping(n, boundaries=boundaries, pointers=pointers)
        k = int(nprng.integers(1, 5))
        condensed = multi_hop([hop] * k)
        power = np.linalg.matrix_power(adj.astype(np.int64), k) > 0
        assert np.array_equal(dense_relation(condensed), power)
        graphs += 1

    elapsed = time.perf_counter() - t0
    _line(3, elapsed, f"{instances} nested instances ({pair_checks} node/ancestor pairs); {graphs} graphs <= 200 vertices")


# -- 4: lca against the naive walk ---------------------------------------------------


def _random_parents(rng, n):
    parents = [None]
    for v in range(1, n):
        lo = max(0, v - rng.randrange(1, 6))
        parents.append(rng.randrange(lo, v))
    return parents


def test_criterion_04_lca_equivalence_and_step_bound():
    rng = random.Random(404)
    t0 = time.perf_counter()
    trees = 0
    for _ in range(100):
        parents = _random_parents(rng, rng.randrange(2, 65))
        tree = build_skip_structure(parents)
        n = len(parents)
        for a in range(n):
            for b in range(n):
                assert tree.find_lca(a, b).lca == naive_lca(parents, a, b), (a, b)
        trees += 1

    d = 1024
    chain = build_skip_structure([None] + list(range(d)))
    worst = 0.0
    for deep in range(1, d + 1):
        res = chain.find_lca(deep, 0)
        assert res.lca == 0
        bound = 2 * (int(math.log2(deep)) + 1) + chain.H
        assert res.steps <= bound, (deep, res.steps, bound)
        worst = max(worst, res.steps / bound)
    for _ in range(200):
        a, b = rng.randrange(d + 1), rng.randrange(d + 1)
        if a == b:
            continue
        res = chain.find_lca(a, b)
        assert res.lca == min(a, b)
        dist = abs(a - b)
        assert res.steps <= 2 * (int(math.log2(dist)) + 1) + chain.H

    elapsed = time.perf_counter() - t0
    _line(4, elapsed, f"{trees} trees all-pairs exact; chain steps within bound (tightest {worst:.2f} of budget)")


# -- 5: the index pays off on deep shapes --------------------------------------------


def test_criterion_05_deep_shapes_run_faster_with_the_index():
    t0 = time.perf_counter()
    store = generate("small", seed=0).store()
    report = run_workload(store, runs=5, names=list(DEEP_NAMES))
    assert report["queries"], "no deep-predicate queries in the workload"
    details = []
    for q in report["queries"]:
        on = q["configs"]["skiptree_on"]
        off = q["configs"]["skiptree_off"]
        assert on["rows"] == off["rows"]
        assert on["metadata_reads"] < off["metadata_reads"], q["name"]
        assert on["wall_time"] <= 0.9 * off["wall_time"], (
            q["name"],
            on["wall_time"],
            off["wall_time"],
        )
        details.append(f"{q['name']} meta {on['metadata_reads']}/{off['metadata_reads']} wall x{on['wall_time'] / off['wall_time']:.2f}")
    elapsed = time.perf_counter() - t0
    _line(5, elapsed, "; ".join(details))


# -- 6: reads never escape the bitset ------------------------------------------------


def test_criterion_06_value_reads_respect_the_bitset():
    t0 = time.perf_counter()
    store = generate("tiny", seed=0).store()
    schemas = {name: store.data(name).schema for name in store.datasets}
    indexes = {name: build_skip_tree(store.data(name)) for name in store.datasets}
    checked = 0
    for wq in WORKLOAD:
        query = parse_query(schemas, wq.doc)
        for idx in (indexes, None):
            result = evaluate(store, query, indexes=idx, audit=True)
            assert result.stats["audit_violations"] == 0, wq.name
            checked += 1
    elapsed = time.perf_counter() - t0
    _line(6, elapsed, f"0 violations across {checked} audited workload runs")


# -- 7: planner validity, rank, and the metadata term --------------------------------


def test_criterion_07_planner_validity_rank_and_metadata():
    from test_optimizer import random_composite

    rng = random.Random(707)
    t0 = time.perf_counter()
    ranks = Counter()
    orders_total = 0
    for _ in range(10_000):
        tree = random_composite(rng)
        nodes = [k[1] for k in tree.keys()]
        picks = rng.sample(nodes, min(len(nodes), rng.randint(1, 6)))
        filters = [PlanFilter(key=("s", n), selectivity=rng.uniform(0.02, 1.0)) for n in picks]
        order = order_filters(tree, filters)
        seq = derive_wandering(tree, order)
        ok, where = check_constraint(seq.w[: seq.filter_end], tree)
        assert ok, where
        # |F| <= 6 by construction, so every instance gets the exhaustive pass
        params = CostParams(
            G={k: float(rng.randint(1, 10_000)) for k in tree.keys()},
            S={k: 8.0 for k in tree.keys()},
        )
        report = exhaustive_rank(tree, filters, params)
        ranks[report["rank"]] += 1
        orders_total += report["orders"]

    # the engine's counter reads stay within a block of the model's runs
    rng2 = random.Random(717)
    scoped = 0
    max_block_gap = 0.0
    while scoped < 300:
        corpus = random_corpus(rng2)
        store = corpus.store()
        schemas = {name: data.schema for name, data in corpus.datasets.items()}
        for _ in range(10):
            doc = random_query_doc(rng2)
            names = doc.get("from") or []
            if (
                len(names) != 1
                or names[0] == "social"
                or not doc.get("filters")
                or doc.get("graph_paths")
            ):
                continue
            try:
                query = parse_query(schemas, doc)
            except QueryError:
                continue
            seq = plan_query(store, query)
            evaluate(store, query, plan=seq)
            name = names[0]
            data = store.data(name)
            schema = data.schema
            runs: dict = {}
            for (_, node), n in itertools.chain(seq.rollups.items(), seq.drilldowns.items()):
                key = f"{name}/{schema.path_of(node)}#counter"
                runs[key] = runs.get(key, 0) + n
            observed = {k: e["reads"] for k, e in store.io.metadata_log.items()}
            for key in set(runs) | set(observed):
                node = next(
                    n.id for n in schema.nodes if f"{name}/{schema.path_of(n.id)}#counter" == key
                )
                nbytes = data.counters[node].boundaries.size * store.metadata_unit
                gap = abs(observed.get(key, 0) - runs.get(key, 0)) * nbytes / store.block_size
                assert gap <= 1.0, (doc, key, gap)
                max_block_gap = max(max_block_gap, gap)
            scoped += 1

    elapsed = time.perf_counter() - t0
    share = ranks[1] / 10_000
    _line(
        7,
        elapsed,
        f"10000 constraint-valid plans; heuristic rank 1 on {share:.1%} "
        f"(avg {orders_total / 10_000:.1f} valid orders); max metadata gap {max_block_gap:.3f} blocks over {scoped} queries",
    )


# -- 8: format stability across presets ----------------------------------------------


def _assert_structural_round_trip(store, corpus):
    for fam in ("ads", "org", "people"):
        assert materialize_records(store, fam) == corpus.records[fam], fam
    graph = corpus.records["social"]
    got = materialize_records(store, "social")
    offsets = {
        label: {v["id"]: i for i, v in enumerate(rows)}
        for label, rows in graph["vertices"].items()
    }
    assert got["vertices"] == {
        label: [{k: v for k, v in row.items() if k != "id"} for row in rows]
        for label, rows in graph["vertices"].items()
    }
    assert got["edges"]["know"] == [
        (offsets["Person"][a], offsets["Person"][b], {}) for a, b in graph["edges"]["know"]
    ]
    assert got["edges"]["like"] == [
        (offsets["Person"][a], offsets["Message"][b], {}) for a, b in graph["edges"]["like"]
    ]


def test_criterion_08_store_round_trips_on_every_preset(tmp_path):
    t0 = time.perf_counter()
    details = []
    for preset in ("tiny", "small", "medium"):
        corpus = generate(preset, seed=8)
        store = corpus.store()
        first, second = tmp_path / preset / "first", tmp_path / preset / "second"
        write_store(store, first)
        reopened = open_store(first)
        write_store(reopened, second)
        names = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
        assert names == sorted(
            p.relative_to(second) for p in second.rglob("*") if p.is_file()
        ), preset
        for rel in names:
            assert (first / rel).read_bytes() == (second / rel).read_bytes(), (preset, rel)
        _assert_structural_round_trip(reopened, corpus)
        details.append(f"{preset} ({len(names)} files)")
    elapsed = time.perf_counter() - t0
    _line(8, elapsed, f"byte-identical and structurally stable: {', '.join(details)}")
