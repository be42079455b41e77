import weakref

import numpy as np
import pytest

from quest.delivery import (
    deliver,
    drill_down,
    indicator_gather,
    indicator_scatter,
    new_bits,
    ones_bits,
    positions_of,
    roll_up,
)
from quest.engine import evaluate
from quest.errors import DeliveryError
from quest.query import parse_query
from quest.skiptree import build_skip_tree, layered_tree, load_skiptree, write_skiptree
from quest.ingest import ingest_json
from quest.store import Store, collector_paused, open_store, write_store

from conftest import ADS_DOCS, ADVERTISER, CAMPAIGN, EMAIL, PERSON, WORD


def test_roll_up_golden():
    bits = np.array([1, 0, 0, 1, 0, 0, 0, 0], dtype=bool)
    assert roll_up(bits, np.array([3, 5, 8])).tolist() == [True, True, False]


def test_roll_up_handles_empty_ranges():
    bits = np.array([True, False])
    assert roll_up(bits, np.array([0, 1, 1, 2])).tolist() == [False, True, False, False]
    assert roll_up(np.zeros(0, bool), np.array([0, 0])).tolist() == [False, False]
    assert roll_up(np.zeros(0, bool), np.array([], dtype=np.int64)).tolist() == []


def test_roll_up_kernels_equal_a_loop():
    # empty ranges at the start, in the middle and at the end
    boundaries = np.array([0, 0, 3, 3, 40, 41, 100, 100])

    def loop(bits):
        starts = [0, *boundaries[:-1].tolist()]
        return [bool(bits[lo:hi].any()) for lo, hi in zip(starts, boundaries.tolist())]

    rng = np.random.default_rng(11)
    one_last = np.zeros(100, bool)
    one_last[99] = True
    cases = {
        "all zero": np.zeros(100, bool),
        "one bit": one_last,
        "3%": rng.random(100) < 0.03,
        "50%": rng.random(100) < 0.5,
        "all one": np.ones(100, bool),
    }
    for name, bits in cases.items():
        assert roll_up(bits, boundaries).tolist() == loop(bits), name


def test_drill_down_golden():
    bits = np.array([1, 1, 0], dtype=bool)
    assert drill_down(bits, np.array([2, 4, 7])).tolist() == [True] * 4 + [False] * 3


def test_drill_down_equals_a_loop():
    def loop(bits, boundaries):
        starts = [0, *boundaries[:-1].tolist()]
        return [bool(bit) for bit, lo, hi in zip(bits.tolist(), starts, boundaries.tolist()) for _ in range(lo, hi)]

    rng = np.random.default_rng(12)
    counters = {
        # empty ranges at the start, in the middle and at the end
        "ragged": np.array([0, 0, 3, 3, 40, 41, 100, 100]),
        "no parents": np.array([], dtype=np.int64),
        "no children": np.array([0, 0, 0]),
    }
    for name, boundaries in counters.items():
        for bits in (np.zeros(boundaries.size, bool), np.ones(boundaries.size, bool), rng.random(boundaries.size) < 0.5):
            assert drill_down(bits, boundaries).tolist() == loop(bits, boundaries), name


def test_kernels_reject_bad_lengths():
    with pytest.raises(DeliveryError):
        roll_up(np.zeros(3, bool), np.array([2, 4]))
    with pytest.raises(DeliveryError):
        drill_down(np.zeros(3, bool), np.array([2, 4]))
    with pytest.raises(DeliveryError):
        indicator_scatter(np.zeros(3, bool), np.array([0, 1]), 5)


def test_gather_scatter():
    target = np.array([True, False, True])
    assert indicator_gather(target, np.array([0, 2, 1, 0])).tolist() == [True, True, False, True]
    src = np.array([True, False, True])
    assert indicator_scatter(src, np.array([1, 1, 0]), 4).tolist() == [True, True, False, False]


def test_bit_helpers():
    bits = new_bits(5, positions=[1, 3])
    assert bits.tolist() == [False, True, False, True, False]
    assert positions_of(bits).tolist() == [1, 3]
    assert ones_bits(3).all()


def test_golden_walk_layered(ads_store, ads_data):
    word_bits = np.array([1, 0, 0, 1, 0, 0, 0, 0], dtype=bool)
    campaign_bits = deliver(ads_store, "ads", WORD, CAMPAIGN, word_bits)
    assert campaign_bits.tolist() == [True, True, False]
    assert layered_tree(ads_data).find_lca(WORD, CAMPAIGN).lca == CAMPAIGN

    person_bits = deliver(ads_store, "ads", CAMPAIGN, PERSON, campaign_bits)
    assert person_bits.tolist() == [True, True, True, True, False, False, False]

    person_filter = new_bits(7, positions=[3])
    combined = person_bits & person_filter
    assert combined.tolist() == [False, False, False, True, False, False, False]

    adv_bits = deliver(ads_store, "ads", PERSON, ADVERTISER, combined)
    assert adv_bits.tolist() == [True, False]


def test_golden_walk_skip_equals_layered(ads_store, ads_data):
    index = build_skip_tree(ads_data)
    word_bits = np.array([1, 0, 0, 1, 0, 0, 0, 0], dtype=bool)
    layered = deliver(ads_store, "ads", WORD, PERSON, word_bits)
    skipped = deliver(ads_store, "ads", WORD, PERSON, word_bits, index=index)
    assert np.array_equal(layered, skipped)
    assert index.find_lca(WORD, PERSON).lca == CAMPAIGN


def test_deliver_counts_metadata(ads_store):
    bits = ones_bits(8)
    deliver(ads_store, "ads", WORD, CAMPAIGN, bits)
    # one counter read (Word); the WordSet hop is identity and free
    assert ads_store.io.metadata_reads == 1


def _log(store):
    return {key: (e["reads"], e["bytes"]) for key, e in store.io.metadata_log.items()}


def test_layered_deliver_records_each_array_it_crosses(multi_store):
    deliver(multi_store, "ads", WORD, PERSON, ones_bits(8))
    # WordSet is an identity link: no key, no bitset op
    assert _log(multi_store) == {
        "ads/Advertiser.Campaign.WordSet.Word#counter": (1, 24),
        "ads/Advertiser.Campaign.Clicks#counter": (1, 24),
        "ads/Advertiser.Campaign.Clicks.Person#counter": (1, 32),
    }
    assert multi_store.io.bitset_ops == 3

    multi_store.io.reset()
    deliver(multi_store, "social", 6, 0, np.array([True, False]))
    assert _log(multi_store) == {
        "social/Person.like#.#Message#indicator": (1, 24),
        "social/Person.like##counter": (1, 24),
    }
    assert multi_store.io.bitset_ops == 2


def test_layered_deliver_records_empty_arrays(ads_schema):
    store = Store().add(ingest_json([{"Email": "e", "Campaign": []}], ads_schema))
    out = deliver(store, "ads", WORD, ADVERTISER, new_bits(0))
    assert out.tolist() == [False]
    assert _log(store) == {
        "ads/Advertiser.Campaign.WordSet.Word#counter": (1, 0),
        "ads/Advertiser.Campaign#counter": (1, 8),
    }
    assert store.io.bitset_ops == 2


def test_layered_tree_built_once_per_schema_data(ads_schema, ads_data, ads_store, tmp_path):
    deliver(ads_store, "ads", WORD, ADVERTISER, ones_bits(8))
    tree = ads_data.layered_tree
    assert tree is not None and tree.H == 0
    deliver(ads_store, "ads", PERSON, EMAIL, ones_bits(7))
    assert ads_data.layered_tree is tree and layered_tree(ads_data) is tree
    # so is the skip index, whether built or loaded
    index = build_skip_tree(ads_data)
    assert build_skip_tree(ads_data) is index and index.H == 2
    write_store(ads_store, tmp_path)
    write_skiptree(index, tmp_path, ads_schema)
    opened = open_store(tmp_path)
    assert build_skip_tree(opened.data("ads")) is build_skip_tree(opened.data("ads")) is load_skiptree(opened, "ads")
    assert build_skip_tree(opened.data("ads")) is not index
    # arrays in memory are linked at once, so the index keeps no cycle
    # through its data that only the collector could free
    with collector_paused():
        extra = ingest_json(ADS_DOCS, ads_schema)
        build_skip_tree(extra)
        freed = weakref.ref(extra)
        del extra
        assert freed() is None
        # so are arrays read from disk once a scan loads them, even when
        # the index was never asked for a mapping
        reopened = open_store(tmp_path)
        build_skip_tree(reopened.data("ads"))
        reopened.scan_values("ads", EMAIL)
        freed = weakref.ref(reopened.data("ads"))
        del reopened
        assert freed() is None
    # a tree that outlives its store still delivers, whether its arrays
    # were read while the store lived or not
    want = deliver(ads_store, "ads", WORD, ADVERTISER, ones_bits(8), index=index).tolist()
    for scan in (True, False):
        reopened = open_store(tmp_path)
        kept = build_skip_tree(reopened.data("ads"))
        if scan:
            reopened.scan_values("ads", EMAIL)
        del reopened
        assert deliver(ads_store, "ads", WORD, ADVERTISER, ones_bits(8), index=kept).tolist() == want

    doc = {
        "from": "ads",
        "filters": [{"path": "ads.Campaign.WordSet.Word", "op": "=", "value": "w5"}],
        "fetch": ["ads.Email"],
    }
    query = parse_query({"ads": ads_schema}, doc)
    assert [tuple(r) for r in evaluate(ads_store, query).rows] == [("e1",)]
    # new arrays for the same schema answer from a new tree
    extra = {"Email": "e9", "Campaign": [{"WordSet": {"Word": ["w5"]}}]}
    moved = ingest_json([extra, *ADS_DOCS], ads_schema)
    ads_store.add(moved)
    assert sorted(tuple(r) for r in evaluate(ads_store, query).rows) == [("e1",), ("e9",)]
    assert moved.layered_tree is not None and moved.layered_tree is not tree
    assert build_skip_tree(moved) is not index


def test_skip_deliver_reads_fewer_arrays(ads_store, ads_data):
    index = build_skip_tree(ads_data)
    bits = ones_bits(7)
    deliver(ads_store, "ads", PERSON, ADVERTISER, bits)
    layered_reads = ads_store.io.metadata_reads
    ads_store.io.reset()
    deliver(ads_store, "ads", PERSON, ADVERTISER, bits, index=index)
    skip_reads = ads_store.io.metadata_reads
    assert skip_reads <= layered_reads


def test_deliver_same_node(ads_store):
    bits = ones_bits(7)
    out = deliver(ads_store, "ads", PERSON, PERSON, bits)
    assert out is bits


def test_deliver_rejects_bad_length(ads_store):
    with pytest.raises(DeliveryError):
        deliver(ads_store, "ads", PERSON, ADVERTISER, ones_bits(6))


def test_deliver_sibling_route(ads_store, ads_data):
    # Email <- Advertiser -> deepest Person: identity up, counters down
    email_bits = np.array([True, False])
    person_bits = deliver(ads_store, "ads", EMAIL, PERSON, email_bits)
    assert person_bits.tolist() == [True, True, True, True, False, False, False]
    assert layered_tree(ads_data).find_lca(EMAIL, PERSON).lca == ADVERTISER


def test_graph_delivery(multi_store, social_data):
    # which persons liked a message tagged "x" (message m1)?
    msg_bits = np.array([True, False])
    person_bits = deliver(multi_store, "social", 6, 0, msg_bits)
    assert person_bits.tolist() == [True, True, False]
    # and which messages did p3 like?
    p_bits = np.array([False, False, True])
    m_bits = deliver(multi_store, "social", 0, 6, p_bits)
    assert m_bits.tolist() == [False, True]


def test_graph_delivery_skip_matches(multi_store, social_data):
    index = build_skip_tree(social_data)
    rng = np.random.default_rng(5)
    for src, dst in [(6, 0), (0, 6), (7, 0), (0, 7), (4, 0)]:
        bits = rng.random(social_data.cardinality[src]) < 0.5
        layered = deliver(multi_store, "social", src, dst, bits)
        skipped = deliver(multi_store, "social", src, dst, bits, index=index)
        assert np.array_equal(layered, skipped), (src, dst)


def test_random_nested_skip_equals_layered(ads_schema):
    # randomized documents over the ads schema; all (node, ancestor) routes
    rng = np.random.default_rng(31)

    def rand_doc():
        return {
            "Email": f"e{rng.integers(100)}",
            "Campaign": [
                {
                    "WordSet": {"Word": [f"w{rng.integers(20)}" for _ in range(rng.integers(0, 4))]},
                    "Clicks": [
                        {"Person": [f"p{rng.integers(30)}" for _ in range(rng.integers(0, 3))]}
                        for _ in range(rng.integers(0, 3))
                    ],
                }
                for _ in range(rng.integers(0, 4))
            ],
        }

    docs = [rand_doc() for _ in range(40)]
    data = ingest_json(docs, ads_schema)
    store = Store().add(data)
    index = build_skip_tree(data)
    for src in range(7):
        for dst in range(7):
            if src == dst:
                continue
            bits = rng.random(data.cardinality[src]) < 0.3
            layered = deliver(store, "ads", src, dst, bits)
            skipped = deliver(store, "ads", src, dst, bits, index=index)
            assert np.array_equal(layered, skipped), (src, dst)
