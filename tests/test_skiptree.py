import math
import random
import shutil

import numpy as np
import pytest

from quest.bench import WORKLOAD
from quest.datagen import generate, random_corpus
from quest.delivery import (
    deliver,
    drill_down,
    indicator_gather,
    indicator_scatter,
    owner_drill_down,
    owner_index,
    owner_roll_up,
    roll_up,
)
from quest.engine import evaluate
from quest.errors import DeliveryError, StoreError
from quest.oracle import oracle_query
from quest.query import parse_query
from quest.skiptree import (
    Mapping,
    build_skip_structure,
    build_skip_tree,
    compose,
    counter_union,
    layered_tree,
    load_skiptree,
    multi_hop,
    naive_lca,
    set_height,
    tree_height,
    write_skiptree,
)
from quest.schema import Kind, Link, Schema, SchemaNode
from quest.store import SchemaData, Store, open_store, write_store

from conftest import ADVERTISER, CAMPAIGN, CLICKS, PERSON, WORD, WORDSET, dense_relation

# An 18-node tree: one long spine with two side branches hanging off node 4
# and node 7.  Node 14 sits at depth 8, node 17 at depth 4.
TREE18_PARENTS = [None, 0, 1, 2, 0, 4, 5, 6, 7, 8, 9, 7, 11, 12, 13, 4, 15, 16]


def test_counter_union_golden():
    assert counter_union(np.array([1, 2, 4]), np.array([2, 4, 5, 7])).tolist() == [2, 4, 7]


def test_counter_union_empty_parents():
    assert counter_union(np.array([0, 0, 2]), np.array([3, 5])).tolist() == [0, 0, 5]
    assert counter_union(np.array([], dtype=np.int64), np.array([], dtype=np.int64)).tolist() == []


def test_counter_union_empty_child_level():
    # every parent range empty, so the child counter has no entries at all
    assert counter_union(np.array([0]), np.array([], dtype=np.int64)).tolist() == [0]
    assert counter_union(np.array([0, 0]), np.array([], dtype=np.int64)).tolist() == [0, 0]


def test_counter_union_length_mismatch():
    with pytest.raises(DeliveryError):
        counter_union(np.array([3]), np.array([1, 1]))


def test_tree_height():
    assert [tree_height(d) for d in (0, 1, 2, 3, 4, 8, 9)] == [0, 0, 1, 2, 2, 3, 4]


def test_set_height():
    H = 3
    assert [set_height(d, H) for d in range(9)] == [3, 0, 1, 0, 2, 0, 1, 0, 3]


def test_tree18_heights_and_ancestors():
    tree = build_skip_structure(TREE18_PARENTS)
    assert tree.H == 3
    assert tree.depths[14] == 8 and tree.depths[17] == 4
    assert tree.skip_ancestors(14) == [13, 12, 7, 0]
    assert tree.skip_ancestors(17) == [16, 15, 0]
    assert tree.skip_ancestors(7) == [6, 5, 0]


def test_tree18_lca_walkthrough():
    tree = build_skip_structure(TREE18_PARENTS)
    res = tree.find_lca(14, 17)
    assert res.lca == 4
    assert naive_lca(TREE18_PARENTS, 14, 17) == 4
    # the deep side aligns 14 -> 7, then both sides descend through 5 and 15
    assert res.src_jumps == [(14, 2), (7, 1), (5, 0)]
    assert res.dst_jumps == [(17, 1), (15, 0)]


def test_tree18_all_pairs_match_naive():
    tree = build_skip_structure(TREE18_PARENTS)
    n = len(TREE18_PARENTS)
    for a in range(n):
        for b in range(n):
            assert tree.find_lca(a, b).lca == naive_lca(TREE18_PARENTS, a, b), (a, b)


def _random_parents(rng, n):
    parents = [None]
    for v in range(1, n):
        # bias towards recent nodes to get deep trees
        lo = max(0, v - rng.randrange(1, 6))
        parents.append(rng.randrange(lo, v))
    return parents


def test_random_trees_match_naive():
    rng = random.Random(401)
    for _ in range(25):
        parents = _random_parents(rng, rng.randrange(2, 40))
        tree = build_skip_structure(parents)
        n = len(parents)
        for a in range(n):
            for b in range(n):
                assert tree.find_lca(a, b).lca == naive_lca(parents, a, b)


def test_chain_step_bound():
    d = 256
    parents = [None] + list(range(d))
    tree = build_skip_structure(parents)
    for deep in (d, 255, 130, 7):
        for shallow in (0, 1, 63):
            if shallow >= deep:
                continue
            res = tree.find_lca(deep, shallow)
            assert res.lca == shallow
            dist = deep - shallow
            assert res.steps <= 2 * (int(math.log2(dist)) + 1) + tree.H, (deep, shallow, res.steps)


def _greedy_jumps(tree, v, depth) -> int:
    """Jumps from v to its ancestor at `depth`, each one the highest skip
    ancestor not above that depth."""
    n = 0
    while tree.depths[v] > depth:
        v = next(a for a in reversed(tree.skip_ancestors(v)) if tree.depths[a] >= depth)
        n += 1
    return n


def test_each_side_jumps_from_its_own_node_straight_to_the_lca():
    # trees drawn as criterion 4 draws them
    rng = random.Random(404)
    for _ in range(60):
        parents = _random_parents(rng, rng.randrange(2, 65))
        tree = build_skip_structure(parents)
        n = len(parents)
        for a in range(n):
            for b in range(n):
                res = tree.find_lca(a, b)
                lca = naive_lca(parents, a, b)
                assert res.lca == lca
                for start, jumps in ((a, res.src_jumps), (b, res.dst_jumps)):
                    at = start
                    for v, j in jumps:
                        assert v == at, (a, b)
                        at = tree.jumps[v][j][0]
                    assert at == lca, (a, b)
                    assert len(jumps) == _greedy_jumps(tree, start, tree.depths[lca]), (a, b)
                assert res.steps == len(res.src_jumps) + len(res.dst_jumps)


def test_a_deep_org_sensor_reaches_the_org_name_in_two_jumps():
    data = generate("tiny", seed=0).store().data("org")
    schema = data.schema
    sensor = schema.resolve(["Region", "Site", "Building", "Floor", "Room", "sensor"]).id
    floor = schema.resolve(["Region", "Site", "Building", "Floor"]).id
    name = schema.resolve(["name"]).id
    tree = build_skip_tree(data)
    res = tree.find_lca(sensor, name)
    assert res.lca == schema.root.id
    # Room's counter up to Floor, then Floor, Building, Site and Region's at once
    assert res.src_jumps == [(sensor, 1), (floor, 2)]
    assert res.dst_jumps == [(name, 0)]
    # the name side is an identity, which the route leaves out; the
    # sensor side is one move through the composition of every counter
    # from the sensor's up to the Region's
    route = tree.route(sensor, name)
    region = schema.resolve(["Region"]).id
    assert [key for _, key, _ in route] == [f"org/skip/{schema.path_of(sensor)}>{schema.path_of(region)}"]
    counters = (sensor, *(v for v in schema.ancestors(sensor) if schema.node(v).link is Link.COUNTER))
    assert counters[-1] == region
    ((move, _, nbytes),) = route
    assert move.__self__ is tree.side(counters)[0]
    assert nbytes == 8 * data.cardinality[schema.root.id]
    assert tree.route(sensor, name) is route


def _random_data(parents, rng) -> SchemaData:
    """Arrays over a tree of records: each non-root node is linked to its
    parent by an identity, a counter with empty ranges, or pointers into
    a space some of whose instances no pointer reaches."""
    nodes = [SchemaNode(0, "n0", Kind.RECORD, None, 0, link=Link.ROOT)]
    cards = [int(rng.integers(1, 4))]
    counters, indicators = {}, {}
    for v, p in enumerate(parents[1:], 1):
        link = (Link.IDENTITY, Link.COUNTER, Link.INDICATOR)[int(rng.integers(3))]
        nodes.append(SchemaNode(v, f"n{v}", Kind.RECORD, p, nodes[p].depth + 1, link=link))
        nodes[p].children.append(v)
        if link is Link.COUNTER:
            boundaries = np.cumsum(rng.integers(0, 3, size=cards[p]))
            cards.append(int(boundaries[-1]) if boundaries.size else 0)
            counters[v] = Mapping(cards[v], boundaries=boundaries)
        elif link is Link.INDICATOR:
            cards.append(int(rng.integers(1, 5)))
            indicators[v] = Mapping(cards[v], pointers=rng.integers(0, cards[v], size=cards[p]))
        else:
            cards.append(cards[p])
    data = SchemaData(Schema("t", nodes))
    data.cardinality = dict(enumerate(cards))
    data.counters.update(counters)
    data.indicators.update(indicators)
    data.validate()
    return data


def _one_link_at_a_time(data, owners, src, dst, bits):
    """`bits` moved from src to dst by the bare kernels, one parent link
    at a time, through the LCA `naive_lca` finds; `owners` holds each
    counter's `owner_index`."""
    parents = [n.parent for n in data.schema.nodes]
    lca = naive_lca(parents, src, dst)

    def chain(v):  # the nodes below the LCA, bottom-up
        out = []
        while v != lca:
            out.append(v)
            v = parents[v]
        return out

    for v in chain(src):
        if v in data.counters:
            bits = owner_roll_up(bits, owners[v], data.counters[v].upper_cardinality)
        elif v in data.indicators:
            bits = indicator_gather(bits, data.indicators[v].pointers)
    for v in reversed(chain(dst)):
        if v in data.counters:
            bits = owner_drill_down(bits, owners[v], data.counters[v].upper_cardinality)
        elif v in data.indicators:
            bits = indicator_scatter(bits, data.indicators[v].pointers, data.cardinality[v])
    return bits


def test_composed_route_sides_deliver_as_the_links_one_at_a_time():
    # trees drawn as criterion 4 draws them
    rng = random.Random(404)
    arrays = np.random.default_rng(405)
    composed = 0
    for _ in range(60):
        parents = _random_parents(rng, rng.randrange(2, 65))
        data = _random_data(parents, arrays)
        store = Store().add(data)
        index = build_skip_tree(data)
        owners = {v: owner_index(m.boundaries) for v, m in data.counters.items()}
        n = len(parents)
        for src in range(n):
            for dst in range(n):
                density = (0.0, 0.4, 1.0)[(src + dst) % 3]
                bits = arrays.random(data.cardinality[src]) < density
                want = _one_link_at_a_time(data, owners, src, dst, bits)
                for tree in (index, None):
                    got = deliver(store, "t", src, dst, bits, index=tree)
                    assert np.array_equal(got, want), (parents, src, dst, tree is None)
        composed += len(index.sides)
        # the height-0 tree still makes one move per link
        layered = layered_tree(data)
        assert all(len(moves) == sum(1 for _, key, _ in moves if "/skip/" not in key) for moves in layered.routes.values())
        assert layered.sides == {}
    assert composed > 500


def test_an_index_route_side_is_one_link_or_one_composition():
    # the trees of the test above, over arrays of their own
    rng = random.Random(404)
    arrays = np.random.default_rng(406)
    suffixes = {Link.COUNTER: "#counter", Link.INDICATOR: "#indicator"}
    sides = {1: 0, 2: 0}
    for _ in range(60):
        parents = _random_parents(rng, rng.randrange(2, 65))
        data = _random_data(parents, arrays)
        schema = data.schema
        index = build_skip_tree(data)
        links = layered_tree(data).links
        n = len(parents)
        for src in range(n):
            for dst in range(n):
                res = index.find_lca(src, dst)
                route = iter(index.route(src, dst))
                for way, jumps in (("up", res.src_jumps), ("down", res.dst_jumps)):
                    # the real links the side's jumps cross, bottom-up
                    crossed = tuple(u for v, j in jumps for u in index.jumps[v][j][1])
                    if not crossed:
                        continue
                    move, key, nbytes = next(route)
                    assert move.__name__ == way, (parents, src, dst)
                    if len(crossed) == 1:
                        (u,) = crossed
                        link = links[u]
                        assert key == f"t/{schema.path_of(u)}{suffixes[schema.node(u).link]}", (parents, src, dst)
                    else:
                        link, side_key = index.side(crossed)
                        assert key == side_key, (parents, src, dst)
                    assert move.__self__ is link and nbytes == link.nbytes, (parents, src, dst)
                    sides[min(len(crossed), 2)] += 1
                assert next(route, None) is None, (parents, src, dst)
    assert all(count > 500 for count in sides.values()), sides


# -- mappings ---------------------------------------------------------------


def test_contiguous_mapping_golden_walk():
    word = Mapping(8, boundaries=np.array([3, 5, 8]))
    bits = np.array([1, 0, 0, 1, 0, 0, 0, 0], dtype=bool)
    assert word.up(bits).tolist() == [True, True, False]

    campaign_to_person = Mapping(7, boundaries=counter_union(np.array([1, 2, 4]), np.array([2, 4, 5, 7])))
    down = campaign_to_person.down(np.array([1, 1, 0], dtype=bool))
    assert down.tolist() == [True, True, True, True, False, False, False]


def test_sparse_mapping_against_dense():
    rng = np.random.default_rng(11)
    for _ in range(20):
        upper, lower = rng.integers(1, 15, size=2)
        degree = rng.integers(0, 4, size=upper)
        boundaries = np.cumsum(degree)
        pointers = rng.integers(0, lower, size=int(boundaries[-1])) if boundaries.size else np.array([], dtype=np.int64)
        m = Mapping(int(lower), boundaries=boundaries, pointers=pointers)
        dense = np.zeros((upper, lower), dtype=bool)
        for u in range(upper):
            lo = 0 if u == 0 else boundaries[u - 1]
            for p in pointers[lo : boundaries[u]]:
                dense[u, p] = True
        bits = rng.random(lower) < 0.4
        assert np.array_equal(m.up(bits), dense @ bits)
        ubits = rng.random(upper) < 0.4
        assert np.array_equal(m.down(ubits), dense.T @ ubits)


def test_mapping_moves_equal_the_bare_kernels():
    rng = np.random.default_rng(13)
    for _ in range(30):
        upper, lower = (int(x) for x in rng.integers(1, 15, size=2))
        # empty ranges wherever a degree draws 0
        boundaries = np.cumsum(rng.integers(0, 4, size=upper))
        entries = int(boundaries[-1])
        pointers = rng.integers(0, lower, size=entries)
        counter_only = Mapping(entries, boundaries=boundaries)
        composed = Mapping(lower, boundaries=boundaries, pointers=pointers)
        ubits = rng.random(upper) < 0.4
        ebits = rng.random(entries) < 0.4
        lbits = rng.random(lower) < 0.4
        assert np.array_equal(counter_only.up(ebits), roll_up(ebits, boundaries))
        assert np.array_equal(counter_only.down(ubits), drill_down(ubits, boundaries))
        assert np.array_equal(composed.up(lbits), roll_up(indicator_gather(lbits, pointers), boundaries))
        assert np.array_equal(
            composed.down(ubits), indicator_scatter(drill_down(ubits, boundaries), pointers, lower)
        )
    for empty in (Mapping(0, boundaries=np.zeros(3, np.int64)), Mapping(0, boundaries=np.zeros(0, np.int64))):
        n = empty.upper_cardinality
        assert empty.up(np.zeros(0, bool)).tolist() == [False] * n
        assert empty.down(np.ones(n, bool)).tolist() == []


def test_owner_is_built_once_per_mapping_and_read_only(monkeypatch):
    built = []

    def counting(boundaries):
        built.append(boundaries)
        return owner_index(boundaries)

    monkeypatch.setattr("quest.delivery.owner_index", counting)
    m = Mapping(7, boundaries=np.array([2, 4, 4, 7]))
    assert built == []
    for _ in range(3):
        assert m.up(np.array([0, 0, 1, 0, 0, 0, 1], bool)).tolist() == [False, True, False, True]
        assert m.down(np.array([1, 0, 1, 0], bool)).tolist() == [True, True, False, False, False, False, False]
    assert len(built) == 1 and m.owner.tolist() == [0, 0, 1, 1, 3, 3, 3]
    with pytest.raises(ValueError):
        m.owner[0] = 1
    with pytest.raises(DeliveryError, match="roll_up: bitset length 6 != counter end 7"):
        m.up(np.zeros(6, bool))
    with pytest.raises(DeliveryError, match="drill_down: bitset length 5 != counter length 4"):
        m.down(np.zeros(5, bool))
    # a fresh mapping over the same counter builds its own
    Mapping(7, boundaries=m.boundaries).up(np.zeros(7, bool))
    assert len(built) == 2


def _general_up(m, bits):
    if m.pointers is not None:
        bits = indicator_gather(bits, m.pointers)
    return bits if m.boundaries is None else roll_up(bits, m.boundaries)


def _general_down(m, bits):
    if m.boundaries is not None:
        bits = drill_down(bits, m.boundaries)
    return bits if m.pointers is None else indicator_scatter(bits, m.pointers, m.lower_cardinality)


def test_all_ones_moves_equal_the_general_path():
    rng = np.random.default_rng(17)
    for _ in range(40):
        upper, lower = (int(x) for x in rng.integers(1, 12, size=2))
        boundaries = np.cumsum(rng.integers(0, 3, size=upper))  # with empty ranges
        entries = int(boundaries[-1])
        counter = Mapping(entries, boundaries=boundaries)
        # pointers that leave some lower instances unreached
        pointer = Mapping(lower, pointers=rng.integers(0, lower, size=upper))
        hop = Mapping(lower, boundaries=boundaries, pointers=rng.integers(0, lower, size=entries))
        below = np.cumsum(rng.integers(0, 3, size=entries))
        composed = [
            compose(Mapping(lower, pointers=rng.integers(0, lower, size=entries)), counter),
            compose(Mapping(int(below[-1]) if below.size else 0, boundaries=below), counter),
        ]
        for m in (counter, pointer, hop, *composed):
            for way, n, general in (("up", m.lower_cardinality, _general_up), ("down", m.upper_cardinality, _general_down)):
                got = getattr(m, way)(np.ones(n, bool))
                assert np.array_equal(got, general(m, np.ones(n, bool))), (m, way)
                # the mapping keeps the answer, read-only
                assert getattr(m, way)(np.ones(n, bool)) is got and not got.flags.writeable
                if n:
                    some = np.ones(n, bool)
                    some[int(rng.integers(n))] = False
                    assert np.array_equal(getattr(m, way)(some), general(m, some)), (m, way)
    ctr = Mapping(5, boundaries=np.array([2, 2, 5]))
    with pytest.raises(DeliveryError, match="drill_down: bitset length 4 != counter length 3"):
        ctr.down(np.ones(4, bool))
    with pytest.raises(DeliveryError, match="roll_up: bitset length 4 != counter end 5"):
        ctr.up(np.ones(4, bool))


def test_compose_contiguous_equals_counter_union(ads_data):
    person = Mapping(ads_data.cardinality[PERSON], boundaries=ads_data.counters[PERSON].boundaries)
    clicks = Mapping(ads_data.cardinality[CLICKS], boundaries=ads_data.counters[CLICKS].boundaries)
    composite = compose(person, clicks)
    assert composite.pointers is None
    assert composite.boundaries.tolist() == [2, 4, 7]


def test_compose_mixed_against_dense():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n0, n1, n2 = rng.integers(1, 12, size=3)
        first = _random_mapping(rng, lower=int(n0), upper=int(n1))
        second = _random_mapping(rng, lower=int(n1), upper=int(n2))
        composite = compose(first, second)
        expected = dense_relation(second) @ dense_relation(first)
        assert np.array_equal(dense_relation(composite), expected)
        bits = rng.random(int(n0)) < 0.5
        assert np.array_equal(composite.up(bits), expected @ bits)


def _random_mapping(rng, lower, upper):
    which = rng.integers(0, 3)
    if which == 0 and lower == upper:
        return Mapping(lower)
    if which == 1:
        cuts = np.sort(rng.integers(0, lower + 1, size=upper - 1)) if upper > 1 else np.array([], dtype=np.int64)
        boundaries = np.concatenate((cuts, [lower])).astype(np.int64)
        return Mapping(lower, boundaries=boundaries)
    degree = rng.integers(0, 3, size=upper)
    boundaries = np.cumsum(degree)
    count = int(boundaries[-1]) if boundaries.size else 0
    pointers = rng.integers(0, lower, size=count)
    return Mapping(lower, boundaries=boundaries, pointers=pointers)


def _check_compose(first, second):
    composite = compose(first, second)
    assert (composite.upper_cardinality, composite.lower_cardinality) == (
        second.upper_cardinality,
        first.lower_cardinality,
    )
    assert np.array_equal(dense_relation(composite), dense_relation(second) @ dense_relation(first))
    return composite


def test_compose_empty_spaces():
    none = np.array([], dtype=np.int64)
    counter = Mapping(3, boundaries=[1, 3])  # 2 mids over 3 lower instances
    # zero upper instances
    for second in (Mapping(2, pointers=none), Mapping(2, boundaries=none, pointers=none)):
        assert _check_compose(counter, second).upper_cardinality == 0
    # zero entries: every top owns nothing
    empty = _check_compose(Mapping(4, pointers=[1, 3]), Mapping(2, boundaries=[0, 0], pointers=none))
    assert empty.boundaries.tolist() == [0, 0] and empty.pointers.tolist() == []
    # a lower cardinality of 0, through the general product and through counter_union
    nothing_below = Mapping(0, boundaries=[0, 0])
    zero = _check_compose(nothing_below, Mapping(2, boundaries=[1, 1], pointers=[1]))
    assert zero.boundaries.tolist() == [0, 0] and zero.pointers.tolist() == []
    assert _check_compose(nothing_below, Mapping(2, boundaries=[2])).boundaries.tolist() == [0]


def test_compose_identity_on_either_side():
    counter = Mapping(5, boundaries=[2, 5])
    hop = Mapping(3, boundaries=[1, 3], pointers=[2, 0, 1])
    assert compose(Mapping(5), counter) is counter
    assert compose(counter, Mapping(2)) is counter
    assert compose(Mapping(3), hop) is hop
    assert compose(hop, Mapping(2)) is hop
    with pytest.raises(DeliveryError):
        compose(Mapping(4), counter)


def test_compose_pointers_with_counters():
    pointer = Mapping(4, pointers=[3, 0, 0])  # 3 mids, each one lower instance
    counter = Mapping(3, boundaries=[2, 3])  # 2 tops over 3 mids
    up = _check_compose(pointer, counter)
    assert up.boundaries.tolist() == [2, 3] and up.pointers.tolist() == [0, 3, 0]
    # the reverse: a counter under a pointer array
    below = Mapping(5, boundaries=[2, 2, 5])  # 3 mids over 5 lower instances
    above = Mapping(3, pointers=[2, 0])  # 2 tops, each one mid
    down = _check_compose(below, above)
    assert down.boundaries.tolist() == [3, 5] and down.pointers.tolist() == [2, 3, 4, 0, 1]


def test_compose_collapses_mids_reaching_the_same_node():
    # top 0 reaches lower 1 through mid 0 and mid 1; top 1 reaches it once
    first = Mapping(3, boundaries=[2, 4, 5], pointers=[1, 2, 1, 0, 1])
    second = Mapping(3, boundaries=[2, 3], pointers=[0, 1, 2])
    composite = _check_compose(first, second)
    assert composite.boundaries.tolist() == [3, 4]
    assert composite.pointers.tolist() == [0, 1, 2, 1]


def test_multi_hop_golden():
    # two vertices chained 0 -> 1 -> 2; one hop per edge set
    hop = Mapping(3, boundaries=np.array([1, 2, 2]), pointers=np.array([1, 2]))
    two = multi_hop([hop, hop])
    assert two.boundaries.tolist() == [1, 1, 1]
    assert two.pointers.tolist() == [2]


def test_multi_hop_against_matrix_power():
    rng = np.random.default_rng(7)
    for _ in range(15):
        n = int(rng.integers(2, 20))
        adj = rng.random((n, n)) < 0.2
        degree = adj.sum(axis=1)
        boundaries = np.cumsum(degree)
        pointers = np.concatenate([np.flatnonzero(adj[u]) for u in range(n)]) if boundaries[-1] else np.array([], dtype=np.int64)
        hop = Mapping(n, boundaries=boundaries, pointers=pointers)
        k = int(rng.integers(1, 4))
        condensed = multi_hop([hop] * k)
        power = np.linalg.matrix_power(adj.astype(np.int64), k) > 0
        assert np.array_equal(dense_relation(condensed), power)


# -- index over real data ----------------------------------------------------


def test_ads_skiptree_entries(ads_data):
    tree = build_skip_tree(ads_data)
    assert tree.H == 2
    assert tree.heights == [2, 0, 0, 1, 0, 1, 0]
    assert tree.skip_ancestors(WORDSET) == [CAMPAIGN, ADVERTISER]
    assert tree.skip_ancestors(CLICKS) == [CAMPAIGN, ADVERTISER]
    # Clicks' second entry crosses Clicks' and Campaign's counters, and
    # the side over both folds Campaign's counter in
    assert tree.jumps[CLICKS][1] == (ADVERTISER, (CLICKS, CAMPAIGN))
    top, _ = tree.side((CLICKS, CAMPAIGN))
    assert top.pointers is None and top.boundaries.tolist() == [2, 4]


def test_skip_up_down_equal_iterated(ads_data, ads_store):
    # deliver over the index, deliver without it (the height-0 tree), and
    # the parent links applied one at a time all agree
    tree = build_skip_tree(ads_data)
    links = layered_tree(ads_data).links
    schema = ads_data.schema
    rng = np.random.default_rng(83)
    for node in range(len(schema)):
        chain = []
        cur = node
        for anc in schema.ancestors(node):
            chain.append(links[cur])
            cur = anc
            bits = rng.random(ads_data.cardinality[node]) < 0.5
            iterated = bits
            for m in chain:
                iterated = m.up(iterated)
            for index in (tree, None):
                up = deliver(ads_store, "ads", node, anc, bits, index=index)
                assert np.array_equal(up, iterated), (node, anc, index is None)
            abits = rng.random(ads_data.cardinality[anc]) < 0.5
            iterated = abits
            for m in reversed(chain):
                iterated = m.down(iterated)
            for index in (tree, None):
                down = deliver(ads_store, "ads", anc, node, abits, index=index)
                assert np.array_equal(down, iterated), (node, anc, index is None)


def test_skiptree_round_trip(tmp_path, ads_data, ads_store):
    tree = build_skip_tree(ads_data)
    write_store(ads_store, tmp_path / "s")
    write_skiptree(tree, tmp_path / "s", ads_data.schema)
    loaded_store = open_store(tmp_path / "s")
    loaded = load_skiptree(loaded_store, "ads")
    assert loaded.H == tree.H and loaded.heights == tree.heights
    for v in range(len(tree)):
        assert loaded.skip_ancestors(v) == tree.skip_ancestors(v)
        for u in range(len(tree)):
            mine, other = tree.route(v, u), loaded.route(v, u)
            assert [(move.__name__, key, nbytes) for move, key, nbytes in mine] == [
                (move.__name__, key, nbytes) for move, key, nbytes in other
            ], (v, u)
            for (move, _, _), (o_move, _, _) in zip(mine, other):
                m, o = move.__self__, o_move.__self__
                assert m.lower_cardinality == o.lower_cardinality
                for name in ("boundaries", "pointers"):
                    mine_array, other_array = getattr(m, name), getattr(o, name)
                    assert (mine_array is None) == (other_array is None), (v, u, name)
                    if mine_array is not None:
                        assert np.array_equal(mine_array, other_array), (v, u, name)
    assert loaded.find_lca(WORD, PERSON).lca == CAMPAIGN
    bits = np.array([1, 0, 0, 1, 0, 0, 0, 0], dtype=bool)
    out = deliver(loaded_store, "ads", WORD, CAMPAIGN, bits, index=loaded)
    assert out.tolist() == [True, True, False]


def _composed_jumps(tree) -> list[tuple[int, int]]:
    """(node, level) of each jump over two or more real links."""
    return [(v, j) for v, row in enumerate(tree.jumps) for j, (_, crossed) in enumerate(row) if len(crossed) > 1]


@pytest.mark.parametrize("config", ["tiny-3", "random-8"])
def test_persisted_index_holds_only_its_stamp(tmp_path, config):
    corpus = generate("tiny", seed=3) if config == "tiny-3" else random_corpus(random.Random(8))
    store = corpus.store()
    write_store(store, tmp_path)
    for name, data in sorted(store.datasets.items()):
        write_skiptree(build_skip_tree(data), tmp_path, data.schema)
        root = tmp_path / name / "_skiptree"
        assert [p.name for p in root.iterdir()] == ["skiptree.json"]
        assert (root / "skiptree.json").read_text() == '{"format_version": 2}\n'
    opened = open_store(tmp_path)
    composed = []
    for name in sorted(opened.datasets):
        tree = load_skiptree(opened, name)
        assert tree.sides == {}
        for src in range(len(tree)):
            for dst in range(len(tree)):
                tree.route(src, dst)
        # composed on first use, from the opened store's own arrays
        links = layered_tree(opened.data(name)).links
        assert tree.links is links
        path = opened.schema(name).path_of
        for crossed, (other, _) in tree.sides.items():
            composed.append(f"{name}/{path(crossed[0])}>{path(crossed[-1])}")
            mine = build_skip_tree(store.data(name)).side(crossed)[0]
            for array in ("boundaries", "pointers"):
                assert np.array_equal(getattr(mine, array), getattr(other, array)), (crossed, array)
    # which route sides compose two or more real links depends on the
    # schemas alone (a query's routes also depend on its data: an empty
    # context ends it early)
    assert sorted(composed) == [
        "ads/Advertiser.Campaign.Clicks.Person>Advertiser.Campaign",
        "ads/Advertiser.Campaign.WordSet.Word>Advertiser.Campaign",
        "org/Org.Region.Site.Building.Floor.Room.sensor>Org.Region",
        "org/Org.Region.Site.Building.Floor.Room.sensor>Org.Region.Site",
        "org/Org.Region.Site.Building.Floor.Room.sensor>Org.Region.Site.Building",
        "org/Org.Region.Site.Building.Floor.Room.sensor>Org.Region.Site.Building.Floor",
        "org/Org.Region.Site.Building.Floor.Room.sensor>Org.Region.Site.Building.Floor.Room",
        "org/Org.Region.Site.Building.Floor.Room>Org.Region",
        "org/Org.Region.Site.Building.Floor.Room>Org.Region.Site",
        "org/Org.Region.Site.Building.Floor.Room>Org.Region.Site.Building",
        "org/Org.Region.Site.Building.Floor.Room>Org.Region.Site.Building.Floor",
        "org/Org.Region.Site.Building.Floor>Org.Region",
        "org/Org.Region.Site.Building.Floor>Org.Region.Site",
        "org/Org.Region.Site.Building.Floor>Org.Region.Site.Building",
        "org/Org.Region.Site.Building>Org.Region",
        "org/Org.Region.Site.Building>Org.Region.Site",
        "org/Org.Region.Site>Org.Region",
        "social/Person.like#.#Message>Person.like#",
    ]


def test_an_index_without_composed_jumps_still_writes_its_manifest(tmp_path):
    # ads and people compose no two real links at any preset
    store = generate("tiny", seed=0).store()
    write_store(store, tmp_path)
    reopened = open_store(tmp_path)
    for name in ("ads", "people"):
        tree = build_skip_tree(reopened.data(name))
        assert _composed_jumps(tree) == []
        write_skiptree(tree, tmp_path, reopened.schema(name))
        assert [p.name for p in (tmp_path / name / "_skiptree").iterdir()] == ["skiptree.json"]
        assert load_skiptree(reopened, name).skip_ancestors(len(tree) - 1) == tree.skip_ancestors(len(tree) - 1)


def test_trees_over_one_schema_data_share_link_mappings(tmp_path, monkeypatch):
    ingested = generate("tiny", seed=0).store()
    write_store(ingested, tmp_path)
    store = open_store(tmp_path)
    # every counter or pointer link is the store's own Mapping, ingested or opened
    checked = {Link.COUNTER: 0, Link.INDICATOR: 0}
    for source in (ingested, store):
        for name, sdata in source.datasets.items():
            arrays = {Link.COUNTER: sdata.counters, Link.INDICATOR: sdata.indicators}
            for n in sdata.schema.nodes:
                if n.link in arrays:
                    assert layered_tree(sdata).links[n.id] is arrays[n.link][n.id], (name, n.id)
                    checked[n.link] += 1
    assert all(checked.values()), checked
    data = store.data("org")
    write_skiptree(build_skip_tree(data), tmp_path, data.schema)
    loaded = load_skiptree(store, "org")
    built = build_skip_tree(data)
    assert loaded is built  # one index per schema data
    layered = layered_tree(data)
    links = layered.links

    owners = []

    def counting(boundaries):
        owners.append(boundaries)
        return owner_index(boundaries)

    monkeypatch.setattr("quest.delivery.owner_index", counting)
    rng = np.random.default_rng(7)
    for index in (loaded, built, None, loaded):
        for node in range(len(data.schema)):
            for anc in data.schema.ancestors(node):
                deliver(store, "org", node, anc, rng.random(data.cardinality[node]) < 0.5, index=index)
                deliver(store, "org", anc, node, rng.random(data.cardinality[anc]) < 0.5, index=index)
    # every move over one link is bound to the store's own link Mapping,
    # whichever tree makes it, and every other move to a composed side
    assert built.links is links
    suffixes = {Link.COUNTER: "#counter", Link.INDICATOR: "#indicator"}
    own = {
        f"org/{data.schema.path_of(n.id)}{suffixes[n.link]}": links[n.id]
        for n in data.schema.nodes
        if n.link in suffixes
    }
    composed = {id(m) for m, _ in built.sides.values()}
    for tree in (built, layered):
        for moves in tree.routes.values():
            for move, key, _ in moves:
                assert (move.__self__ is own[key]) if key in own else (id(move.__self__) in composed), key
    # one owner per counter and per composed route side, whichever trees
    # move bits over it
    assert len(owners) == len({id(b) for b in owners})
    counters = [m for m in links if m is not None and m.boundaries is not None]
    assert len(owners) == len(counters) + len(built.sides)


def _shift_one_child(store) -> None:
    """Move one child between neighbouring parents in every org counter;
    every cardinality stays the same."""
    for ctr in store.data("org").counters.values():
        lengths = np.diff(ctr.boundaries, prepend=0)
        pairs = lengths.size // 2
        give = lengths[0 : 2 * pairs : 2] > 0
        lengths[0 : 2 * pairs : 2] -= give
        lengths[1 : 2 * pairs : 2] += give
        ctr.boundaries = np.cumsum(lengths)


def _answers_match_the_oracle(store, indexes, names=None) -> None:
    schemas = {name: store.schema(name) for name in store.datasets}
    for wq in WORKLOAD:
        if names is None or wq.name[:3] in names:
            query = parse_query(schemas, wq.doc)
            assert evaluate(store, query, indexes=indexes).rows == oracle_query(store, query), wq.name


def test_rewriting_a_store_drops_its_stale_indexes(tmp_path):
    store = generate("tiny", seed=0).store()
    write_store(store, tmp_path)
    for name in store.datasets:
        write_skiptree(build_skip_tree(store.data(name)), tmp_path, store.schema(name))
    _shift_one_child(store)
    write_store(store, tmp_path)

    # the stamps stay, and the loaded indexes compose the new arrays
    reopened = open_store(tmp_path)
    loaded = {name: load_skiptree(reopened, name) for name in reopened.datasets}
    for indexes in (loaded, None):
        _answers_match_the_oracle(reopened, indexes, ("Q09", "Q10", "Q11"))


def test_a_copied_in_column_file_cannot_leave_the_index_stale(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    store = generate("tiny", seed=0).store()
    write_store(store, first)
    for name in store.datasets:
        write_skiptree(build_skip_tree(store.data(name)), first, store.schema(name))
    # an index over the original arrays, whose route sides the workload
    # composes before the copy
    before = open_store(first)
    old = {name: load_skiptree(before, name) for name in before.datasets}
    _answers_match_the_oracle(before, old)
    assert old["org"].sides
    _shift_one_child(store)
    write_store(store, second)
    copied = []
    for path in sorted((second / "org").glob("*.col")):
        if path.read_bytes() != (first / "org" / path.name).read_bytes():
            shutil.copyfile(path, first / "org" / path.name)
            copied.append(path.name)
    assert copied

    after = open_store(first)
    _answers_match_the_oracle(after, {name: load_skiptree(after, name) for name in after.datasets})
    # the copy is one that sides composed from the original arrays answer wrongly
    schemas = {name: after.schema(name) for name in after.datasets}
    wrong = []
    for wq in WORKLOAD:
        query = parse_query(schemas, wq.doc)
        if evaluate(after, query, indexes=old).rows != oracle_query(after, query):
            wrong.append(wq.name[:3])
    assert wrong == ["Q09", "Q10", "Q11"]


def test_a_query_composes_only_the_jumps_its_route_takes(tmp_path, monkeypatch):
    store = generate("tiny", seed=0).store()
    write_store(store, tmp_path)
    for name in store.datasets:
        write_skiptree(build_skip_tree(store.data(name)), tmp_path, store.schema(name))
    calls = []

    def counting(first, second):
        calls.append(second)
        return compose(first, second)

    monkeypatch.setattr("quest.skiptree.compose", counting)
    docs = {wq.name[:3]: wq.doc for wq in WORKLOAD}
    for name, composes in (("Q06", False), ("Q09", True)):
        opened = open_store(tmp_path)
        indexes = {schema: load_skiptree(opened, schema) for schema in opened.datasets}
        query = parse_query({schema: opened.schema(schema) for schema in opened.datasets}, docs[name])
        calls.clear()
        evaluate(opened, query, indexes=indexes)
        assert bool(calls) == composes, name
        # reduce() composes each crossed link in turn into the jump so far
        org_links = layered_tree(opened.data("org")).links
        assert all(any(link is m for m in org_links) for link in calls), name
        calls.clear()
        evaluate(opened, query, indexes=indexes)
        assert calls == [], name
