"""Seeded dataset families for the CLI, the benchmarks, and the tests.

Four families share one key space:

* ``ads``     advertiser documents (Email, Campaigns with a WordSet and
              a Clicks list of person ids)
* ``people``  a flat table keyed by PID with credit_score and balance
* ``social``  a property graph of Person/Message vertices with know and
              like edges; Person vertices carry the table's pid values
* ``org``     deeply nested facility documents (a seven-level chain
              Org > Region > Site > Building > Floor > Room > sensor)
              whose Room owners are pids, for deep-predicate workloads

Click lists, graph pids, and room owners all reference people PIDs, so
queries can join any pair of models or all three.

Selectivity is controllable: ``generate(..., high=0.05, low=0.10)``
plants one probe value per family at each fraction by marking evenly
spaced instances, so planted counts are exact and the measured fraction
is within half an instance of the knob.  ``Corpus.probes`` records
every plant for benchmark and test queries to rely on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from .schema import Schema, expand_graph_schema, parse_schema
from .ingest import ingest_graph_tables, ingest_json, ingest_rows
from .store import SchemaData, Store

PRESETS = {"tiny": 1_000, "small": 100_000, "medium": 1_000_000}

REGION_CODES = [f"R{i}" for i in range(8)]
CITIES = [f"c{i}" for i in range(8)]
TAGS = [f"b{i}" for i in range(4)]
LABELS = [f"room{i}" for i in range(16)]
NAMES = [f"n{i}" for i in range(16)]
MESSAGE_TAGS = [f"t{i}" for i in range(4)]
SEGMENTS = ["basic", "plus", "pro", "max"]
WORDS = [f"w{i}" for i in range(32)]

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
                        "children": [
                            {"name": "Word", "kind": "array", "primitive": "string"},
                        ],
                    },
                    {
                        "name": "Clicks",
                        "kind": "record",
                        "children": [
                            {"name": "Person", "kind": "array", "primitive": "string"},
                        ],
                    },
                ],
            },
        ],
    },
}

ORG_MANIFEST = {
    "name": "org",
    "model": "document",
    "root": {
        "name": "Org",
        "kind": "record",
        "children": [
            {"name": "name", "kind": "primitive", "primitive": "string"},
            {
                "name": "Region",
                "kind": "array",
                "children": [
                    {"name": "code", "kind": "primitive", "primitive": "string"},
                    {
                        "name": "Site",
                        "kind": "array",
                        "children": [
                            {"name": "city", "kind": "primitive", "primitive": "string"},
                            {
                                "name": "Building",
                                "kind": "array",
                                "children": [
                                    {"name": "tag", "kind": "primitive", "primitive": "string"},
                                    {
                                        "name": "Floor",
                                        "kind": "array",
                                        "children": [
                                            {"name": "level", "kind": "primitive", "primitive": "number"},
                                            {
                                                "name": "Room",
                                                "kind": "array",
                                                "children": [
                                                    {"name": "label", "kind": "primitive", "primitive": "string"},
                                                    {"name": "owner", "kind": "primitive", "primitive": "string"},
                                                    {"name": "sensor", "kind": "array", "primitive": "number"},
                                                ],
                                            },
                                        ],
                                    },
                                ],
                            },
                        ],
                    },
                ],
            },
        ],
    },
}

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
            {"name": "segment", "kind": "primitive", "primitive": "string"},
        ],
    },
}

SOCIAL_VERTICES = [
    {
        "label": "Person",
        "properties": [
            {"name": "pid", "primitive": "string"},
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

FAMILY_NAMES = ("ads", "people", "social", "org")


def ads_schema() -> Schema:
    return parse_schema(ADS_MANIFEST)


def org_schema() -> Schema:
    return parse_schema(ORG_MANIFEST)


def people_schema() -> Schema:
    return parse_schema(PEOPLE_MANIFEST)


def social_schema() -> Schema:
    return expand_graph_schema(SOCIAL_VERTICES, SOCIAL_EDGES, "Person", name="social")


def _pid(i: int) -> str:
    return f"p{i:06d}"


def _plant(n: int, fraction: float) -> set[int]:
    """Evenly spaced instance indexes; exactly ``round(n * fraction)`` many."""
    k = round(n * fraction)
    if k <= 0:
        return set()
    return {(j * n) // k for j in range(k)}


def _two_plants(n: int, high: float, low: float) -> tuple[set[int], set[int]]:
    """Two disjoint evenly spread plants over one column.

    Error-accumulator assignment keeps each measured fraction within one
    instance of its knob even though the sets share the column.
    """
    hot: set[int] = set()
    warm: set[int] = set()
    acc_h = acc_w = 0.0
    for i in range(n):
        acc_h += high
        acc_w += low
        if acc_h >= 1.0:
            acc_h -= 1.0
            hot.add(i)
        elif acc_w >= 1.0:
            acc_w -= 1.0
            warm.add(i)
    return hot, warm


@dataclass
class Corpus:
    """Generated records, and the datasets ingested from them on first use."""

    seed: int
    preset: str
    records: dict[str, Any] = field(default_factory=dict)
    probes: dict[str, dict] = field(default_factory=dict)

    @cached_property
    def datasets(self) -> dict[str, SchemaData]:
        r = self.records
        return {
            "ads": ingest_json(r["ads"], ads_schema()),
            "people": ingest_rows(r["people"], people_schema()),
            "social": ingest_graph_tables(r["social"]["vertices"], r["social"]["edges"], social_schema()),
            "org": ingest_json(r["org"], org_schema()),
        }

    def store(self) -> Store:
        s = Store()
        for data in self.datasets.values():
            s.add(data)
        return s


def _probe(value, count: int, out_of: int, op: str = "=") -> dict:
    return {
        "value": value,
        "op": op,
        "count": count,
        "out_of": out_of,
        "fraction": count / out_of if out_of else 0.0,
    }


def _ads_docs(scale: int, n_pids: int, high: float, low: float):
    """Advertiser documents; the Word column holds roughly ``scale`` values."""
    words_per_adv = 10  # two campaigns, five words each
    n_adv = max(4, round(scale / words_per_adv))
    n_words = n_adv * words_per_adv
    hot, warm = _two_plants(n_words, high, low)

    docs = []
    w = p = 0
    for i in range(n_adv):
        campaigns = []
        for _ in range(2):
            word_list = []
            for _ in range(5):
                if w in hot:
                    word_list.append("hotword")
                elif w in warm:
                    word_list.append("warmword")
                else:
                    word_list.append(WORDS[w % len(WORDS)])
                w += 1
            clicks = []
            for _ in range(4):
                clicks.append(_pid(p % n_pids))
                p += 1
            campaigns.append({"WordSet": {"Word": word_list}, "Clicks": {"Person": clicks}})
        docs.append({"Email": f"adv{i}@example.com", "Campaign": campaigns})
    probes = {
        "ads.Campaign.WordSet.Word": _probe("hotword", len(hot), n_words),
        "ads.Campaign.WordSet.Word:low": _probe("warmword", len(warm), n_words),
    }
    return docs, probes


def _org_docs(scale: int, n_pids: int, high: float, low: float):
    """Facility documents; the sensor column holds roughly ``scale`` values."""
    sensors_per_root = 96  # two children per level, three sensors per room
    n_roots = max(2, round(scale / sensors_per_root))
    n_sensors = n_roots * sensors_per_root
    n_rooms = n_roots * 32
    hot_sensors, warm_sensors = _two_plants(n_sensors, high, low)
    warm_rooms = _plant(n_rooms, low)

    docs = []
    si = ri = region_count = 0
    for i in range(n_roots):
        regions = []
        for _ in range(2):
            r = region_count
            region_count += 1
            sites = []
            for _ in range(2):
                buildings = []
                for _ in range(2):
                    floors = []
                    for fl in range(2):
                        rooms = []
                        for _ in range(2):
                            sensors = []
                            for _ in range(3):
                                if si in hot_sensors:
                                    sensors.append(999.0)
                                elif si in warm_sensors:
                                    sensors.append(555.0)
                                else:
                                    sensors.append(float(si % 100))
                                si += 1
                            label = "warmroom" if ri in warm_rooms else LABELS[ri % len(LABELS)]
                            rooms.append(
                                {
                                    "label": label,
                                    "owner": _pid(ri % n_pids),
                                    "sensor": sensors,
                                }
                            )
                            ri += 1
                        floors.append({"level": float(fl), "Room": rooms})
                    buildings.append({"tag": TAGS[r % len(TAGS)], "Floor": floors})
                sites.append({"city": CITIES[r % len(CITIES)], "Building": buildings})
            regions.append({"code": REGION_CODES[r % len(REGION_CODES)], "Site": sites})
        docs.append({"name": f"org{i}", "Region": regions})
    probes = {
        "org.Region.Site.Building.Floor.Room.sensor": _probe(999.0, len(hot_sensors), n_sensors),
        "org.Region.Site.Building.Floor.Room.sensor:low": _probe(555.0, len(warm_sensors), n_sensors),
        "org.Region.Site.Building.Floor.Room.label": _probe("warmroom", len(warm_rooms), n_rooms),
        "org.Region.code": _probe(
            "R0", sum(1 for d in docs for r in d["Region"] if r["code"] == "R0"), region_count
        ),
    }
    return docs, probes


def _people_rows(rng: random.Random, n: int, high: float, low: float):
    vip, gold = _two_plants(n, high, low)
    rows = []
    n_high_credit = 0
    for i in range(n):
        # full 300..849 sweep, but shuffled so every pid range has high
        # scorers (7919 is coprime to 550)
        score = float(300 + (i * 7919) % 550)
        n_high_credit += score > 700
        if i in vip:
            segment = "vip"
        elif i in gold:
            segment = "gold"
        else:
            segment = SEGMENTS[i % len(SEGMENTS)]
        rows.append(
            {
                "PID": _pid(i),
                "credit_score": score,
                "balance": round(rng.uniform(0, 10_000), 2),
                "segment": segment,
            }
        )
    probes = {
        "people.segment": _probe("vip", len(vip), n),
        "people.segment:low": _probe("gold", len(gold), n),
        "people.credit_score": _probe(700, n_high_credit, n, op=">"),
    }
    return rows, probes


def _social_tables(n_person: int, n_message: int, high: float, low: float):
    hot_city, warm_city = _two_plants(n_person, high, low)
    persons = []
    for i in range(n_person):
        if i in hot_city:
            city = "hc"
        elif i in warm_city:
            city = "wc"
        else:
            city = CITIES[i % len(CITIES)]
        persons.append({"id": _pid(i), "pid": _pid(i), "name": NAMES[i % len(NAMES)], "city": city})
    messages = [
        {"id": f"m{j}", "tag": MESSAGE_TAGS[j % len(MESSAGE_TAGS)]} for j in range(n_message)
    ]
    know = []
    for i in range(n_person):
        know.append((_pid(i), _pid((i + 1) % n_person)))
        if i % 2 == 0 and n_person > 7:
            know.append((_pid(i), _pid((i + 7) % n_person)))
    like = [
        (_pid(i), f"m{i % n_message}")
        for i in range(n_person)
        if i % 3 != 0  # every third person likes nothing
    ]
    graph = {"vertices": {"Person": persons, "Message": messages}, "edges": {"know": know, "like": like}}
    probes = {
        "social.Person.city": _probe("hc", len(hot_city), n_person),
        "social.Person.city:low": _probe("wc", len(warm_city), n_person),
    }
    return graph, probes


def generate(preset: str = "tiny", seed: int = 0, high: float = 0.05, low: float = 0.10) -> Corpus:
    """Build the four dataset families at the named preset size.

    ``high`` and ``low`` set the planted probe-value fractions (the two
    selectivity levels the workload queries use).
    """
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; pick one of {sorted(PRESETS)}")
    scale = PRESETS[preset]
    rng = random.Random(seed)
    n_people = scale
    n_person = max(30, scale // 2)
    n_message = max(8, n_person // 4)

    ads_docs, ads_probes = _ads_docs(scale, n_people, high, low)
    org_docs, org_probes = _org_docs(scale, n_people, high, low)
    rows, people_probes = _people_rows(rng, n_people, high, low)
    graph, social_probes = _social_tables(n_person, n_message, high, low)

    corpus = Corpus(seed=seed, preset=preset)
    corpus.records = {"ads": ads_docs, "people": rows, "social": graph, "org": org_docs}
    corpus.probes = {**ads_probes, **org_probes, **people_probes, **social_probes}
    return corpus


# ---------------------------------------------------------------------------
# randomized stores and queries (small shapes, used for engine/oracle parity)


def random_corpus(rng: random.Random) -> Corpus:
    """A small randomly-shaped corpus: ragged arrays, empties, and nulls."""
    n_people = rng.randint(8, 40)
    n_person = rng.randint(4, 16)
    n_message = rng.randint(2, 6)

    ads_docs = []
    for i in range(rng.randint(2, 8)):
        campaigns = []
        for _ in range(rng.randint(0, 3)):
            campaigns.append(
                {
                    "WordSet": {
                        "Word": [rng.choice(WORDS[:8]) for _ in range(rng.randint(0, 4))]
                    },
                    "Clicks": {
                        "Person": [
                            _pid(rng.randint(0, n_people + 3))
                            for _ in range(rng.randint(0, 3))
                        ]
                    },
                }
            )
        doc = {"Campaign": campaigns}
        if rng.random() < 0.9:
            doc["Email"] = f"adv{i}@example.com"
        ads_docs.append(doc)

    # owners stay globally unique so fetching across the join is always
    # well defined; a few rooms have no owner or one matching nobody
    owner_order = list(range(n_people))
    rng.shuffle(owner_order)
    next_owner = iter(owner_order)
    stray = 10_000

    org_docs = []
    for i in range(rng.randint(3, 12)):
        regions = []
        for _ in range(rng.randint(0, 3)):
            sites = []
            for _ in range(rng.randint(0, 2)):
                buildings = []
                for _ in range(rng.randint(0, 2)):
                    floors = []
                    for fl in range(rng.randint(0, 2)):
                        rooms = []
                        for _ in range(rng.randint(0, 3)):
                            room = {
                                "label": rng.choice(LABELS),
                                "sensor": [
                                    float(rng.randint(0, 99))
                                    for _ in range(rng.randint(0, 4))
                                ],
                            }
                            draw = rng.random()
                            if draw < 0.08:
                                pass  # no owner at all
                            elif draw < 0.16:
                                stray += 1
                                room["owner"] = _pid(stray)
                            else:
                                idx = next(next_owner, None)
                                if idx is None:
                                    stray += 1
                                    idx = stray
                                room["owner"] = _pid(idx)
                            rooms.append(room)
                        floors.append({"level": float(fl), "Room": rooms})
                    buildings.append({"tag": rng.choice(TAGS), "Floor": floors})
                sites.append({"city": rng.choice(CITIES), "Building": buildings})
            regions.append({"code": rng.choice(REGION_CODES), "Site": sites})
        doc = {"Region": regions}
        if rng.random() < 0.9:
            doc["name"] = f"org{i}"
        org_docs.append(doc)

    rows = []
    for i in range(n_people):
        row = {"PID": _pid(i), "balance": round(rng.uniform(0, 5000), 2)}
        if rng.random() < 0.9:
            row["credit_score"] = float(rng.randint(300, 849))
        if rng.random() < 0.9:
            row["segment"] = rng.choice(SEGMENTS)
        rows.append(row)

    vertices = {
        "Person": [
            {
                "id": _pid(i),
                "pid": _pid(i),
                "name": rng.choice(NAMES),
                "city": rng.choice(CITIES),
            }
            for i in range(n_person)
        ],
        "Message": [
            {"id": f"m{j}", "tag": rng.choice(MESSAGE_TAGS)} for j in range(n_message)
        ],
    }
    know = []
    like = []
    for i in range(n_person):
        for _ in range(rng.randint(0, 3)):
            know.append((_pid(i), _pid(rng.randrange(n_person))))
        for _ in range(rng.randint(0, 2)):
            like.append((_pid(i), f"m{rng.randrange(n_message)}"))
    graph = {"vertices": vertices, "edges": {"know": know, "like": like}}

    corpus = Corpus(seed=-1, preset="random")
    corpus.records = {"ads": ads_docs, "people": rows, "social": graph, "org": org_docs}
    return corpus


_STRING_COLUMNS = {
    "ads": {
        "ads.Email": [f"adv{i}@example.com" for i in range(6)],
        "ads.Campaign.WordSet.Word": WORDS[:8],
        "ads.Campaign.Clicks.Person": [_pid(i) for i in range(12)],
    },
    "org": {
        "org.name": [f"org{i}" for i in range(6)],
        "org.Region.code": REGION_CODES,
        "org.Region.Site.city": CITIES,
        "org.Region.Site.Building.tag": TAGS,
        "org.Region.Site.Building.Floor.Room.label": LABELS,
        "org.Region.Site.Building.Floor.Room.owner": [_pid(i) for i in range(12)],
    },
    "people": {
        "people.PID": [_pid(i) for i in range(12)],
        "people.segment": SEGMENTS,
    },
    "social": {
        "social.Person.pid": [_pid(i) for i in range(12)],
        "social.Person.name": NAMES,
        "social.Person.city": CITIES,
        "social.Person.like#.#Message.tag": MESSAGE_TAGS,
    },
}

_NUMBER_COLUMNS = {
    "ads": {},
    "org": {
        "org.Region.Site.Building.Floor.level": (0, 2),
        "org.Region.Site.Building.Floor.Room.sensor": (0, 99),
    },
    "people": {
        "people.credit_score": (300, 849),
        "people.balance": (0, 5000),
    },
    "social": {},
}

# chain columns require the matching declared hop list
_CHAIN_COLUMNS = {
    "social.Person.know#.#Person.name": ["social.Person.know#.#Person"],
    "social.Person.know#.#Person.city": ["social.Person.know#.#Person"],
    "social.Person.know#.#Person.like#.#Message.tag": ["social.Person.know#.#Person"],
    "social.Person.know#.#Person.know#.#Person.name": [
        "social.Person.know#.#Person",
        "social.Person.know#.#Person.know#.#Person",
    ],
}

# fetch sites plus the shallower columns each one determines
_FETCH_CHAINS = {
    "ads": [
        ["ads.Email"],
        ["ads.Campaign.WordSet.Word", "ads.Email"],
        ["ads.Campaign.Clicks.Person", "ads.Email"],
    ],
    "org": [
        ["org.name"],
        ["org.Region.code", "org.name"],
        ["org.Region.Site.city", "org.Region.code"],
        ["org.Region.Site.Building.Floor.Room.label", "org.Region.Site.city"],
        ["org.Region.Site.Building.Floor.Room.sensor", "org.Region.Site.Building.Floor.Room.label", "org.Region.code"],
        ["org.Region.Site.Building.Floor.Room.owner"],
    ],
    "people": [
        ["people.PID", "people.credit_score"],
        ["people.balance"],
        ["people.segment", "people.PID"],
    ],
    "social": [
        ["social.Person.name", "social.Person.city"],
        ["social.Person.pid"],
        ["social.Person.like#.#Message.tag"],
    ],
}

# multivalued_left joins never fetch across: many click entries share a
# person, so a guest row does not name a single host instance
_JOINS = {
    ("ads", "people"): {
        "left": "ads.Campaign.Clicks.Person",
        "right": "people.PID",
        "multivalued_left": True,
    },
    ("org", "people"): {"left": "org.Region.Site.Building.Floor.Room.owner", "right": "people.PID"},
    ("social", "people"): {"left": "social.Person.pid", "right": "people.PID"},
    ("org", "social"): {"left": "org.Region.Site.Building.Floor.Room.owner", "right": "social.Person.pid"},
}

_STRING_OPS = ["=", "=", "!=", "in"]
_NUMBER_OPS = ["=", "!=", "<", "<=", ">", ">=", "in"]


def _random_filter(rng: random.Random, schema: str) -> dict:
    strings = _STRING_COLUMNS[schema]
    numbers = _NUMBER_COLUMNS[schema]
    chains = [p for p in _CHAIN_COLUMNS if p.split(".")[0] == schema]
    kind = rng.random()
    if chains and kind < 0.25:
        path = rng.choice(chains)
        pool = MESSAGE_TAGS if path.endswith("tag") else (NAMES if path.endswith("name") else CITIES)
        return {"path": path, "op": rng.choice(["=", "!="]), "value": rng.choice(pool)}
    if numbers and kind < 0.55:
        path, (lo, hi) = rng.choice(sorted(numbers.items()))
        op = rng.choice(_NUMBER_OPS)
        if op == "in":
            value = [float(rng.randint(lo, hi)) for _ in range(rng.randint(1, 3))]
        else:
            value = float(rng.randint(lo, hi))
        return {"path": path, "op": op, "value": value}
    path, pool = rng.choice(sorted(strings.items()))
    op = rng.choice(_STRING_OPS)
    miss = rng.random() < 0.15
    if op == "in":
        value = rng.sample(pool, rng.randint(1, min(3, len(pool))))
        if miss:
            value = value[:1] + ["zz"]
    else:
        value = "zz" if miss else rng.choice(pool)
    return {"path": path, "op": op, "value": value}


def random_query_doc(rng: random.Random) -> dict:
    """One random query document; may still be rejected by the parser."""
    choice = rng.random()
    if choice < 0.45:
        names = [rng.choice(FAMILY_NAMES)]
        join_specs = []
    elif choice < 0.9:
        pair = rng.choice(sorted(_JOINS))
        names = list(pair)
        join_specs = [_JOINS[pair]]
    else:
        names = ["org", "people", "social"]
        join_specs = [_JOINS[("org", "people")], _JOINS[("org", "social")]]

    joins = []
    fetch_across_ok = bool(join_specs)
    for spec in join_specs:
        multi = spec.get("multivalued_left", False)
        fetch_across_ok = fetch_across_ok and not multi
        unique = True if not multi else False
        if not multi and rng.random() < 0.25:
            unique = False
            fetch_across_ok = False
        joins.append({"left": spec["left"], "right": spec["right"], "unique": unique})

    filters = [_random_filter(rng, rng.choice(names)) for _ in range(rng.randint(0, 3))]

    graph_paths: list[list[str]] = []
    if "social" in names:
        needed = set()
        for f in filters:
            hops = _CHAIN_COLUMNS.get(f["path"])
            if hops:
                needed.add(tuple(hops))
        if needed or rng.random() < 0.2:
            if not needed:
                needed.add(("social.Person.know#.#Person",))
            # collapse prefix walks into the longest one, otherwise a short
            # chain filter would match two declared walks at once
            for hops in sorted(needed, key=len, reverse=True):
                if not any(tuple(m[: len(hops)]) == hops for m in graph_paths):
                    graph_paths.append(list(hops))

    fetch_schema = rng.choice(names)
    chain = list(rng.choice(_FETCH_CHAINS[fetch_schema]))
    fetch = chain[: rng.randint(1, len(chain))]
    if fetch_across_ok and rng.random() < 0.3:
        # fetching across unique joins: add a host column to a guest fetch
        host = names[0]
        if fetch_schema != host:
            fetch.append(_FETCH_CHAINS[host][0][0])

    doc: dict = {"from": names, "filters": filters, "fetch": fetch}
    if joins:
        doc["joins"] = joins
    if graph_paths:
        doc["graph_paths"] = graph_paths
    return doc
