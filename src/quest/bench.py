"""The 11-query benchmark workload and its timing harness.

The workload mixes the three models (R table, D document, G graph) at
the two planted selectivity levels, including the depth-7 document
shapes, joins between models, and one three-model query.  Every query
runs with the skip index on and off; counters come straight from the
store's instrumentation and timings are medians over repetitions.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from dataclasses import dataclass

from .engine import evaluate
from .optimizer import plan_query
from .query import parse_query
from .skiptree import build_skip_tree

DEFAULT_RUNS = 5
DEFAULT_TIMEOUT = 300.0


@dataclass(frozen=True)
class WorkloadQuery:
    name: str
    models: str  # which models the predicates touch: R, D, G, or a mix
    depth: int  # level of the deepest predicate, counting the root as 1
    level: str  # planted selectivity level of the probe values
    doc: dict


WORKLOAD = [
    WorkloadQuery(
        "Q01_table_point_high",
        "R",
        1,
        "high",
        {
            "from": ["people"],
            "filters": [{"path": "people.segment", "op": "=", "value": "vip"}],
            "fetch": ["people.PID"],
        },
    ),
    WorkloadQuery(
        "Q02_table_range",
        "R",
        1,
        "mid",
        {
            "from": ["people"],
            "filters": [
                {"path": "people.credit_score", "op": ">", "value": 700},
                {"path": "people.balance", "op": "<", "value": 2500},
            ],
            "fetch": ["people.PID"],
        },
    ),
    WorkloadQuery(
        "Q03_doc_word_high",
        "D",
        3,
        "high",
        {
            "from": ["ads"],
            "filters": [{"path": "ads.Campaign.WordSet.Word", "op": "=", "value": "hotword"}],
            "fetch": ["ads.Email"],
        },
    ),
    WorkloadQuery(
        "Q04_doc_word_low",
        "D",
        3,
        "low",
        {
            "from": ["ads"],
            "filters": [{"path": "ads.Campaign.WordSet.Word", "op": "=", "value": "warmword"}],
            "fetch": ["ads.Email"],
        },
    ),
    WorkloadQuery(
        "Q05_graph_vertex_high",
        "G",
        1,
        "high",
        {
            "from": ["social"],
            "filters": [{"path": "social.Person.city", "op": "=", "value": "hc"}],
            "fetch": ["social.Person.name"],
        },
    ),
    WorkloadQuery(
        "Q06_graph_chain_high",
        "G",
        2,
        "high",
        {
            "from": ["social"],
            "graph_paths": [["social.Person.know#.#Person"]],
            "filters": [
                {"path": "social.Person.know#.#Person.city", "op": "=", "value": "hc"}
            ],
            "fetch": ["social.Person.name"],
        },
    ),
    WorkloadQuery(
        "Q07_join_doc_table",
        "RD",
        3,
        "high",
        {
            "from": ["ads", "people"],
            "joins": [
                {"left": "ads.Campaign.Clicks.Person", "right": "people.PID", "unique": False}
            ],
            "filters": [
                {"path": "ads.Campaign.WordSet.Word", "op": "=", "value": "hotword"},
                {"path": "people.credit_score", "op": ">", "value": 700},
            ],
            "fetch": ["ads.Email"],
        },
    ),
    WorkloadQuery(
        "Q08_join_graph_table",
        "RG",
        1,
        "mid",
        {
            "from": ["social", "people"],
            "joins": [{"left": "social.Person.pid", "right": "people.PID", "unique": True}],
            "filters": [{"path": "people.credit_score", "op": ">", "value": 700}],
            "fetch": ["social.Person.name"],
        },
    ),
    WorkloadQuery(
        "Q09_deep_sensor_high",
        "D",
        7,
        "high",
        {
            "from": ["org"],
            "filters": [
                {
                    "path": "org.Region.Site.Building.Floor.Room.sensor",
                    "op": "=",
                    "value": 999.0,
                }
            ],
            "fetch": ["org.name"],
        },
    ),
    WorkloadQuery(
        "Q10_deep_sensor_low",
        "D",
        7,
        "low",
        {
            "from": ["org"],
            "filters": [
                {
                    "path": "org.Region.Site.Building.Floor.Room.sensor",
                    "op": "=",
                    "value": 555.0,
                }
            ],
            "fetch": ["org.name"],
        },
    ),
    WorkloadQuery(
        "Q11_three_model_deep",
        "RDG",
        7,
        "high",
        {
            "from": ["org", "people", "social"],
            "joins": [
                {
                    "left": "org.Region.Site.Building.Floor.Room.owner",
                    "right": "people.PID",
                    "unique": True,
                },
                {
                    "left": "org.Region.Site.Building.Floor.Room.owner",
                    "right": "social.Person.pid",
                    "unique": True,
                },
            ],
            "filters": [
                {"path": "people.segment", "op": "=", "value": "vip"},
                {"path": "social.Person.city", "op": "=", "value": "hc"},
                {
                    "path": "org.Region.Site.Building.Floor.Room.sensor",
                    "op": "=",
                    "value": 999.0,
                },
            ],
            "fetch": ["org.name"],
        },
    ),
]

# the deep-predicate document shapes; the three-model query is also
# depth 7 but its timing is dominated by join-index construction
DEEP_NAMES = tuple(q.name for q in WORKLOAD if q.depth >= 7 and q.models == "D")

_COUNTER_KEYS = ("columns_read", "metadata_reads", "bytes_read", "bitset_ops")


def time_query(
    store,
    query,
    configs: dict,
    runs: int = DEFAULT_RUNS,
    timeout: float = DEFAULT_TIMEOUT,
    plan=None,
) -> dict:
    """Time one query under each ``configs`` entry (name -> indexes).

    Counters come from one probe run per configuration, which also
    samples allocator peak via tracemalloc (too slow to leave on while
    timing).  The timed repetitions interleave the configurations,
    reversing their order every round, so a slow stretch of the host
    lands on all of them alike.  The timeout is a per-query soft budget
    checked between rounds.
    """
    out = {}
    for name, indexes in configs.items():
        tracemalloc.start()
        rs = evaluate(store, query, plan=plan, indexes=indexes)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        out[name] = {
            "rows": len(rs.rows),
            "peak_memory_estimate": int(peak),
            "wall_times": [],
            **{k: rs.stats[k] for k in _COUNTER_KEYS},
        }
    names = list(configs)
    timed_out = False
    started = time.perf_counter()
    for rep in range(runs):
        for name in names if rep % 2 == 0 else reversed(names):
            t0 = time.perf_counter()
            evaluate(store, query, plan=plan, indexes=configs[name])
            out[name]["wall_times"].append(time.perf_counter() - t0)
        if time.perf_counter() - started > timeout:
            timed_out = True
            break
    for r in out.values():
        r["timed_out"] = timed_out
        r["wall_time"] = statistics.median(r["wall_times"])
    return out


def run_workload(
    store,
    runs: int = DEFAULT_RUNS,
    timeout: float = DEFAULT_TIMEOUT,
    names: list[str] | None = None,
) -> dict:
    """Run the workload with the skip index on and off; returns the report.

    Each query is parsed and planned ``runs`` times, and ``parse_time``
    and ``plan_time`` are the medians; the first parse of a lone-schema
    query makes the composite tree every later one shares.  The last
    plan is shared by both configurations (the wandering does not depend
    on index presence), so the evaluate timings isolate delivery work
    from the parser and the planner.
    """
    schemas = {name: store.data(name).schema for name in store.datasets}
    indexes = {name: build_skip_tree(store.data(name)) for name in store.datasets}
    queries = WORKLOAD if names is None else [q for q in WORKLOAD if q.name in names]
    configs = {"skiptree_on": indexes, "skiptree_off": None}
    report = {"runs": runs, "timeout": timeout, "queries": []}
    for wq in queries:
        parse_times, plan_times = [], []
        for _ in range(max(runs, 1)):
            t0 = time.perf_counter()
            query = parse_query(schemas, wq.doc)
            t1 = time.perf_counter()
            plan = plan_query(store, query)
            plan_times.append(time.perf_counter() - t1)
            parse_times.append(t1 - t0)
        report["queries"].append(
            {
                "name": wq.name,
                "models": wq.models,
                "depth": wq.depth,
                "level": wq.level,
                "parse_time": statistics.median(parse_times),
                "plan_time": statistics.median(plan_times),
                "configs": time_query(store, query, configs, runs, timeout, plan=plan),
            }
        )
    return report


def report_csv(report: dict) -> str:
    cols = [
        "query",
        "models",
        "depth",
        "level",
        "config",
        "rows",
        "wall_time",
        "parse_time",
        "plan_time",
        "peak_memory_estimate",
        *_COUNTER_KEYS,
        "timed_out",
    ]
    lines = [",".join(cols)]
    for q in report["queries"]:
        for config, r in q["configs"].items():
            row = [
                q["name"],
                q["models"],
                str(q["depth"]),
                q["level"],
                config,
                str(r["rows"]),
                f"{r['wall_time']:.6f}",
                f"{q['parse_time']:.6f}",
                f"{q['plan_time']:.6f}",
                str(r["peak_memory_estimate"]),
                *(str(r[k]) for k in _COUNTER_KEYS),
                str(r["timed_out"]).lower(),
            ]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
