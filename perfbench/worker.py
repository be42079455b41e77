"""Child-process roles of the benchmark; each prints one JSON line.

    worker.py setup --raw DIR --store DIR [--open]
    worker.py check --store DIR --workload W [--layers]
    worker.py serve --store DIR --workload W --seed N --seconds S --expect FILE [--trace]

``setup`` ingests the raw files and builds the skip index,
SETUP_REPEATS times over in one process (with ``--open`` each time it
then opens the store and loads the index, as a warm server does).
``check`` computes the oracle digests and checks the engine's
index-off answers against them; with ``--layers`` it also runs the
traced layer pass over all 11 queries.  ``serve`` is the warm
closed-loop client.  Run with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import spans
from speed import Reference
from workload import DEEP, JOINS, MIN_REQUESTS, QUERIES, WORKLOADS, digest, request_order

from quest import datagen, engine, optimizer, query, skiptree, store
from quest.oracle import oracle_query

COUNTERS = ("columns_read", "metadata_reads", "bytes_read", "bitset_ops")
SETUP_REPEATS = 3
LAYER_REPS = 3
DEEP_REPS = 15  # the deep queries evaluate in ~2 ms; more reps steady the payoff ratio


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True))


# ---------------------------------------------------------------------------
# setup


def setup(raw: Path, store_dir: Path, warm: bool) -> list[dict]:
    """SETUP_REPEATS fresh set-ups of ``store_dir``; the last one stays."""
    out = []
    for _ in range(SETUP_REPEATS):
        if store_dir.exists():
            shutil.rmtree(store_dir)
        out.append(_setup_once(raw, store_dir, warm))
    return out


def _setup_once(raw: Path, store_dir: Path, warm: bool) -> dict:
    """Ingest and index (then open and load, if ``warm``); seconds per phase.

    Reference-loop samples are taken after each timed call, outside it.
    """
    meta = json.loads((raw / "gen.json").read_text(encoding="utf-8"))
    t = dict.fromkeys(("ingest_s", "write_s", "build_s", "skiptree_write_s"), 0.0)
    ref = Reference()

    def timed(phase, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - t0
        t[phase] = t.get(phase, 0.0) + elapsed
        ref.after(elapsed)
        return out

    st = store.Store()
    for name, entry in sorted(meta["files"].items()):
        schema = getattr(datagen, f"{name}_schema")()
        if entry["kind"] == "table":
            data = timed("ingest_s", store.ingest_csv, raw / entry["file"], schema)
        elif entry["kind"] == "documents":
            data = timed("ingest_s", store.ingest_json, raw / entry["file"], schema)
        else:
            vertex_files = {label: raw / f for label, f in entry["vertex_files"].items()}
            edge_files = {label: raw / f for label, f in entry["edge_files"].items()}
            data = timed("ingest_s", store.ingest_graph, vertex_files, edge_files, schema)
        st.add(data)
    timed("write_s", store.write_store, st, store_dir)
    for name in sorted(st.datasets):
        tree = timed("build_s", skiptree.build_skip_tree, st.data(name))
        timed("skiptree_write_s", skiptree.write_skiptree, tree, store_dir, st.schema(name))
    if warm:
        opened = timed("open_s", store.open_store, store_dir)
        for name in opened.datasets:
            timed("load_s", skiptree.load_skiptree, opened, name)
    t["setup_s"] = sum(t.values())
    t["setup_scaled_s"] = sum(ref.scaled())
    return t


# ---------------------------------------------------------------------------
# check and layer pass


def _open(store_dir: Path):
    st = store.open_store(store_dir)
    indexes = {name: skiptree.load_skiptree(st, name) for name in st.datasets}
    schemas = {name: st.schema(name) for name in st.datasets}
    return st, indexes, schemas


def _median_ms(seconds) -> float:
    return statistics.median(seconds) * 1e3


def _layer_pass(st, indexes, schemas, names, expected) -> dict:
    """Traced requests over all 11 queries, index on and off."""
    tracer = spans.Tracer()
    spans.install(tracer)
    rid = 0
    failed = attempted = 0
    on: dict[str, list[int]] = {}
    off: dict[str, list[int]] = {}
    stats = {}  # ResultSet.stats of each query's first index-on request
    for qname, doc in QUERIES.items():
        for _ in range(DEEP_REPS if qname in DEEP else LAYER_REPS):
            for with_index, ids in ((True, on), (False, off)):
                tracer.request(rid)
                q = query.parse_query(schemas, doc)
                plan = optimizer.plan_query(st, q)
                rs = engine.evaluate(st, q, plan=plan, indexes=indexes if with_index else None)
                attempted += 1
                if digest(rs.rows) != expected[qname]:
                    failed += 1
                    print(f"{qname}: rows differ from the oracle", file=sys.stderr)
                if with_index:
                    stats.setdefault(qname, rs.stats)
                ids.setdefault(qname, []).append(rid)
                rid += 1
    split = spans.request_split(tracer.spans)

    def seconds(rids, name):
        return [split[r]["time"].get(name, 0.0) for r in rids]

    out = {}
    for qname in QUERIES:
        out[f"optimizer.plan_ms.{qname}"] = _median_ms(seconds(on[qname], spans.PLAN))
        out[f"engine.evaluate_ms.{qname}"] = _median_ms(seconds(on[qname], spans.EVALUATE))
    # the deep queries run more reps, so take each query's median first
    out["engine.evaluate_noindex_ms"] = _median_ms(
        [statistics.median(seconds(off[qname], spans.EVALUATE)) for qname in names]
    )
    on_deep = sum(statistics.median(seconds(on[qname], spans.EVALUATE)) for qname in DEEP)
    off_deep = sum(statistics.median(seconds(off[qname], spans.EVALUATE)) for qname in DEEP)
    out["skiptree.payoff"] = off_deep / on_deep
    builds = [
        s[2] - s[1]
        for s in tracer.spans
        if s[0] == spans.JOIN_BUILD and s[4] in {r for qname in JOINS for r in on[qname]}
    ]
    out["engine.join_build_ms"] = _median_ms(builds)
    first = [on[qname][0] for qname in JOINS]
    out["engine.join_pairs"] = sum(split[r]["count"].get(spans.JOIN_BUILD, 0) for r in first)
    # exact per-pass counts: one index-on request of each workload query
    for k in COUNTERS:
        out[f"store.{k}"] = sum(stats[qname][k] for qname in names)
    first = [on[qname][0] for qname in names]
    values = sum(split[r]["count"].get(spans.SCAN, 0) for r in first)
    rows = sum(split[r]["count"].get(spans.EVALUATE, 0) for r in first)
    out["store.scan_calls"] = sum(split[r]["calls"].get(spans.SCAN, 0) for r in first)
    out["store.values_read"] = values
    out["delivery.deliver_calls"] = sum(split[r]["calls"].get(spans.DELIVER, 0) for r in first)
    out["engine.values_per_row"] = values / rows
    return {"metrics": out, "attempted": attempted, "failed": failed, "misnested": spans.misnested(tracer.spans)}


def check(store_dir: Path, workload: str, layers: bool) -> dict:
    """Oracle digests and the engine's checks against them."""
    names = WORKLOADS[workload]
    st, indexes, schemas = _open(store_dir)
    wanted = list(QUERIES) if layers else names
    expected = {}
    for qname in wanted:
        rows = oracle_query(st, query.parse_query(schemas, QUERIES[qname]))
        # through JSON, so numpy scalars digest as the plain values the CLI prints
        expected[qname] = digest(json.loads(json.dumps(rows, default=lambda v: v.item())))
    # index-on answers are checked on every timed request; the index-off
    # answers are checked once here
    failed = 0
    for qname in names:
        rs = engine.evaluate(st, query.parse_query(schemas, QUERIES[qname]))
        if digest(rs.rows) != expected[qname]:
            failed += 1
            print(f"{qname}: index-off rows differ from the oracle", file=sys.stderr)
    out = {"expected": expected, "attempted": len(names), "failed": failed, "metrics": {}}
    if layers:
        lp = _layer_pass(st, indexes, schemas, names, expected)
        out["metrics"] = lp["metrics"]
        out["attempted"] += lp["attempted"]
        out["failed"] += lp["failed"]
        out["misnested"] = lp["misnested"]
    return out


# ---------------------------------------------------------------------------
# warm closed-loop client


def _loop(st, indexes, schemas, order, expected, seconds, tracer=None, ref=None, round_len=1, min_requests=0):
    """Requests one at a time until ``seconds`` of serving time and
    ``min_requests`` requests have passed and the round of ``round_len``
    requests is complete, or ``order`` runs out; ``ref`` samples the
    machine's speed between requests."""
    latencies = []
    failed = 0
    busy = 0.0
    rid = 0
    while busy < seconds or rid < min_requests or rid % round_len:
        qname = next(order, None)
        if qname is None:
            break
        if tracer is not None:
            tracer.request(rid)
        rid += 1
        t0 = time.perf_counter()
        try:
            q = query.parse_query(schemas, QUERIES[qname])
            plan = optimizer.plan_query(st, q)
            rows = engine.evaluate(st, q, plan=plan, indexes=indexes).rows
        except Exception as exc:  # a failed request is counted, not fatal
            busy += time.perf_counter() - t0
            failed += 1
            print(f"{qname}: {exc!r}", file=sys.stderr)
            continue
        elapsed = time.perf_counter() - t0
        busy += elapsed
        latencies.append(elapsed)
        if ref is not None:
            ref.after(elapsed)
        if digest(rows) != expected[qname]:
            failed += 1
            print(f"{qname}: rows differ from the oracle", file=sys.stderr)
    return {"latencies": latencies, "failed": failed, "attempted": rid, "busy_s": busy}


def serve(store_dir: Path, workload: str, seed: int, seconds: float, expected: dict, trace: bool) -> dict:
    st, indexes, schemas = _open(store_dir)
    names = WORKLOADS[workload]
    order = request_order(seed, names)
    # warm-up: one request of each query, checked but not timed; the timed
    # loops run whole rounds, so every query is asked equally often
    warm = _loop(st, indexes, schemas, iter(names), expected, float("inf"))
    if not trace:
        ref = Reference()
        res = _loop(
            st, indexes, schemas, order, expected, seconds, ref=ref, round_len=len(names), min_requests=MIN_REQUESTS
        )
        res["scaled"] = ref.scaled()
        res["attempted"] += warm["attempted"]
        res["failed"] += warm["failed"]
        res["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return res
    plain = _loop(st, indexes, schemas, order, expected, seconds / 2, round_len=len(names))
    tracer = spans.Tracer()
    spans.install(tracer)
    traced = _loop(st, indexes, schemas, order, expected, seconds / 2, tracer=tracer, round_len=len(names))
    split = spans.request_split(tracer.spans)
    reqs = list(split.values())

    def med(name):
        return _median_ms([d["time"].get(name, 0.0) for d in reqs])

    metrics = {
        "query.parse_ms": med(spans.PARSE),
        "optimizer.plan_ms": med(spans.PLAN),
        "engine.evaluate_ms": med(spans.EVALUATE),
        "engine.self_ms": _median_ms([d["evaluate_self"] for d in reqs]),
        "delivery.deliver_ms": med(spans.DELIVER),
        "store.scan_ms": med(spans.SCAN),
        "trace.overhead_frac": 1.0 - (len(traced["latencies"]) / traced["busy_s"])
        / (len(plain["latencies"]) / plain["busy_s"]),
    }
    return {
        "metrics": metrics,
        "attempted": warm["attempted"] + plain["attempted"] + traced["attempted"],
        "failed": warm["failed"] + plain["failed"] + traced["failed"],
        "misnested": spans.misnested(tracer.spans),
    }


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    roles = ap.add_subparsers(dest="role", required=True)
    role_setup = roles.add_parser("setup")
    role_setup.add_argument("--raw", type=Path, required=True)
    role_setup.add_argument("--open", action="store_true")
    role_check = roles.add_parser("check")
    role_check.add_argument("--layers", action="store_true")
    role_serve = roles.add_parser("serve")
    role_serve.add_argument("--seed", type=int, required=True)
    role_serve.add_argument("--seconds", type=float, required=True)
    role_serve.add_argument("--expect", type=Path, required=True)
    role_serve.add_argument("--trace", action="store_true")
    for role in (role_setup, role_check, role_serve):
        role.add_argument("--store", type=Path, required=True)
    for role in (role_check, role_serve):
        role.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    if args.role == "setup":
        _emit({"repeats": setup(args.raw, args.store, args.open)})
    elif args.role == "check":
        _emit(check(args.store, args.workload, args.layers))
    else:
        expected = json.loads(args.expect.read_text(encoding="utf-8"))
        _emit(serve(args.store, args.workload, args.seed, args.seconds, expected, args.trace))


if __name__ == "__main__":
    main()
