"""``quest``: generate, load, query, and benchmark stores.

A store lives in one directory.  ``gen`` writes the raw inputs under
``<store>/raw/``, ``ingest`` turns them into the columnar layout at the
directory top level, and the remaining commands read the result.  A
query builds the skip index of each schema it touches from the store's
arrays (`skiptree.build_skip_tree`), so there is no index to build
beforehand, and none to go stale.

Exit codes: 0 ok, 2 usage, 3 data error, 4 constraint violation,
5 timeout.

``python -m quest.cli`` and the installed ``quest`` script run `main`
through `run`, which flushes stdout and stderr and then ends the process
with ``os._exit``: interpreter teardown (tens of milliseconds, most of it
numpy's) would do nothing for the answer, because every file a command
writes is closed before it returns and quest registers no ``atexit``
hook.  An exception other than ``SystemExit`` still takes the normal
path, a traceback and exit status 1.  `main` itself returns normally, so
it can be called in-process.
"""

from __future__ import annotations

import functools
import io
import json
import os
import sys
import time
from pathlib import Path

import click

from .engine import evaluate
from .errors import (
    DeliveryError,
    IngestError,
    PlanConstraintError,
    QueryError,
    SchemaError,
    StoreError,
)
from .optimizer import CostParams, explain_plan, plan_query
from .query import parse_query
from .skiptree import build_skip_tree
from .store import Store, open_store, write_store

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONSTRAINT = 4
EXIT_TIMEOUT = 5

def _fail(code: int, message) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guard(fn):
    """Map engine errors onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (QueryError, DeliveryError, PlanConstraintError) as exc:
            _fail(EXIT_CONSTRAINT, exc)
        except (SchemaError, IngestError, StoreError) as exc:
            _fail(EXIT_DATA, exc)
        except (OSError, ValueError) as exc:  # bad paths, bad JSON
            _fail(EXIT_DATA, exc)

    return wrapper


_store_option = click.option(
    "--store",
    "store_dir",
    required=True,
    type=click.Path(file_okay=False),
    help="store directory",
)


@click.group()
def main():
    """Embedded multi-model columnar query engine."""


# ---------------------------------------------------------------------------
# gen


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _write_raw(corpus, raw: Path) -> dict:
    """Serialize a `datagen.Corpus`'s records as the ingestable raw files."""
    import csv

    from . import datagen

    files: dict = {}

    table_cols = [c["name"] for c in datagen.PEOPLE_MANIFEST["root"]["children"]]
    with open(raw / "people.csv", "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(table_cols)
        for row in corpus.records["people"]:
            w.writerow([_cell(row.get(c)) for c in table_cols])
    files["people"] = {"kind": "table", "file": "people.csv"}

    for fam in ("ads", "org"):
        with open(raw / f"{fam}.ndjson", "w", encoding="utf-8") as fh:
            for doc in corpus.records[fam]:
                fh.write(json.dumps(doc, sort_keys=True) + "\n")
        files[fam] = {"kind": "documents", "file": f"{fam}.ndjson"}

    graph = corpus.records["social"]
    vertex_files: dict = {}
    prop_names = {v["label"]: [p["name"] for p in v["properties"]] for v in datagen.SOCIAL_VERTICES}
    for label, rows in graph["vertices"].items():
        fname = f"vertex_{label.lower()}.csv"
        with open(raw / fname, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", *prop_names[label]])
            for row in rows:
                w.writerow([_cell(row["id"]), *(_cell(row.get(p)) for p in prop_names[label])])
        vertex_files[label] = fname
    edge_files: dict = {}
    for label, recs in graph["edges"].items():
        fname = f"edge_{label.lower()}.csv"
        prop_cols = sorted({k for rec in recs if len(rec) > 2 for k in rec[2]})
        with open(raw / fname, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["src", "dst", *prop_cols])
            for rec in recs:
                props = rec[2] if len(rec) > 2 else {}
                w.writerow([_cell(rec[0]), _cell(rec[1]), *(_cell(props.get(p)) for p in prop_cols)])
        edge_files[label] = fname
    files["social"] = {"kind": "graph", "vertex_files": vertex_files, "edge_files": edge_files}
    return files


@main.command()
@_store_option
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--scale", default="tiny", show_default=True, help="preset size: tiny, small or medium")
@click.option("--high", default=0.05, show_default=True, type=float, help="rare probe-value fraction")
@click.option("--low", default=0.10, show_default=True, type=float, help="common probe-value fraction")
@_guard
def gen(store_dir, seed, scale, high, low):
    """Write deterministic raw inputs: a CSV table, NDJSON documents,
    and graph vertex/edge files."""
    from . import datagen  # imported here: other commands do not need it

    if scale not in datagen.PRESETS:
        raise click.BadParameter(f"{scale!r} is not one of {sorted(datagen.PRESETS)}", param_hint="'--scale'")
    corpus = datagen.generate(scale, seed=seed, high=high, low=low)
    raw = Path(store_dir) / "raw"
    raw.mkdir(parents=True, exist_ok=True)
    files = _write_raw(corpus, raw)
    meta = {
        "preset": scale,
        "seed": seed,
        "high": high,
        "low": low,
        "files": files,
        "probes": corpus.probes,
    }
    (raw / "gen.json").write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    click.echo(f"wrote {scale} raw data (seed {seed}) under {raw}")


# ---------------------------------------------------------------------------
# ingest


@main.command()
@_store_option
@_guard
def ingest(store_dir):
    """Load the raw files into the columnar store layout."""
    from . import datagen
    from .ingest import ingest_csv, ingest_graph, ingest_json  # imported here: queries do not need them

    family_schemas = {
        "ads": datagen.ads_schema,
        "org": datagen.org_schema,
        "people": datagen.people_schema,
        "social": datagen.social_schema,
    }
    raw = Path(store_dir) / "raw"
    meta_path = raw / "gen.json"
    if not meta_path.exists():
        raise StoreError(f"{raw}: no gen.json (run `quest gen` first)")
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    store = Store()
    for name, entry in sorted(meta["files"].items()):
        schema = family_schemas[name]()
        if entry["kind"] == "table":
            store.add(ingest_csv(raw / entry["file"], schema))
        elif entry["kind"] == "documents":
            store.add(ingest_json(raw / entry["file"], schema))
        else:
            vertex_files = {label: raw / f for label, f in entry["vertex_files"].items()}
            edge_files = {label: raw / f for label, f in entry["edge_files"].items()}
            store.add(ingest_graph(vertex_files, edge_files, schema))
    write_store(store, store_dir)
    click.echo(f"ingested {', '.join(sorted(store.datasets))} into {store_dir}")


# ---------------------------------------------------------------------------
# query / explain


def _read_doc(arg: str):
    if arg == "-":
        text = sys.stdin.read()
    elif arg.startswith("@"):
        text = Path(arg[1:]).read_text(encoding="utf-8")
    else:
        try:
            return json.loads(arg)
        except json.JSONDecodeError:
            p = Path(arg)
            if not p.exists():
                raise
            text = p.read_text(encoding="utf-8")
    return json.loads(text)


def _parse(store: Store, doc):
    schemas = {name: store.schema(name) for name in store.datasets}
    return parse_query(schemas, doc)


def _write_all(text: str) -> None:
    """Write every byte of `text` to stdout, or raise.  An unbuffered stdout's
    raw ``write`` may take only part, and its text layer would drop the rest."""
    out = sys.stdout.buffer
    left = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while left:
        n = out.write(left)
        if not n:  # None from a non-blocking stdout that is full
            raise OSError(f"stdout took no bytes, {len(left)} left to write")
        left = left[n:]
    out.flush()


def _emit_rows(columns: list[str], rows, fmt: str) -> None:
    if fmt == "json":
        # json writes a tuple as an array
        _write_all(json.dumps({"columns": columns, "rows": rows}) + "\n")
    elif fmt == "ndjson":
        _write_all("".join([json.dumps(r) + "\n" for r in rows]))
    else:
        import csv  # imported here: only this format and `gen` use it

        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(columns)
        for r in rows:
            w.writerow([_cell(v) for v in r])
        _write_all(buf.getvalue())


@main.command()
@_store_option
@click.option("--no-skiptree", is_flag=True, help="evaluate without the skip index")
@click.option("--oracle", "use_oracle", is_flag=True, help="answer with the reference evaluator")
@click.option(
    "--format",
    "fmt",
    default="json",
    show_default=True,
    type=click.Choice(["csv", "ndjson", "json"]),
)
@click.option(
    "--timeout",
    default=None,
    type=float,
    help="wall-clock budget in seconds, counted from command entry; "
    "interpreter start and imports are not included",
)
@click.argument("query_doc")
@_guard
def query(store_dir, no_skiptree, use_oracle, fmt, timeout, query_doc):
    """Run a query document (JSON literal, @FILE, or - for stdin).

    Rows go to stdout in the chosen format; a one-line stats sidecar
    goes to stderr.  ``wall_time`` and ``--timeout`` count from the
    moment the command is entered, so they include the store open and
    the parse."""
    start = time.perf_counter()
    doc = _read_doc(query_doc)
    store = open_store(store_dir)
    q = _parse(store, doc)
    columns = [f.path for f in q.fetch]
    if use_oracle:
        from .oracle import oracle_query  # imported here: the engine does not need it

        rows = oracle_query(store, q)
        stats = {"evaluator": "oracle"}
    else:
        indexes = None if no_skiptree else {name: build_skip_tree(store.data(name)) for name in q.schemas}
        result = evaluate(store, q, indexes=indexes)
        stats = {**result.stats, "evaluator": "engine", "skiptree": not no_skiptree}
        rows = result.rows
    elapsed = time.perf_counter() - start
    stats["wall_time"] = elapsed
    _emit_rows(columns, rows, fmt)
    click.echo(json.dumps({"rows": len(rows), **stats}, sort_keys=True), err=True)
    if timeout is not None and elapsed > timeout:
        _fail(EXIT_TIMEOUT, f"query took {elapsed:.3f}s, budget was {timeout:.3f}s")


@main.command()
@_store_option
@click.argument("query_doc")
@_guard
def explain(store_dir, query_doc):
    """Show the filter order, wandering, and cost terms without executing.

    Uses measured cost constants when ``bench --calibrate`` has written
    a calibration.json into the store."""
    doc = _read_doc(query_doc)
    store = open_store(store_dir)
    q = _parse(store, doc)
    params = None
    cal_path = Path(store_dir) / "calibration.json"
    if cal_path.exists():
        cal = json.loads(cal_path.read_text(encoding="utf-8"))
        params = CostParams.from_store(store, q.composite, a=cal["a"], bp=cal["bp"])
    seq = plan_query(store, q, params=params)
    out = explain_plan(q.composite, seq)
    out["calibrated"] = params is not None
    click.echo(json.dumps(out, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# bench


@main.command()
@_store_option
@click.option("--runs", default=5, show_default=True, type=int)
@click.option(
    "--timeout",
    default=300.0,
    show_default=True,
    type=float,
    help="per-query budget in seconds",
)
@click.option(
    "--out",
    "out_dir",
    default=None,
    type=click.Path(file_okay=False),
    help="report directory [default: the store]",
)
@click.option("--calibrate", "do_calibrate", is_flag=True, help="measure cost-model constants instead")
@_guard
def bench(store_dir, runs, timeout, out_dir, do_calibrate):
    """Run the benchmark workload with the skip index on and off."""
    from . import bench as bench_mod

    store = open_store(store_dir)
    out = Path(out_dir or store_dir)
    out.mkdir(parents=True, exist_ok=True)
    if do_calibrate:
        cal = bench_mod.calibrate(store)
        (out / "calibration.json").write_text(
            json.dumps(cal, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        click.echo(json.dumps({"a": cal["a"], "bp": cal["bp"]}, sort_keys=True))
        return
    report = bench_mod.run_workload(store, runs=runs, timeout=timeout)
    (out / "bench_report.json").write_text(bench_mod.report_json(report), encoding="utf-8")
    (out / "bench_report.csv").write_text(bench_mod.report_csv(report), encoding="utf-8")
    for q in report["queries"]:
        on = q["configs"]["skiptree_on"]
        off = q["configs"]["skiptree_off"]
        click.echo(
            f"{q['name']:<24} rows {on['rows']:>6}"
            f"  wall {on['wall_time'] * 1e3:9.3f} / {off['wall_time'] * 1e3:9.3f} ms"
            f"  meta {on['metadata_reads']:>5} / {off['metadata_reads']:>5}"
        )
    click.echo(f"report: {out / 'bench_report.json'}")
    if any(r["timed_out"] for q in report["queries"] for r in q["configs"].values()):
        _fail(EXIT_TIMEOUT, "at least one query exceeded its budget")


def run() -> None:
    """Run `main`, then end the process without interpreter teardown."""
    code = 0
    try:
        main()
    except SystemExit as exc:  # click ends every command with one
        code = exc.code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:  # the status the interpreter gives when its exit flush fails
        code = 120
    os._exit(code)


if __name__ == "__main__":
    run()
