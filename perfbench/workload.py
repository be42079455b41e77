"""Frozen query documents, workload membership, request order and answer digests."""

from __future__ import annotations

import json
import random
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent

# frozen copies of the 11 workload documents; the benchmark never reads
# quest.bench, so a change there cannot silently change what runs here
QUERIES: dict[str, dict] = {
    q["name"][:3]: q["doc"] for q in json.loads((HERE / "queries.json").read_text(encoding="utf-8"))
}

SINGLE_MODEL = ("Q01", "Q02", "Q03", "Q04", "Q05", "Q06", "Q09", "Q10")
JOINS = ("Q07", "Q08", "Q11")
DEEP = ("Q09", "Q10")

WORKLOADS = {
    "scan_warm": SINGLE_MODEL,
    "join_warm": JOINS,
    "cli_cold": SINGLE_MODEL,
}

PRESET = "small"

# an end-to-end run makes at least this many timed requests, so that the
# tail (ten samples beyond it) sits above the median: p60 at 25 requests
MIN_REQUESTS = 25


def request_order(seed: int, names):
    """Endless request names: rounds of seeded permutations of ``names``.

    Every round holds each query once, so the query mix stays balanced
    whatever the number of requests a run completes.
    """
    rng = random.Random(seed)
    while True:
        round_ = list(names)
        rng.shuffle(round_)
        yield from round_


def digest(rows) -> str:
    """Order-free digest of result rows: the row count and the sum of each row's CRC.

    Rows are tuples or lists of plain Python values (as JSON decodes them),
    so engine rows, oracle rows and the CLI's JSON rows digest alike; the
    digest does not depend on the process's hash seed.
    """
    total = sum(zlib.crc32(repr(tuple(row)).encode()) for row in rows)
    return f"{len(rows)}:{total}"
