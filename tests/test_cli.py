"""End-to-end runs of the ``quest`` command line."""

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
import zlib
from pathlib import Path

import pytest
from click.testing import CliRunner

import quest
from quest.bench import WORKLOAD
from quest.cli import main
from quest.store import (
    K_ARRAY_NUMBER,
    K_ARRAY_STRING,
    K_COUNTER,
    K_INDICATOR,
    K_NUMBER,
    K_STRING,
    read_column,
    write_column,
)

VIP_QUERY = json.dumps(
    {
        "from": "people",
        "filters": [{"path": "people.segment", "op": "=", "value": "vip"}],
        "fetch": ["people.PID"],
    }
)
WORD_QUERY = json.dumps(
    {
        "from": "ads",
        "filters": [{"path": "ads.Campaign.WordSet.Word", "op": "=", "value": "hotword"}],
        "fetch": ["ads.Email"],
    }
)


def invoke(*args, **kwargs):
    return CliRunner().invoke(main, [str(a) for a in args], **kwargs)


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    """One tiny store, generated and ingested through the CLI."""
    root = tmp_path_factory.mktemp("cli") / "store"
    for step in (
        ["gen", "--store", root, "--scale", "tiny", "--seed", "3"],
        ["ingest", "--store", root],
    ):
        result = invoke(*step)
        assert result.exit_code == 0, result.output
    return root


def _rows(result) -> list:
    return json.loads(result.stdout)["rows"]


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert invoke("gen", "--store", a, "--seed", "7").exit_code == 0
    assert invoke("gen", "--store", b, "--seed", "7").exit_code == 0
    files_a = sorted(p.name for p in (a / "raw").iterdir())
    assert files_a == sorted(p.name for p in (b / "raw").iterdir())
    for name in files_a:
        assert (a / "raw" / name).read_bytes() == (b / "raw" / name).read_bytes(), name


def test_gen_seed_changes_the_data(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    invoke("gen", "--store", a, "--seed", "1")
    invoke("gen", "--store", b, "--seed", "2")
    assert (a / "raw" / "people.csv").read_bytes() != (b / "raw" / "people.csv").read_bytes()


def test_gen_records_probe_metadata(tmp_path):
    root = tmp_path / "s"
    invoke("gen", "--store", root, "--high", "0.04", "--low", "0.12")
    meta = json.loads((root / "raw" / "gen.json").read_text())
    assert meta["high"] == 0.04
    probe = meta["probes"]["people.segment"]
    assert abs(probe["fraction"] - 0.04) < 0.01


def test_gen_rejects_unknown_scale(tmp_path):
    result = invoke("gen", "--store", tmp_path / "s", "--scale", "giant")
    assert result.exit_code == 2


def test_ingest_without_gen_is_a_data_error(tmp_path):
    result = invoke("ingest", "--store", tmp_path / "empty")
    assert result.exit_code == 3
    assert "gen.json" in result.stderr


def test_query_engine_matches_oracle(store_dir):
    engine = invoke("query", "--store", store_dir, VIP_QUERY)
    oracle = invoke("query", "--store", store_dir, "--oracle", VIP_QUERY)
    assert engine.exit_code == 0 and oracle.exit_code == 0
    assert sorted(map(tuple, _rows(engine))) == sorted(map(tuple, _rows(oracle)))
    assert _rows(engine)  # vip segment is planted, never empty


def test_query_no_skiptree_same_rows(store_dir):
    with_index = invoke("query", "--store", store_dir, WORD_QUERY)
    without = invoke("query", "--store", store_dir, "--no-skiptree", WORD_QUERY)
    assert sorted(map(tuple, _rows(with_index))) == sorted(map(tuple, _rows(without)))


def test_query_stats_sidecar_on_stderr(store_dir):
    result = invoke("query", "--store", store_dir, VIP_QUERY)
    stats = json.loads(result.stderr.strip().splitlines()[-1])
    assert stats["evaluator"] == "engine"
    assert stats["rows"] == len(_rows(result))
    assert stats["columns_read"] >= 1


# each one damages the `org/_skiptree/skiptree.json` stamp of a copied store
DAMAGED_INDEXES = {
    "manifest not json": lambda p: p.write_text("{nodes: }"),
    "manifest names an unknown node": lambda p: p.write_text(
        json.dumps({"format_version": 2, "nodes": {"Org.Nowhere": {}}})
    ),
    "older format": lambda p: p.write_text(json.dumps({"H": 3, "nodes": {}})),
}


def test_a_query_ignores_any_skiptree_directory(store_dir, tmp_path):
    """`quest query` builds each index from the store's arrays: stamps
    that an older quest or the benchmark left, damaged or not, change
    neither the answer nor the counters, and nothing under them is opened."""
    from quest.skiptree import build_skip_tree, load_skiptree, write_skiptree
    from quest.store import StoreError, open_store

    assert sorted(main.commands) == ["bench", "explain", "gen", "ingest", "query"]
    doc = json.dumps(next(wq.doc for wq in WORKLOAD if wq.name.startswith("Q09")))

    def answer(store) -> tuple[bytes, dict]:
        result = invoke("query", "--store", store, doc)
        assert result.exit_code == 0, result.output
        stats = json.loads(result.stderr.strip().splitlines()[-1])
        del stats["wall_time"]
        return result.stdout_bytes, stats

    want = answer(store_dir)
    assert "skiptree_built" not in want[1] and want[1]["skiptree"] is True
    for case in ["stamped", *DAMAGED_INDEXES]:
        copy = tmp_path / case
        shutil.copytree(store_dir, copy)
        stamped = open_store(copy)
        for name in stamped.datasets:
            write_skiptree(build_skip_tree(stamped.data(name)), copy, stamped.schema(name))
        if case in DAMAGED_INDEXES:
            DAMAGED_INDEXES[case](copy / "org" / "_skiptree" / "skiptree.json")
            with pytest.raises(StoreError, match="unusable skip index stamp"):
                load_skiptree(open_store(copy), "org")
        assert answer(copy) == want, case
    # a fresh process running the query opens the manifest, but no stamp
    probe = (
        "import sys\nopened = []\n"
        "sys.addaudithook(lambda event, args: event == 'open' and opened.append(str(args[0])))\n"
        + _cli_code("query", "--store", copy, doc)
        + "\nimport json\nprint(json.dumps(opened))"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=_child_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    opened = json.loads(done.stdout.strip().splitlines()[-1])
    assert str(copy / "manifest.json") in opened
    assert [path for path in opened if "_skiptree" in path] == []


def _drop_campaign_cardinality(ads: dict) -> None:
    del ads["cardinalities"]["Advertiser.Campaign"]


def _add_to_count(doc: dict, key: str, amount: int) -> None:
    doc[key] += amount


def _word_stats(ads: dict) -> dict:
    return ads["nodes"]["Advertiser.Campaign.WordSet.Word"]["stats"]


# each one edits the `ads` entry of a copied store's manifest.json
BAD_CARDINALITIES = {
    "missing cardinality": (_drop_campaign_cardinality, "no cardinality for Advertiser.Campaign"),
    "unknown cardinality": (lambda ads: ads["cardinalities"].update({"Nowhere": 1}), "unknown node Nowhere"),
    "unknown node": (lambda ads: ads["nodes"].update({"Nowhere": {}}), "unknown node Nowhere"),
    "negative root cardinality": (
        lambda ads: ads["cardinalities"].update({"Advertiser": -1}), "'Advertiser' is -1, a negative count"
    ),
    "negative leaf cardinality": (
        lambda ads: ads["cardinalities"].update({"Advertiser.Campaign.WordSet.Word": -5}), "is -5, a negative count"
    ),
    "negative file cardinality": (
        lambda ads: ads["nodes"]["Advertiser.Campaign.WordSet.Word"].update({"cardinality": -5}),
        "'cardinality' is -5, a negative count",
    ),
    "negative stats cardinality": (
        lambda ads: _word_stats(ads).update({"cardinality": -1}), "stats: 'cardinality' is -1, a negative count"
    ),
    "negative stats distinct": (
        lambda ads: _word_stats(ads).update({"distinct": -1}), "stats: 'distinct' is -1, a negative count"
    ),
    # a count the files disagree with shows only once they are read
    "one root instance too many": (
        lambda ads: _add_to_count(ads["cardinalities"], "Advertiser", 1),
        "manifest.json disagrees with the column files",
    ),
    "one word set too many": (
        lambda ads: _add_to_count(ads["cardinalities"], "Advertiser.Campaign.WordSet", 1),
        "manifest.json disagrees with the column files",
    ),
}
# `explain` reads no column file, so it plans from these counts
SEEN_BY_READING = {"one root instance too many", "one word set too many"}


@pytest.mark.parametrize("case", list(BAD_CARDINALITIES))
def test_a_manifest_must_name_exactly_its_schemas_nodes(store_dir, tmp_path, case):
    copy = tmp_path / "store"
    shutil.copytree(store_dir, copy)
    edit, message = BAD_CARDINALITIES[case]
    manifest = json.loads((copy / "manifest.json").read_text())
    edit(manifest["schemas"]["ads"])
    (copy / "manifest.json").write_text(json.dumps(manifest))
    for args in (["query"], ["query", "--no-skiptree"], ["explain"]):
        result = invoke(*args, "--store", copy, WORD_QUERY)
        if args == ["explain"] and case in SEEN_BY_READING:
            assert result.exit_code == 0, result.output
            continue
        assert result.exit_code == 3, (args, result.output)
        assert message in result.stderr and "quest ingest" in result.stderr, (args, result.stderr)


def test_reingest_drops_the_stale_index(tmp_path):
    root = tmp_path / "store"
    for step in (
        ["gen", "--store", root, "--scale", "tiny", "--seed", "3"],
        ["ingest", "--store", root],
        ["gen", "--store", root, "--scale", "small", "--seed", "3"],
        ["ingest", "--store", root],
    ):
        result = invoke(*step)
        assert result.exit_code == 0, result.output
    # the index is composed from the new arrays
    deep = json.dumps(next(q.doc for q in WORKLOAD if q.name.startswith("Q09")))
    engine = invoke("query", "--store", root, deep)
    assert engine.exit_code == 0, engine.output
    oracle = invoke("query", "--store", root, "--oracle", deep)
    assert sorted(map(tuple, _rows(engine))) == sorted(map(tuple, _rows(oracle)))
    assert _rows(engine)


def _child_env() -> dict:
    """The environment of a fresh interpreter that imports this quest."""
    src = str(Path(quest.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _imported(code: str, module: str = "scipy") -> bool:
    """Run `code` in a fresh interpreter; report whether it imported `module`."""
    probe = code + f"\nimport sys\nprint({module!r} in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=_child_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1] == "True"


def _cli_code(*args) -> str:
    return (
        "from quest.cli import main\n"
        f"try:\n    main({[str(a) for a in args]!r})\n"
        "except SystemExit as exc:\n    assert not exc.code, exc.code"
    )


def test_no_quest_command_imports_scipy(store_dir, tmp_path):
    assert not _imported("import quest.cli")
    assert not _imported(_cli_code("query", "--store", store_dir, WORD_QUERY))
    assert not _imported(_cli_code("query", "--store", store_dir, "--no-skiptree", WORD_QUERY))
    copy = tmp_path / "store"
    shutil.copytree(store_dir, copy)
    assert not _imported(_cli_code("ingest", "--store", copy))
    assert not _imported(_cli_code("query", "--store", copy, WORD_QUERY))
    # the probe does see a module that quest imports
    assert _imported("import quest.cli", "numpy")


def test_cli_import_leaves_bench_and_datagen_out(store_dir, tmp_path):
    for module in ("quest.bench", "quest.datagen", "quest.oracle", "quest.ingest", "logging", "dataclasses", "csv"):
        assert not _imported("import quest.cli", module), module
    # a query imports neither the oracle nor the ingest code, nor what
    # only the other formats and commands use
    for module in ("quest.oracle", "quest.ingest", "logging", "dataclasses", "csv"):
        assert not _imported(_cli_code("query", "--store", store_dir, "--format", "json", WORD_QUERY), module), module
    assert _imported(_cli_code("query", "--store", store_dir, "--format", "csv", WORD_QUERY), "csv")
    assert _imported(_cli_code("gen", "--store", tmp_path / "gen", "--scale", "tiny"), "csv")
    # the probe does see them where a command needs them
    assert _imported("import quest.cli, quest.datagen", "quest.datagen")
    assert _imported(_cli_code("query", "--store", store_dir, "--oracle", WORD_QUERY), "quest.oracle")
    # the package still offers them, imported on first use
    assert _imported("from quest import oracle_query, ingest_json", "quest.ingest")
    assert _imported("from quest.store import ingest_csv", "quest.ingest")


def test_every_exported_name_resolves():
    # the lazily imported `ingest_*` and `oracle_*` names included
    assert [name for name in quest.__all__ if not hasattr(quest, name)] == []


def test_a_corrupt_column_fails_only_the_queries_that_read_it(store_dir, tmp_path):
    copy = tmp_path / "store"
    shutil.copytree(store_dir, copy)
    target = copy / "people" / "people.segment.col"
    raw = bytearray(target.read_bytes())
    raw[20] ^= 0xFF
    target.write_bytes(bytes(raw))
    q01 = json.dumps(WORKLOAD[0].doc)
    assert WORKLOAD[0].name.startswith("Q01")
    for args in ([], ["--no-skiptree"], ["--oracle"]):
        result = invoke("query", "--store", copy, *args, q01)
        assert result.exit_code == 3, result.output
        assert "checksum" in result.stderr
    assert invoke("query", "--store", copy, WORD_QUERY).exit_code == 0
    assert invoke("explain", "--store", copy, q01).exit_code == 0


def test_query_stdout_matches_recorded_digests(store_dir):
    """Every format writes the bytes it wrote when rows were copied to
    lists before `json.dumps`; the digests were recorded from that code
    on this module's store (`gen --scale tiny --seed 3`, ingest, index)."""
    want = json.loads((Path(__file__).parent / "data" / "query_stdout_sha256.json").read_text())
    got = {}
    for wq in WORKLOAD:
        for fmt in ("json", "ndjson", "csv"):
            result = invoke("query", "--store", store_dir, "--format", fmt, json.dumps(wq.doc))
            assert result.exit_code == 0, result.output
            got[f"{wq.name}/{fmt}"] = hashlib.sha256(result.stdout_bytes).hexdigest()
    assert got == want


def _quest(*args, **kwargs) -> subprocess.CompletedProcess:
    """`python -m quest.cli ARGS` in a fresh interpreter."""
    cmd = [sys.executable, "-m", "quest.cli", *map(str, args)]
    return subprocess.run(cmd, env=_child_env(), timeout=120, **kwargs)


class _Trickle(io.RawIOBase):
    """A raw stdout that takes at most 100 bytes of each write, as an
    unbuffered stdout (``PYTHONUNBUFFERED=1``) on a pipe may take part of
    a large one."""

    def __init__(self):
        self.taken = bytearray()

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.taken += bytes(data[:100])
        return min(len(data), 100)


def test_a_quest_process_writes_every_byte_to_a_file_and_a_pipe(store_dir, tmp_path, monkeypatch):
    """The process ends with `os._exit` once stdout and stderr are
    flushed; the largest workload answer still arrives whole, also
    through a stdout that takes only part of each write."""
    want = json.loads((Path(__file__).parent / "data" / "query_stdout_sha256.json").read_text())
    largest = max(
        WORKLOAD, key=lambda wq: len(invoke("query", "--store", store_dir, json.dumps(wq.doc)).stdout_bytes)
    )
    for fmt in ("json", "ndjson", "csv"):
        args = ("query", "--store", store_dir, "--format", fmt, json.dumps(largest.doc))
        trickle = _Trickle()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(trickle, encoding="utf-8", write_through=True))
        with pytest.raises(SystemExit) as ended:
            main([str(a) for a in args])
        monkeypatch.undo()
        assert ended.value.code == 0
        assert hashlib.sha256(trickle.taken).hexdigest() == want[f"{largest.name}/{fmt}"], fmt
        piped = _quest(*args, capture_output=True)
        with open(tmp_path / "stdout", "wb") as out:
            filed = _quest(*args, stdout=out, stderr=subprocess.PIPE)
        for done, stdout in ((piped, piped.stdout), (filed, (tmp_path / "stdout").read_bytes())):
            assert done.returncode == 0, done.stderr
            assert hashlib.sha256(stdout).hexdigest() == want[f"{largest.name}/{fmt}"], fmt
            assert json.loads(done.stderr.splitlines()[-1])["rows"] > 0  # the sidecar arrives too


def test_a_quest_process_exits_with_each_documented_code(store_dir, tmp_path):
    cases = {
        2: (["query", "--store", store_dir, "--format", "xml", VIP_QUERY], "Invalid value for '--format'"),
        3: (["query", "--store", tmp_path / "nothing", VIP_QUERY], "no manifest.json"),
        4: (["query", "--store", store_dir, '{"from":"people","fetch":["people.nope"]}'], "unknown path"),
        5: (["query", "--store", store_dir, "--timeout", "1e-9", VIP_QUERY], "budget"),
    }
    for code, (args, message) in cases.items():
        done = _quest(*args, capture_output=True, text=True)
        assert done.returncode == code, (code, done.stderr)
        assert message in done.stderr and "Traceback" not in done.stderr, (code, done.stderr)


def test_an_unexpected_error_still_prints_a_traceback_and_exits_1(store_dir):
    code = (
        "import sys, quest.cli\n"
        "def broken_open(path):\n    raise RuntimeError('broken open')\n"
        "quest.cli.open_store = broken_open\n"
        f"sys.argv = ['quest', 'query', '--store', {str(store_dir)!r}, {VIP_QUERY!r}]\n"
        "quest.cli.run()\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 1
    assert "Traceback" in done.stderr and "RuntimeError: broken open" in done.stderr, done.stderr


def test_query_on_a_version_1_store_names_quest_ingest(store_dir, tmp_path):
    for version in (1, 2):  # 2 is the format before integer arrays took their narrowest width
        old = tmp_path / f"v{version}"
        shutil.copytree(store_dir, old)
        manifest = json.loads((old / "manifest.json").read_text())
        manifest["format_version"] = version
        (old / "manifest.json").write_text(json.dumps(manifest))
        for col in old.glob("*/*.col"):
            body = bytearray(col.read_bytes()[:-4])
            body[4:6] = version.to_bytes(2, "little")
            col.write_bytes(bytes(body) + zlib.crc32(bytes(body)).to_bytes(4, "little"))
        result = invoke("query", "--store", old, VIP_QUERY)
        assert result.exit_code == 3
        assert f"version {version}" in result.stderr and "quest ingest" in result.stderr


def _first_tag_at(kind: int, count: int) -> int:
    """Where a column file's payload holds its first tag: a link array's
    width tag, a leaf array's counter's (after the counter length), else
    the values' width or encoding tag (after the validity bitmap)."""
    if kind in (K_COUNTER, K_INDICATOR):
        return 0
    if kind in (K_ARRAY_NUMBER, K_ARRAY_STRING):
        return 8
    assert kind in (K_NUMBER, K_STRING), kind  # no generated family has a boolean
    return (count + 7) // 8


def _rewrite_payload(path, edit) -> None:
    """Write `edit(payload, kind, count)` back as a well-formed file: its
    header and CRC are right, so only the payload's decoding can fail."""
    kind, count, payload = read_column(path)
    write_column(path, kind, count, bytes(edit(bytearray(payload), kind, count)))


def _set_first_tag(payload: bytearray, kind: int, count: int) -> bytearray:
    payload[_first_tag_at(kind, count)] = 3
    return payload


def _flip_payload_byte(path) -> None:
    raw = bytearray(path.read_bytes())
    raw[15] ^= 0xFF  # the first payload byte, after the 15-byte header
    path.write_bytes(bytes(raw))


COLUMN_FILE_DAMAGE = {
    "deleted": lambda path: path.unlink(),
    "emptied": lambda path: path.write_bytes(b""),
    "last-byte-dropped": lambda path: path.write_bytes(path.read_bytes()[:-1]),
    "payload-byte-flipped": _flip_payload_byte,
    "first-tag-3": lambda path: _rewrite_payload(path, _set_first_tag),
    "payload-byte-short": lambda path: _rewrite_payload(path, lambda payload, *_: payload[:-1]),
    "payload-byte-long": lambda path: _rewrite_payload(path, lambda payload, *_: payload + b"\0"),
}

# one query per generated schema; a query's first use of a schema reads all its files
SCHEMA_QUERIES = {
    name: next(json.dumps(wq.doc) for wq in WORKLOAD if wq.doc["from"] == [name])
    for name in ("ads", "org", "people", "social")
}


def _assert_names_the_fix(result, name: str) -> None:
    assert result.exit_code == 3, (name, result.output)
    assert isinstance(result.exception, SystemExit), name  # an exit, not an uncaught error
    assert "Traceback" not in result.output
    assert name in result.stderr and "quest ingest" in result.stderr, result.stderr


@pytest.mark.parametrize("damage", sorted(COLUMN_FILE_DAMAGE))
def test_every_damaged_column_file_names_itself_and_quest_ingest(store_dir, tmp_path, damage):
    store = tmp_path / "store"
    shutil.copytree(store_dir, store)
    files = sorted(store.glob("*/*.col"))
    assert {path.parent.name for path in files} == set(SCHEMA_QUERIES)
    for path in files:
        good = path.read_bytes()
        COLUMN_FILE_DAMAGE[damage](path)
        for args in ([], ["--no-skiptree"]):
            result = invoke("query", "--store", store, *args, SCHEMA_QUERIES[path.parent.name])
            _assert_names_the_fix(result, path.relative_to(store).as_posix())
        path.write_bytes(good)


@pytest.mark.parametrize("text", ["", "{not json", "[]"], ids=["empty", "not-json", "not-an-object"])
def test_a_damaged_manifest_names_itself_and_quest_ingest(store_dir, tmp_path, text):
    store = tmp_path / "store"
    shutil.copytree(store_dir, store)
    (store / "manifest.json").write_text(text)
    for args in ([], ["--no-skiptree"]):
        _assert_names_the_fix(invoke("query", "--store", store, *args, VIP_QUERY), "manifest.json")


WORD_NODE = ("schemas", "ads", "nodes", "Advertiser.Campaign.WordSet.Word")
ADS_ROOT = ("schemas", "ads", "manifest", "root")
PERSON_CHILDREN = ("schemas", "social", "manifest", "root", "children")
# a key path to one of every kind of key `write_store` writes into
# manifest.json, the `ads` schema standing for every schema
MANIFEST_KEYS = [
    ("format_version",),
    ("block_size",),
    ("metadata_unit",),
    ("schemas",),
    ("schemas", "ads", "manifest"),
    ("schemas", "ads", "cardinalities"),
    ("schemas", "ads", "nodes"),
    ("schemas", "ads", "cardinalities", "Advertiser.Campaign"),
    WORD_NODE,
    *(WORD_NODE + (key,) for key in ("file", "kind_code", "cardinality", "stats")),
    *(WORD_NODE + ("stats", key) for key in ("cardinality", "unit_size", "distinct", "min", "max", "mcv", "bounds")),
    ("schemas", "ads", "manifest", "name"),
    ("schemas", "ads", "manifest", "model"),
    ADS_ROOT,
    *(ADS_ROOT + (key,) for key in ("name", "kind", "children")),
    ADS_ROOT + ("children", 0, "primitive"),  # Advertiser.Email
    PERSON_CHILDREN + (3, "children", 0, "target"),  # Person.know#.#Person
    PERSON_CHILDREN + (4, "children", 0, "link"),  # Person.like#.#Message
]
# keys `write_store` may leave out: a node without statistics, a schema of the default model
OPTIONAL_KEYS = {WORD_NODE + ("stats",), ("schemas", "ads", "manifest", "model")}


def _other_type(value):
    """A JSON value of another type than `value`."""
    return {"was": value} if isinstance(value, list) else [value]


def _manifest_damage() -> dict:
    cases = {}
    for path in MANIFEST_KEYS:
        label = "/".join(map(str, path))
        if path not in OPTIONAL_KEYS:
            cases[f"drop {label}"] = (path, None)
        cases[f"retype {label}"] = (path, _other_type)
    # the faults seen before the manifest was checked at open
    cases["block_size a string"] = (("block_size",), lambda value: str(value))
    cases["stats a number"] = (WORD_NODE + ("stats",), lambda value: 7)
    cases["cardinality a string"] = (("schemas", "ads", "cardinalities", "Advertiser.Campaign"), lambda value: "x")
    cases["block_size not a power of two"] = (("block_size",), lambda value: value - 1)
    cases["metadata_unit not 8"] = (("metadata_unit",), lambda value: -value)
    cases["mcv key not JSON"] = (WORD_NODE + ("stats", "mcv"), lambda value: {"not json": 0.5})
    cases["schema renamed"] = (("schemas", "ads", "manifest", "name"), lambda value: "sda")
    cases["mcv fraction a string"] = (WORD_NODE + ("stats", "mcv"), lambda value: dict.fromkeys(value, "x"))
    cases["bounds entry a string"] = (
        ("schemas", "people", "nodes", "people.credit_score", "stats", "bounds"), lambda value: ["x", *value[1:]]
    )
    return cases


MANIFEST_DAMAGE = _manifest_damage()


def _edit_manifest(store, path: tuple, change) -> None:
    """Drop the key at `path` (`change` None) or replace its value with `change(value)`."""
    manifest = json.loads((store / "manifest.json").read_text())
    *parents, key = path
    doc = manifest
    for step in parents:
        doc = doc[step]
    if change is None:
        del doc[key]
    else:
        doc[key] = change(doc[key])
    (store / "manifest.json").write_text(json.dumps(manifest))


@pytest.fixture(scope="module")
def manifest_store(store_dir, tmp_path_factory):
    """A copy of the module's store whose manifest.json the tests edit."""
    copy = tmp_path_factory.mktemp("manifest") / "store"
    shutil.copytree(store_dir, copy)
    return copy


@pytest.mark.parametrize("case", list(MANIFEST_DAMAGE))
def test_every_damaged_manifest_key_names_the_manifest_and_quest_ingest(store_dir, manifest_store, case):
    good = (store_dir / "manifest.json").read_text()
    try:
        _edit_manifest(manifest_store, *MANIFEST_DAMAGE[case])
        for args in (["query"], ["query", "--no-skiptree"], ["explain"]):
            _assert_names_the_fix(invoke(*args, "--store", manifest_store, VIP_QUERY), "manifest.json")
    finally:
        (manifest_store / "manifest.json").write_text(good)


@pytest.mark.parametrize("path", sorted(OPTIONAL_KEYS), ids=lambda path: "/".join(path[1:]))
def test_a_manifest_without_an_optional_key_still_answers(store_dir, manifest_store, path):
    good = (store_dir / "manifest.json").read_text()
    want = _rows(invoke("query", "--store", store_dir, WORD_QUERY))
    try:
        _edit_manifest(manifest_store, path, None)
        result = invoke("query", "--store", manifest_store, WORD_QUERY)
        assert result.exit_code == 0, result.output
        assert _rows(result) == want
    finally:
        (manifest_store / "manifest.json").write_text(good)


def test_query_formats_agree(store_dir):
    base = _rows(invoke("query", "--store", store_dir, VIP_QUERY))
    nd = invoke("query", "--store", store_dir, "--format", "ndjson", VIP_QUERY)
    nd_rows = [json.loads(line) for line in nd.stdout.strip().splitlines()]
    assert nd_rows == base
    cs = invoke("query", "--store", store_dir, "--format", "csv", VIP_QUERY)
    lines = cs.stdout.strip().splitlines()
    assert lines[0] == "people.PID"
    assert len(lines) == len(base) + 1
    assert lines[1] == base[0][0]


def test_query_doc_from_file_and_stdin(store_dir, tmp_path):
    qfile = tmp_path / "q.json"
    qfile.write_text(VIP_QUERY)
    direct = _rows(invoke("query", "--store", store_dir, VIP_QUERY))
    from_file = _rows(invoke("query", "--store", store_dir, f"@{qfile}"))
    from_stdin = _rows(invoke("query", "--store", store_dir, "-", input=VIP_QUERY))
    assert direct == from_file == from_stdin


def test_query_exit_codes(store_dir, tmp_path):
    bad_path = invoke("query", "--store", store_dir, '{"from":"people","fetch":["people.nope"]}')
    assert bad_path.exit_code == 4
    missing = invoke("query", "--store", tmp_path / "nothing", VIP_QUERY)
    assert missing.exit_code == 3
    bad_json = invoke("query", "--store", store_dir, "{not json")
    assert bad_json.exit_code == 3


def test_query_timeout_exit(store_dir):
    result = invoke("query", "--store", store_dir, "--timeout", "1e-9", VIP_QUERY)
    assert result.exit_code == 5
    assert "budget" in result.stderr


def test_query_timeout_counts_store_open(store_dir, monkeypatch):
    import quest.cli

    real_open = quest.cli.open_store

    def slow_open(path):
        time.sleep(0.3)
        return real_open(path)

    monkeypatch.setattr(quest.cli, "open_store", slow_open)
    result = invoke("query", "--store", store_dir, "--timeout", "0.2", VIP_QUERY)
    assert result.exit_code == 5
    sidecar = next(line for line in result.stderr.splitlines() if line.startswith("{"))
    assert json.loads(sidecar)["wall_time"] >= 0.3


def test_explain_prints_plan_without_rows(store_dir):
    result = invoke("explain", "--store", store_dir, WORD_QUERY)
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert {"order", "wandering", "stops", "cost"} <= set(doc)
    assert "rows" not in doc
    assert doc["calibrated"] is False
    assert doc["cost"]["total"] > 0


def test_bench_calibrate_feeds_explain(store_dir):
    cal = invoke("bench", "--store", store_dir, "--calibrate")
    assert cal.exit_code == 0, cal.output
    cal_path = Path(store_dir) / "calibration.json"
    assert cal_path.exists()
    try:
        result = invoke("explain", "--store", store_dir, WORD_QUERY)
        doc = json.loads(result.stdout)
        assert doc["calibrated"] is True
        # calibrated units are seconds, so the simplified term drops far
        # below the unit-count scale
        assert doc["cost"]["simplified"] < 1.0
    finally:
        cal_path.unlink()


def test_bench_writes_reports(store_dir, tmp_path):
    out = tmp_path / "reports"
    result = invoke("bench", "--store", store_dir, "--runs", "1", "--out", out)
    assert result.exit_code == 0, result.output
    report = json.loads((out / "bench_report.json").read_text())
    assert len(report["queries"]) == 11
    csv_lines = (out / "bench_report.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 1 + 11 * 2
    for q in report["queries"]:
        on, off = q["configs"]["skiptree_on"], q["configs"]["skiptree_off"]
        assert on["rows"] == off["rows"]
        assert on["metadata_reads"] <= off["metadata_reads"]
