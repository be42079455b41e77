"""Workload definition and measurement plumbing."""

import json

import pytest

from quest import bench
from quest.datagen import generate


@pytest.fixture(scope="module")
def tiny_store():
    return generate("tiny", seed=11).store()


def test_workload_shape():
    names = [q.name for q in bench.WORKLOAD]
    assert len(names) == 11
    assert len(set(names)) == 11
    models = {q.models for q in bench.WORKLOAD}
    assert {"R", "D", "G"} <= models
    assert any("+" in m or len(m) > 1 for m in models)  # joins present


def test_deep_names_are_depth_seven_documents():
    assert bench.DEEP_NAMES
    by_name = {q.name: q for q in bench.WORKLOAD}
    for name in bench.DEEP_NAMES:
        assert by_name[name].depth >= 7
        assert by_name[name].models == "D"


def test_run_workload_subset(tiny_store):
    report = bench.run_workload(tiny_store, runs=1, names=["Q01_table_point_high", "Q09_deep_sensor_high"])
    assert [q["name"] for q in report["queries"]] == ["Q01_table_point_high", "Q09_deep_sensor_high"]
    for q in report["queries"]:
        assert set(q["configs"]) == {"skiptree_on", "skiptree_off"}
        on, off = q["configs"]["skiptree_on"], q["configs"]["skiptree_off"]
        assert on["rows"] == off["rows"]
        for r in (on, off):
            assert r["wall_time"] > 0
            assert r["peak_memory_estimate"] > 0
            assert not r["timed_out"]
        assert q["plan_time"] > 0 and q["parse_time"] > 0


def test_counters_are_deterministic(tiny_store):
    a = bench.run_workload(tiny_store, runs=1, names=["Q03_doc_word_high"])
    b = bench.run_workload(tiny_store, runs=1, names=["Q03_doc_word_high"])
    for key in bench._COUNTER_KEYS:
        for config in ("skiptree_on", "skiptree_off"):
            assert a["queries"][0]["configs"][config][key] == b["queries"][0]["configs"][config][key]


def test_report_csv_shape(tiny_store):
    report = bench.run_workload(tiny_store, runs=1, names=["Q05_graph_vertex_high"])
    text = bench.report_csv(report)
    lines = text.strip().split("\n")
    assert lines[0].startswith("query,models,depth,level,config,rows,wall_time")
    assert len(lines) == 3  # header + one query under two configs
    assert json.loads(bench.report_json(report))["runs"] == 1

