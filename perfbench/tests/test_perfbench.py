"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
REPO = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, BENCH)

import harness  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_a_synthetic_span_tree():
    # main [0, 10] > load [1, 5] > upsert [2, 3], upsert [3, 4.5]; search [6, 9]
    spans = [
        ("cli.main", 0.0, 10.0, tracing.NO_PARENT, 1),
        ("index.load_store", 1.0, 5.0, 0, 1),
        ("index.Shard.upsert", 2.0, 3.0, 1, 1),
        ("index.Shard.upsert", 3.0, 4.5, 1, 1),
        ("index.search", 6.0, 9.0, 0, 1),
    ]
    busy, own, by_parent = tracing.self_times(spans)
    assert busy == {"cli.main": 10.0, "index.load_store": 4.0, "index.Shard.upsert": 2.5,
                    "index.search": 3.0}
    assert own == {"cli.main": 3.0, "index.load_store": 1.5, "index.Shard.upsert": 2.5,
                   "index.search": 3.0}
    assert by_parent[("index.Shard.upsert", "index.load_store")] == 2.5
    assert sum(own.values()) == pytest.approx(busy["cli.main"])


def test_tracer_records_nested_spans_and_undoes_its_wrappers():
    class Layer:
        @staticmethod
        def outer(x):
            return Layer.inner(x) + 1

        @staticmethod
        def inner(x):
            return x * 2

    tracer = tracing.Tracer(request_id=7)
    undo = [tracer.wrap(Layer, "outer", "outer"), tracer.wrap(Layer, "inner", "inner")]
    assert tracer.span("root", Layer.outer, 3) == 7
    for step in undo:
        step()
    names = [(name, parent, req) for name, _s, _e, parent, req in tracer.spans]
    assert names == [("root", -1, 7), ("outer", 0, 7), ("inner", 1, 7)]
    assert Layer.outer(3) == 7 and len(tracer.spans) == 3


def test_trace_totals_account_for_wall_time():
    totals = workloads.TraceTotals()
    spans = [("cli.main", 0.0, 4.0, -1, 1), ("index.load_store", 0.5, 3.5, 0, 1)]
    trace = {"spans": spans, "counts": {"index.load_store.docs_loaded": 10}, "gauges": {},
             "extra": {"main_start": 100.6, "main_end": 104.6}}
    # Spawned at 100.0, reaped at 105.1: 0.6 s start-up, 0.5 s exit, 0.1 s unaccounted.
    child = harness.Child(0, 5.2, 1.0, "", "", trace, spawned_at=100.0, reaped_at=105.1)
    totals.add_child(child, useful_docs=4)
    layers = totals.metrics()
    assert layers["cli.overhead_s"] == pytest.approx(1.1)
    assert layers["index.load_store.self_s"] == pytest.approx(3.0)
    assert layers["cli.main.self_s"] == pytest.approx(1.0)
    assert layers["trace.residual_s"] == pytest.approx(0.1)
    assert layers["index.load_store.useful_ratio"] == pytest.approx(0.4)


def test_wrong_answers_count_as_failures():
    out = workloads.Measured()
    op = workloads.Op("search.term", "frontend", "storm-frontend-*",
                      {"match_all": {}}, None, None, expected=["a", "b"])

    class Doc:
        def __init__(self, doc_id):
            self.id = doc_id

    assert out.check(op.kind, op.error([Doc("a"), Doc("b")]))
    assert not out.check(op.kind, op.error([Doc("a")]))
    child = harness.Child(0, 1.0, 1.0, json.dumps(
        {"shipped": 2, "indexed": 2, "dead_letters": 0, "dropped": 0}), "")
    lines = ["x\n", "2024-03-01T00:00:00.000Z [r] DEBUG: internal.state\n"]
    assert not out.check("ingest", workloads.ingest_error(child, lines))
    crashed = harness.Child(3, 1.0, 1.0, "", "internal error")
    assert not out.check("ingest", workloads.ingest_error(crashed, []))
    assert (out.attempted, out.failed) == (4, 3)


def test_benchmark_json_matches_the_metrics_the_code_prints():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    probe = workloads.TraceTotals().metrics()
    assert set(probe) == {name for name, _unit in run.PER_LAYER}


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a corpus of a few thousand lines."""
    monkeypatch.setattr(workloads, "COLD_DURATION_S", 60)
    monkeypatch.setattr(workloads, "DAY_SECONDS", 120)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "MIN_INGESTS", 1)
    monkeypatch.setattr(workloads, "MIN_LIVE_BLOCKS", 1)
    monkeypatch.setattr(workloads, "MIN_SEARCH_BLOCKS", 1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_smoke_run_of_each_workload(tiny, tmp_path, name, traced):
    ctx = workloads.Context(REPO, str(tmp_path), seed=5, seconds=0, traced=traced)
    workloads.WORKLOADS[name](ctx)
    out = ctx.finish()
    assert out.attempted > 0 and out.failed == 0, out.errors
    assert 0 < out.probes and 0 < out.setup_scale and 0 < out.scale
    if traced:
        layers = out.layers.metrics()
        assert layers["trace.wall_s"] > 0
        assert abs(layers["trace.residual_s"]) <= 0.05 * layers["trace.wall_s"]
    else:
        metrics = run.end_to_end(out)
        assert set(metrics) == {name for name, _unit in run.END_TO_END}
        assert all(value > 0 for value in metrics.values())


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    assert run.main(["--workload", "ingest-cold"]) != 0
    assert capsys.readouterr().out == ""
