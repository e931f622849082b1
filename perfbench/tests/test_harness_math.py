"""Tests of the benchmark harness's own arithmetic and wrappers."""

import json
import re
import threading
from pathlib import Path

import pytest

from perfbench import metrics, spans, wrap
from perfbench.run import WORKLOADS
from perfbench.spans import Span

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _span(sid, name, start, end, parent=None, thread=1):
    return Span(sid, name, start, end, parent, thread, "r")


def _children(span, spans_):
    return [s for s in spans_ if s.parent == span.id]


def test_self_time_nested_spans():
    outer = _span(1, "rates.fit", 0, 100)
    children = [_span(2, "posterior.factor", 10, 20, parent=1),
                _span(3, "runner.cell", 30, 60, parent=1),
                _span(4, "rng.draw", 35, 50, parent=3)]  # grandchild: already inside 3
    everything = [outer, *children]
    assert spans.self_time_ns(outer, _children(outer, everything)) == 100 - 10 - 30
    assert spans.self_time_ns(children[1], _children(children[1], everything)) == 30 - 15


def test_self_time_overlapping_worker_thread_spans():
    outer = _span(1, "runner.pipeline", 0, 100)
    workers = [_span(2, "runner.cell", 10, 50, parent=1, thread=2),
               _span(3, "runner.cell", 30, 70, parent=1, thread=3),
               _span(4, "runner.cell", 90, 120, parent=1, thread=2)]  # runs past the parent
    # covered: [10, 70] and [90, 100]
    assert spans.self_time_ns(outer, _children(outer, [outer, *workers])) == 100 - 60 - 10


def test_fit_self_time_subtracts_draws_and_factors_once():
    doc = {"spans": [], "counts": {"rates.replicates": 2}}
    for s in (_span(1, "runner.pipeline", 0, 120),
              _span(2, "rates.fit", 10, 110, parent=1),
              _span(3, "posterior.factor", 12, 20, parent=2),
              _span(4, "rng.draw", 30, 60, parent=1, thread=2),
              _span(5, "rng.draw", 40, 70, parent=1, thread=3)):
        doc["spans"].append(s.__dict__)
    out = metrics.layer_metrics(doc, workers=2, bytes_written=10, n_dim=4, mc=100)
    assert out["rates.fit_s"] == pytest.approx(100e-9)
    assert out["rates.fit_self_s"] == pytest.approx((100 - 8 - 40) * 1e-9)
    assert out["rng.draw_s"] == pytest.approx(60e-9)
    assert out["rates.flop"] == 2 * 4 * 4 * 100 * 2
    assert out["runner.worker_busy_frac"] == 0.0
    assert out["runner.bytes_written"] == 10


def test_worker_thread_spans_parent_to_open_root_span():
    rec = spans.Recorder("run-1")
    with rec.span("runner.pipeline", root=True) as root:
        with rec.span("rates.fit") as fit:
            worker = threading.Thread(target=_draw, args=(rec,))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
    by_name = {s.name: s for s in rec.spans}
    assert by_name["rates.fit"].parent == root
    assert by_name["rng.draw"].parent == root
    assert by_name["rng.draw"].thread != by_name["rates.fit"].thread
    assert fit != root and all(s.run == "run-1" for s in rec.spans)


def _draw(rec):
    with rec.span("rng.draw"):
        pass


def test_metric_names_are_well_formed():
    units = {**metrics.END_TO_END, **metrics.LAYERS,
             **{k: u for k, (u, _) in metrics.PIPELINE_TIMES.items()}}
    for name in [*units, *WORKLOADS]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.fullmatch(entry["name"]), entry["name"]
        assert units[entry["name"]] == entry["unit"], entry["name"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_wrappers_restore_every_binding_and_keep_output_bytes(tmp_path):
    from contraction_lab import emit_results, parse_config, run_experiment

    config = parse_config(json.dumps({
        "problem": {"n_dim": 12, "coupling": {"kind": "banded"}},
        "run": {"mc": 200, "y_replicates": 2, "k_max": 3}}))
    pipelines = ["rate-fit", "posterior", "smallball"]
    emit_results(run_experiment(config, pipelines=pipelines, workers=2), "csv", tmp_path / "plain")
    before = [(owner, attr, vars(owner)[attr]) for owner, attr in wrap.targets()]
    rec = spans.Recorder("test")
    saved = wrap.install(rec)
    try:
        assert all(vars(owner)[attr] is not orig for owner, attr, orig in before)
        with rec.span("runner.pipeline", root=True):
            record = run_experiment(config, pipelines=pipelines, workers=2)
            emit_results(record, "csv", tmp_path / "traced")
    finally:
        wrap.uninstall(saved)
    assert all(vars(owner)[attr] is orig for owner, attr, orig in before)
    names = {s.name for s in rec.spans}
    assert {"config.build_problem", "rates.fit", "rng.draw", "posterior.factor",
            "runner.cell", "spectral.cached_matrices", "assumptions.smallball"} <= names
    assert rec.counts["rates.replicates"] == 2 * len(config.run["n_grid"])
    for csv_path in (tmp_path / "plain").glob("*.csv"):
        assert (tmp_path / "traced" / csv_path.name).read_bytes() == csv_path.read_bytes()


def test_refuses_more_workers_than_cpus(monkeypatch, capsys):
    from perfbench import run

    monkeypatch.setattr(run.os, "sched_getaffinity", lambda pid: {0})
    assert run.main(["--workload", "ratefit-512-w2", "--seconds", "1"]) == 2
    assert "exceeds nproc=1" in capsys.readouterr().err
