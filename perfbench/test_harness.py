"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402  (puts the checkout's src on sys.path)
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from approx_sense import cli  # noqa: E402


def _span(sid, name, start, end, parent, thread, folded=None):
    return spans.Span(sid, name, start, end, parent, "op", thread, folded or {})


def test_self_time_splits_concurrent_leaves_across_two_threads():
    tree = [
        _span(1, "cli.main", 0.0, 10.0, None, 1),
        _span(2, "validation.suite", 1.0, 9.0, 1, 1, {"core.loss_values": [5, 0.5]}),
        _span(3, "validation.trial", 2.0, 6.0, 2, 2),
        _span(4, "validation.trial", 3.0, 8.0, 2, 3, {"core.transform_weights": [10, 1.0]}),
        _span(5, "radgeom.mc", 4.0, 5.0, 3, 2),
    ]
    got = spans.self_times(tree)
    # suite runs alone for 2 s; trial 4 holds 3.5 s of the 5 s it is open, so
    # its folded second counts 0.7 s
    assert got["cli.main"] == [1, pytest.approx(2.0)]
    assert got["validation.suite"] == [1, pytest.approx(1.5)]
    assert got["core.loss_values"] == [5, pytest.approx(0.5)]
    assert got["validation.trial"] == [2, pytest.approx(2.0 + 2.8)]
    assert got["core.transform_weights"] == [10, pytest.approx(0.7)]
    assert got["radgeom.mc"] == [1, pytest.approx(0.5)]
    assert sum(busy for _, busy in got.values()) == pytest.approx(10.0)


def _run_op(op, out: Path) -> int:
    return cli.main(list(op.argv) + ["--out", str(out)])


def _shrink(op, points: int):
    config = op.check["config"]
    config["learner"]["domain"]["points_per_axis"] = points
    Path(op.argv[2]).write_text(json.dumps(config), encoding="utf-8")
    return op


def test_gate_rejects_perturbed_train_outputs(tmp_path):
    grid_op = _shrink(workloads.build("train_grid", 3, tmp_path / "in")[0], 21)
    descent_op = workloads.build("train_descent", 3, tmp_path / "in")[2]
    for op in (grid_op, descent_op):
        out = tmp_path / op.name
        assert _run_op(op, out) == 0
        assert gate.check(op, out) == []
        train = out / "train.json"
        payload = json.loads(train.read_text())
        payload["objective_value"] += 1e-9
        train.write_text(json.dumps(payload))
        assert gate.check(op, out), op.name

    # a grid point that is not the minimiser
    out = tmp_path / grid_op.name
    payload = json.loads((out / "train.json").read_text())
    payload["weights"] = [1.0, 1.0] if payload["weights"] != [1.0, 1.0] else [-1.0, -1.0]
    (out / "train.json").write_text(json.dumps(payload))
    assert any("minimum" in p for p in gate.check(grid_op, out))


def test_gate_rejects_wrong_rademacher_value(tmp_path):
    points = tmp_path / "points.csv"
    rows = [[0.1 * ((i * 7 + j * 3) % 11) for j in range(10)] for i in range(8)]
    points.write_text("\n".join([",".join(f"x{j}" for j in range(10))]
                                + [",".join(map(str, r)) for r in rows]) + "\n")
    exact = workloads.Op("exact", ("rademacher", "--pointset", str(points)),
                         {"gate": "rad_exact", "m": 10})
    mc = workloads.Op("mc", ("rademacher", "--pointset", str(points), "--method", "mc",
                             "--n-sigma", "20000", "--seed", "4"), {"gate": "rad_mc", "m": 10})
    for op in (exact, mc):
        assert _run_op(op, tmp_path / "out" / op.name) == 0
    assert gate.check_pass([exact, mc], tmp_path / "out") == {"exact": [], "mc": []}

    path = tmp_path / "out" / "exact" / "rademacher.json"
    payload = json.loads(path.read_text())
    mc_payload = json.loads((tmp_path / "out" / "mc" / "rademacher.json").read_text())
    payload["value"] = mc_payload["value"] + 5.0 * mc_payload["standard_error"]
    path.write_text(json.dumps(payload))
    assert gate.check_pass([exact, mc], tmp_path / "out")["mc"]


def test_traced_and_untraced_passes_write_identical_outputs(tmp_path):
    grid = workloads.build("train_grid", 5, tmp_path / "grid")
    ops = [_shrink(grid[0], 21), _shrink(grid[5], 11)]  # lambda_erm and srm
    ops += [op for op in workloads.build("oracles", 5, tmp_path / "oracles")
            if op.name in ("rad_exact_m18", "rad_geometry_clustered", "sensitivity_empirical",
                           "bound_joint", "validate_crude_sandwich")]
    ops.append(workloads.Op("prop4", ("validate", "--suite", "prop4", "--trials", "4",
                                      "--seed", "2", "--threads", "2"), {"gate": "validate"}))
    plain = worker.run_pass(cli.main, ops, tmp_path / "plain")
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        traced = worker.run_pass(cli.main, ops, tmp_path / "traced", tracer)
    finally:
        tracer.uninstall()
    assert [r.rc for r in plain.ops] == [0] * len(ops)
    assert [r.digest for r in traced.ops] == [r.digest for r in plain.ops]
    assert tracer.unattributed == 0
    metrics, worst, layers = worker.layer_metrics(spans, tracer.spans, [op.name for op in ops])
    assert worst < 1e-9
    assert metrics["validation.trials"] == 4 + 50
    assert metrics["learners.search.calls"] == 2 + 4
    assert 0 < metrics["learners.distinct_qw_ratio"] < 1
    assert 0 < metrics["learners.distinct_qw_per_w"] < 0.5  # grids collapse to 25 Q(w)
    assert cli.main.__module__ == "approx_sense.cli" and not hasattr(cli.lambda_erm, "__wrapped__")


def test_calibrated_pass_scales_each_op_to_reference_speed(tmp_path):
    ops = [op for op in workloads.build("oracles", 3, tmp_path / "in")
           if op.name in ("bound_joint", "rad_geometry_ellipse")]
    plain = worker.run_pass(cli.main, ops, tmp_path / "plain")
    scaled = worker.run_pass(cli.main, ops, tmp_path / "scaled", calibrated=True)
    assert [r.scale for r in plain.ops] == [1.0, 1.0]
    assert all(0.05 < r.scale < 20 for r in scaled.ops)
    assert [r.digest for r in scaled.ops] == [r.digest for r in plain.ops]
    means = worker._scaled_mean([plain, scaled], "wall", [1])
    assert means == [pytest.approx((plain.ops[1].wall + scaled.ops[1].wall * scaled.ops[1].scale)
                                   / 2)]


def test_metric_names_and_units_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics, _, _ = worker.layer_metrics(spans, [], [])
    traced = set(metrics) | {"validation.cpu_per_wall", "validation.thread_speedup",
                             "trace.overhead_ratio", "cli.import_s"}
    assert traced == {m["name"] for m in bench["per_layer"]}
    assert {"pass_s", "op_p50_ms", "cpu_s", "peak_rss_mb", "setup_s"} == {
        m["name"] for m in bench["end_to_end"]}
    for m in bench["per_layer"] + bench["end_to_end"]:
        assert run._unit(m["name"]) == m["unit"], m["name"]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS) == list(
        workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracles", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
