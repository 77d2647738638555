"""End-to-end CLI behaviour: determinism, structured errors, file formats."""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest

from approx_sense.cli import _build_parser, main
from approx_sense.dataio import read_sample_csv
from approx_sense.radgeom import (
    RadEstimate,
    cluster_bound,
    crude_bounds,
    rotated_union_bound,
)


def run_cli(*args, capsys=None):
    code = main(list(args))
    out = err = ""
    if capsys is not None:
        captured = capsys.readouterr()
        out, err = captured.out, captured.err
    return code, out, err


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture()
def train_config(tmp_path):
    return write_json(
        tmp_path / "train.json",
        {
            "schema_version": 1,
            "seed": 7,
            "task": {
                "kind": "synthetic",
                "teacher_weights": [0.5, -0.5],
                "input_law": {"kind": "uniform_box", "halfwidth": 1.0},
                "label_noise_sd": 0.0,
                "m_labelled": 40,
                "m_unlabelled": 60,
            },
            "operator": {"kind": "uniform_quantizer", "step": 0.5, "clamp": 1.0},
            "loss": {"kind": "clipped_absolute", "lipschitz": 1.0},
            "learner": {
                "algorithm": "lambda_erm",
                "lambda": 0.5,
                "domain": {"dim": 2, "halfwidth": 1.0, "mode": "grid", "points_per_axis": 5},
            },
        },
    )


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_and_reproducibility(tmp_path, capsys):
    config = write_json(
        tmp_path / "gen.json",
        {
            "schema_version": 1,
            "seed": 3,
            "task": {
                "kind": "synthetic",
                "teacher_weights": [1.0],
                "input_law": {"kind": "isotropic_gaussian", "sd": 1.0},
                "label_noise_sd": 0.1,
            },
            "m": 25,
            "labelled": True,
        },
    )
    assert run_cli("generate", "--config", config, "--out", str(tmp_path / "a"))[0] == 0
    assert run_cli("generate", "--config", config, "--out", str(tmp_path / "b"))[0] == 0
    a = (tmp_path / "a" / "labelled.csv").read_bytes()
    b = (tmp_path / "b" / "labelled.csv").read_bytes()
    assert a == b
    sample = read_sample_csv(tmp_path / "a" / "labelled.csv")
    assert sample.m == 25 and sample.dim == 1
    # generate draws config["m"] rows: the task's m_labelled is not read
    payload = json.loads(Path(config).read_text())
    payload["task"]["m_labelled"] = 40
    code, _, err = run_cli("generate", "--config", write_json(tmp_path / "gen2.json", payload),
                           "--out", str(tmp_path / "c"), capsys=capsys)
    assert code == 2 and json.loads(err)["field"] == "task/m_labelled"


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_recovers_on_grid_teacher(tmp_path, train_config):
    code, _, _ = run_cli("train", "--config", train_config, "--out", str(tmp_path / "out"))
    assert code == 0
    payload = json.loads((tmp_path / "out" / "train.json").read_text())
    assert payload["weights"] == [0.5, -0.5]
    assert payload["approx_weights"] == [0.5, -0.5]
    assert payload["objective_value"] == 0.0


def test_train_rerun_byte_identical(tmp_path, train_config):
    run_cli("train", "--config", train_config, "--out", str(tmp_path / "o1"))
    run_cli("train", "--config", train_config, "--out", str(tmp_path / "o2"))
    assert (tmp_path / "o1" / "train.json").read_bytes() == (
        tmp_path / "o2" / "train.json"
    ).read_bytes()


def test_train_unknown_key_rejected(tmp_path, train_config, capsys):
    config = json.loads((tmp_path / "train.json").read_text())
    config["surprise"] = 1
    bad = write_json(tmp_path / "bad.json", config)
    code, _, err = run_cli("train", "--config", bad, "--out", str(tmp_path / "out"), capsys=capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["code"] == "config_invalid"
    assert "surprise" in payload["message"]


def test_train_missing_csv_named(tmp_path, capsys):
    config = write_json(
        tmp_path / "csv.json",
        {
            "schema_version": 1,
            "seed": 1,
            "task": {"kind": "csv", "labelled_path": str(tmp_path / "nope.csv")},
            "operator": {"kind": "uniform_quantizer", "step": 0.5, "clamp": 1.0},
            "loss": {"kind": "clipped_absolute"},
            "learner": {
                "algorithm": "analytic_lambda_erm",
                "lambda": 0.1,
                "domain": {"dim": 2, "halfwidth": 1.0},
            },
        },
    )
    code, _, err = run_cli("train", "--config", config, "--out", str(tmp_path / "out"), capsys=capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["code"] == "missing_input"
    assert "nope.csv" in payload["message"]


def test_train_csv_task_and_all_algorithms(tmp_path):
    # exercise every learner through the CLI on a small csv task
    rng = np.random.default_rng(5)
    inputs = rng.uniform(-1, 1, size=(30, 2))
    targets = inputs @ np.array([0.5, -0.5])
    lab = tmp_path / "lab.csv"
    unlab = tmp_path / "unlab.csv"
    from approx_sense import LabelledSample, UnlabelledSample
    from approx_sense.dataio import write_sample_csv

    write_sample_csv(LabelledSample(inputs=inputs, targets=targets), lab)
    write_sample_csv(UnlabelledSample(inputs=rng.uniform(-1, 1, size=(40, 2))), unlab)
    learners = [
        {"algorithm": "constrained_erm", "t": 0.4},
        {"algorithm": "srm", "thresholds": [0.1, 0.2, 0.4]},
        {"algorithm": "sensitivity_regularized_erm", "sensitivity": "empirical"},
        {"algorithm": "lambda_erm", "lambda": 0.3},
        {"algorithm": "analytic_lambda_erm", "lambda": 0.3, "input_norm_budget": 1.5},
        {"algorithm": "lambda_grid_srm", "lambdas": [0.1, 0.3], "weights": [0.5, 0.5]},
    ]
    for spec in learners:
        spec = dict(spec)
        spec["domain"] = {"dim": 2, "halfwidth": 1.0, "mode": "grid", "points_per_axis": 7}
        config = write_json(
            tmp_path / f"cfg_{spec['algorithm']}.json",
            {
                "schema_version": 1,
                "seed": 2,
                "task": {
                    "kind": "csv",
                    "labelled_path": str(lab),
                    "unlabelled_path": str(unlab),
                },
                "operator": {"kind": "uniform_quantizer", "step": 0.5, "clamp": 1.0},
                "loss": {"kind": "clipped_absolute"},
                "learner": spec,
            },
        )
        out_dir = tmp_path / f"out_{spec['algorithm']}"
        assert run_cli("train", "--config", config, "--out", str(out_dir))[0] == 0
        payload = json.loads((out_dir / "train.json").read_text())
        assert payload["algorithm"] == spec["algorithm"]
        assert len(payload["weights"]) == 2
        # three names run one regularised learner; train.json keeps each
        # name's own lambda and sensitivity_kind fields
        assert (payload["chosen"]["lambda"], payload["sensitivity_kind"]) == {
            "sensitivity_regularized_erm": (None, "empirical"),
            "lambda_erm": (0.3, None),
            "analytic_lambda_erm": (0.3, "analytic_upper"),
        }.get(spec["algorithm"], (payload["chosen"]["lambda"], None))


# ---------------------------------------------------------------------------
# sensitivity
# ---------------------------------------------------------------------------


def test_sensitivity_command_empirical(tmp_path):
    from approx_sense import UnlabelledSample
    from approx_sense.dataio import write_sample_csv

    write_sample_csv(UnlabelledSample(inputs=[[1.0], [-2.0]]), tmp_path / "u.csv")
    config = write_json(
        tmp_path / "sens.json",
        {
            "schema_version": 1,
            "weights": [0.6],
            "operator": {"kind": "uniform_quantizer", "step": 0.5, "clamp": 1.0},
            "sample_path": str(tmp_path / "u.csv"),
            "p": 1.0,
            "kind": "empirical",
        },
    )
    assert run_cli("sensitivity", "--config", config, "--out", str(tmp_path / "out"))[0] == 0
    payload = json.loads((tmp_path / "out" / "sensitivity.json").read_text())
    assert payload["kind"] == "empirical"
    assert payload["value"] == pytest.approx(0.15, abs=1e-15)


def test_sensitivity_command_analytic(tmp_path):
    config = write_json(
        tmp_path / "sens.json",
        {
            "schema_version": 1,
            "weights": [0.25, 0.25, 0.25, 0.25],
            "operator": {"kind": "uniform_quantizer", "step": 0.5, "clamp": 1.0},
            "kind": "analytic_upper",
            "input_norm_budget": 2.0,
        },
    )
    assert run_cli("sensitivity", "--config", config, "--out", str(tmp_path / "out"))[0] == 0
    payload = json.loads((tmp_path / "out" / "sensitivity.json").read_text())
    assert payload["value"] == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# rademacher
# ---------------------------------------------------------------------------


def test_rademacher_geometry(tmp_path):
    geom = write_json(tmp_path / "g.json", {"variant": "ellipse", "p": 2.0, "mu": [3.0, 4.0]})
    assert run_cli("rademacher", "--geometry", geom, "--out", str(tmp_path / "out"))[0] == 0
    payload = json.loads((tmp_path / "out" / "rademacher.json").read_text())
    assert payload["value"] == 2.5 and payload["method"] == "closed_form"


def test_geometry_files_match_direct_closed_forms(tmp_path):
    # integer JSON values for p and radius must write the same bytes as floats
    V = [[0.6, -0.8], [0.8, 0.6]]
    lower, upper = crude_bounds(3.0, 2.0)
    clusters = [{"center": [1, 1], "V": [[1, 0], [0, 1]], "mu": [1, 1]},
                {"center": [0.0, 0.5], "V": V, "mu": [0.5, 2.0]}]
    cases = {
        "pball": ({"p": 2, "radius": 3}, RadEstimate(
            upper, "certified_upper", 0, note=f"crude sandwich lower bound {lower:.17g}")),
        "ellipse": ({"p": 1, "mu": [3, 4]},
                    rotated_union_bound([(np.eye(2), [3.0, 4.0])], 1.0, 2)),
        "axis_union": ({"p": 1.5, "mus": [[1.0, 2.0], [2.0, 0.5]]},
                       rotated_union_bound([(np.eye(2), [1.0, 2.0]), (np.eye(2), [2.0, 0.5])],
                                           1.5, 2)),
        "rotated_union": ({"p": 3, "components": [{"V": V, "mu": [2.0, 1.0]}]},
                          rotated_union_bound([(np.array(V), [2.0, 1.0])], 3.0, 2)),
        "clustered": ({"p": 2, "components": clusters},
                      cluster_bound([(c["center"], c["V"], c["mu"]) for c in clusters], 2.0, 2)),
    }
    for variant, (fields, direct) in cases.items():
        geom = write_json(tmp_path / f"{variant}.json", {"variant": variant, **fields})
        assert run_cli("rademacher", "--geometry", geom, "--out", str(tmp_path / variant))[0] == 0
        written = (tmp_path / variant / "rademacher.json").read_text()
        assert written == json.dumps(direct.to_dict(), sort_keys=True, indent=2) + "\n", variant


def test_rademacher_pointset_zero_and_mc_agreement(tmp_path):
    zeros = tmp_path / "z.csv"
    zeros.write_text("x0,x1,x2\n0,0,0\n0,0,0\n", encoding="utf-8")
    assert run_cli("rademacher", "--pointset", str(zeros), "--out", str(tmp_path / "o1"))[0] == 0
    assert json.loads((tmp_path / "o1" / "rademacher.json").read_text())["value"] == 0.0

    fixture = Path(__file__).parent / "fixtures" / "pointset.csv"
    assert run_cli(
        "rademacher", "--pointset", str(fixture), "--method", "exact", "--out", str(tmp_path / "oe")
    )[0] == 0
    assert run_cli(
        "rademacher",
        "--pointset",
        str(fixture),
        "--method",
        "mc",
        "--n-sigma",
        "4000",
        "--seed",
        "5",
        "--out",
        str(tmp_path / "om"),
    )[0] == 0
    exact = json.loads((tmp_path / "oe" / "rademacher.json").read_text())
    mc = json.loads((tmp_path / "om" / "rademacher.json").read_text())
    assert abs(exact["value"] - mc["value"]) <= 4.0 * mc["standard_error"]


def test_rademacher_cap_error(tmp_path, capsys):
    wide = tmp_path / "wide.csv"
    header = ",".join(f"x{i}" for i in range(23))
    wide.write_text(header + "\n" + ",".join(["0.5"] * 23) + "\n", encoding="utf-8")
    code, _, err = run_cli(
        "rademacher", "--pointset", str(wide), "--out", str(tmp_path / "out"), capsys=capsys
    )
    assert code == 2
    assert json.loads(err)["code"] == "invalid_parameter"


BAD_CSV = {
    "non_numeric": ("x0,x1\n0.5,0.25\nabc,0.5\n", "non-numeric cell on line 3"),
    "ragged": ("x0,x1\n0.5,0.25\n0.5,0.25,0.75\n", "line 3 has 3 cells but the header has 2"),
}


def _read_as_pointset(tmp_path, csv_path):
    return ("rademacher", "--pointset", csv_path, "--out", str(tmp_path / "out"))


def _read_as_sample(tmp_path, csv_path):
    config = {
        "schema_version": 1,
        "weights": [0.3, -0.6],
        "operator": {"kind": "uniform_quantizer", "step": 0.5, "clamp": 1.0},
        "kind": "empirical",
        "sample_path": csv_path,
    }
    path = write_json(tmp_path / "sens.json", config)
    return ("sensitivity", "--config", path, "--out", str(tmp_path / "out"))


@pytest.mark.parametrize("reader", [_read_as_pointset, _read_as_sample])
@pytest.mark.parametrize("fault", sorted(BAD_CSV))
def test_malformed_csv_structured_error(tmp_path, capsys, reader, fault):
    text, message = BAD_CSV[fault]
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text(text, encoding="utf-8")
    code, _, err = run_cli(*reader(tmp_path, str(csv_path)), capsys=capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["code"] == "invalid_parameter"
    assert message in payload["message"]


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def test_bound_confidence_only_and_csv_roundtrip(tmp_path):
    config = write_json(
        tmp_path / "b.json",
        {
            "schema_version": 1,
            "bound": "uniform_restricted",
            "params": {"emp_err": 0.0, "rad_Ht": 0.0, "rho": 1.0, "m": 50, "delta": 0.05},
        },
    )
    out = tmp_path / "out"
    assert run_cli("bound", "--config", config, "--out", str(out))[0] == 0
    payload = json.loads((out / "bound_uniform_restricted.json").read_text())
    assert payload["value"] == pytest.approx(3.0 * math.sqrt(math.log(40.0) / 100.0), rel=1e-15)
    assert abs(sum(v for _, v in payload["terms"]) - payload["value"]) <= 1e-12
    lines = (out / "bounds.csv").read_text().strip().splitlines()
    assert lines[0] == "name,value,delta,certified"
    name, value, delta, certified = lines[1].split(",")
    assert float(value) == payload["value"]  # 17 significant digits round-trip
    assert certified == "true"


def test_bound_constituent_from_mc_file_flips_certified(tmp_path):
    rad_file = write_json(
        tmp_path / "rad.json",
        {"value": 0.05, "method": "monte_carlo", "m": 10, "standard_error": 0.003},
    )
    config = write_json(
        tmp_path / "b.json",
        {
            "schema_version": 1,
            "bound": "uniform_restricted",
            "params": {"emp_err": 0.1, "rho": 1.0, "m": 50, "delta": 0.05},
            "constituents": {"rad_Ht": rad_file},
        },
    )
    out = tmp_path / "out"
    assert run_cli("bound", "--config", config, "--out", str(out))[0] == 0
    payload = json.loads((out / "bound_uniform_restricted.json").read_text())
    assert payload["certified"] is False
    assert payload["value"] == pytest.approx(
        0.1 + 0.1 + 3.0 * math.sqrt(math.log(40.0) / 100.0), rel=1e-12
    )

    # a Monte Carlo value stays uncertified when its standard error is 0
    write_json(
        tmp_path / "rad.json",
        {"value": 0.05, "method": "monte_carlo", "m": 10, "standard_error": 0.0},
    )
    assert run_cli("bound", "--config", config, "--out", str(tmp_path / "out0"))[0] == 0
    payload = json.loads((tmp_path / "out0" / "bound_uniform_restricted.json").read_text())
    assert payload["certified"] is False


# id: (bound, error input read from a file, the other inputs)
MC_ERROR_INPUTS = {
    "uniform_restricted": ("uniform_restricted", "emp_err", {"rad_Ht": 0.05}),
    "srm_uniform": ("srm_uniform", "emp_err", {"rad_Ht_k": 0.05, "w_k": 0.5}),
    "joint_err_min_approx": ("joint", "err_min_approx",
                             {"err_star": 0.2, "rad_HA": 0.05, "t": 0.1}),
    "joint_err_star": ("joint", "err_star", {"err_min_approx": 0.15, "rad_HA": 0.05, "t": 0.1}),
    "regularized": ("regularized", "err_star_t", {"t": 0.1, "rad_HA": 0.05}),
}


@pytest.mark.parametrize("case", sorted(MC_ERROR_INPUTS))
def test_bound_error_input_from_mc_file_flips_certified(tmp_path, case):
    # an error input read from a Monte Carlo file leaves the values as they
    # are inline and marks every report uncertified
    kind, key, params = MC_ERROR_INPUTS[case]
    params = {**params, "rho": 1.0, "m": 50, "delta": 0.05}
    mc_file = write_json(
        tmp_path / "err.json",
        {"value": 0.1, "method": "monte_carlo", "n": 1000, "standard_error": 0.004},
    )
    inline = write_json(tmp_path / "inline.json", {
        "schema_version": 1, "bound": kind, "params": {**params, key: 0.1},
    })
    from_file = write_json(tmp_path / "file.json", {
        "schema_version": 1, "bound": kind, "params": params, "constituents": {key: mc_file},
    })
    assert run_cli("bound", "--config", inline, "--out", str(tmp_path / "a"))[0] == 0
    assert run_cli("bound", "--config", from_file, "--out", str(tmp_path / "b"))[0] == 0
    names = sorted(p.name for p in (tmp_path / "a").glob("bound_*.json"))
    assert names == sorted(p.name for p in (tmp_path / "b").glob("bound_*.json"))
    for name in names:
        a = json.loads((tmp_path / "a" / name).read_text())
        b = json.loads((tmp_path / "b" / name).read_text())
        assert a["certified"] is True and b["certified"] is False
        assert b["value"] == a["value"] and b["terms"] == a["terms"]


def test_bound_missing_constituent_named(tmp_path, capsys):
    config = write_json(
        tmp_path / "b.json",
        {
            "schema_version": 1,
            "bound": "uniform_restricted",
            "params": {"emp_err": 0.1, "rho": 1.0, "m": 50, "delta": 0.05},
        },
    )
    code, _, err = run_cli("bound", "--config", config, "--out", str(tmp_path / "o"), capsys=capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["code"] == "missing_input" and payload["constituent"] == "rad_Ht"


def test_bound_joint_emits_three_reports(tmp_path):
    config = write_json(
        tmp_path / "b.json",
        {
            "schema_version": 1,
            "bound": "joint",
            "params": {
                "err_min_approx": 0.1,
                "err_star": 0.2,
                "rad_HA": 0.05,
                "rho": 1.0,
                "t": 0.1,
                "m": 50,
                "delta": 0.05,
            },
        },
    )
    out = tmp_path / "out"
    assert run_cli("bound", "--config", config, "--out", str(out))[0] == 0
    names = {p.name for p in out.glob("bound_*.json")}
    assert names == {
        "bound_joint_vs_best_approx.json",
        "bound_joint_approx_deployment.json",
        "bound_joint_full_precision.json",
    }
    assert len((out / "bounds.csv").read_text().strip().splitlines()) == 4


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_deterministic_and_thread_independent(tmp_path):
    args = ["validate", "--suite", "crude_sandwich", "--trials", "8", "--seed", "4"]
    run_cli(*args, "--out", str(tmp_path / "v1"))
    run_cli(*args, "--out", str(tmp_path / "v2"))
    run_cli(*args, "--threads", "3", "--out", str(tmp_path / "v3"))
    b1 = (tmp_path / "v1" / "validate_crude_sandwich.json").read_bytes()
    assert b1 == (tmp_path / "v2" / "validate_crude_sandwich.json").read_bytes()
    assert b1 == (tmp_path / "v3" / "validate_crude_sandwich.json").read_bytes()
    payload = json.loads(b1)
    assert payload["passed"] is True and payload["violations"] == 0


COVERAGE_TRIALS = {"lemma1": 40, "prop10": 20, "prop2": 4}


@pytest.mark.parametrize("suite", sorted(COVERAGE_TRIALS))
def test_validate_coverage_thread_independent(tmp_path, suite):
    # the blocked Monte Carlo references, and lemma1's fast_rate_violations
    # (summed from per-trial results, not from a counter the worker threads
    # share), must not depend on the thread count
    args = ["validate", "--suite", suite, "--trials", str(COVERAGE_TRIALS[suite]), "--seed", "2"]
    assert run_cli(*args, "--threads", "1", "--out", str(tmp_path / "t1"))[0] == 0
    assert run_cli(*args, "--threads", "4", "--out", str(tmp_path / "t4"))[0] == 0
    one = (tmp_path / "t1" / f"validate_{suite}.json").read_bytes()
    assert one == (tmp_path / "t4" / f"validate_{suite}.json").read_bytes()
    if suite == "lemma1":
        assert "fast_rate_violations" in json.loads(one)["stats"]


def test_main_calls_in_a_row_share_one_parser(tmp_path, capsys):
    # the parser is built once per process; each call must still parse its
    # own argv, and a rejected one must leave the next call unaffected
    assert _build_parser() is _build_parser()
    geom = write_json(tmp_path / "g.json", {"variant": "ellipse", "p": 2.0, "mu": [3.0, 4.0]})
    bound = write_json(
        tmp_path / "b.json",
        {
            "schema_version": 1,
            "bound": "uniform_restricted",
            "params": {"emp_err": 0.0, "rad_Ht": 0.0, "rho": 1.0, "m": 50, "delta": 0.05},
        },
    )
    assert run_cli("rademacher", "--geometry", geom, "--out", str(tmp_path / "r1"))[0] == 0
    assert run_cli("bound", "--config", bound, "--out", str(tmp_path / "b1"))[0] == 0
    with pytest.raises(SystemExit) as bad:
        main(["rademacher", "--geometry", geom, "--method", "bogus"])
    assert bad.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert run_cli("rademacher", "--geometry", geom, "--out", str(tmp_path / "r2"))[0] == 0
    first = (tmp_path / "r1" / "rademacher.json").read_bytes()
    assert (tmp_path / "r2" / "rademacher.json").read_bytes() == first
    assert json.loads(first)["value"] == 2.5
    assert (tmp_path / "b1" / "bound_uniform_restricted.json").is_file()


def test_validate_unknown_suite(tmp_path, capsys):
    code, _, err = run_cli(
        "validate", "--suite", "mystery", "--out", str(tmp_path / "v"), capsys=capsys
    )
    assert code == 2
    assert json.loads(err)["code"] == "unknown_suite"


# ---------------------------------------------------------------------------
# malformed input: always exit 2 with a structured error, never a traceback
# ---------------------------------------------------------------------------

DROP = object()
BOUND_CONFIG = {
    "schema_version": 1,
    "bound": "uniform_restricted",
    "params": {"emp_err": 0.1, "rad_Ht": 0.05, "rho": 1.0, "m": 50, "delta": 0.05},
}
GEOMETRY = {"variant": "ellipse", "p": 2.0, "mu": [3.0, 4.0]}
# the config check fails before the sample file is read, so it need not exist
SENSITIVITY_CONFIG = {"schema_version": 1, "kind": "empirical", "weights": [0.3, -0.2],
                      "operator": {"kind": "uniform_quantizer", "step": 0.5, "clamp": 1.0},
                      "sample_path": "sample.csv"}
# finite entries whose sign sums overflow, so every estimate is NaN
OVERFLOWING_POINTSET = "x0,x1,x2\n1e308,1e308,1e308\n"

# a JSON integer too large for a float
HUGE = 10**400
_V = [[1.0, 0.0], [0.0, 1.0]]

# id: (command, edits, code, field).  Edits set (or DROP) the value at a path
# of the command's base config, the train_config fixture, BOUND_CONFIG,
# SENSITIVITY_CONFIG or GEOMETRY; the edits of validate, and of pointset (rademacher on
# OVERFLOWING_POINTSET), are extra arguments.
MALFORMED = {
    "quantizer_without_step": ("train", {"operator/step": DROP}, "config_invalid",
                               "operator/step"),
    "rounder_without_step": ("train", {"operator": {"kind": "stochastic_rounder", "clamp": 1.0}},
                             "config_invalid", "operator/step"),
    "pruner_without_keep": ("train", {"operator": {"kind": "magnitude_pruner"}},
                            "config_invalid", "operator/keep"),
    "polynomial_without_degree": ("train", {"task/feature_map": {"kind": "polynomial"}},
                                  "config_invalid", "task/feature_map/degree"),
    "rbf_without_centers": ("train", {"task/feature_map": {"kind": "rbf", "width": 0.5}},
                            "config_invalid", "task/feature_map/centers"),
    "rbf_width_overflows": ("train", {"task/feature_map": {"kind": "rbf", "width": 1e300,
                                                           "centers": [[0.0, 0.0], [1.0, 1.0]]}},
                            "invalid_parameter", None),
    "mixture_without_centers": ("train", {"task/input_law": {"kind": "gaussian_mixture"}},
                                "config_invalid", "task/input_law/centers"),
    "integral_float_seed": ("train", {"seed": 7.0}, "config_invalid", "seed"),
    "integral_float_points_per_axis": ("train", {"learner/domain/points_per_axis": 5.0},
                                       "config_invalid", "learner/domain/points_per_axis"),
    "domain_dim_mismatch": ("train", {"learner/domain/dim": 3}, "dimension_mismatch", None),
    "empty_teacher_weights": ("train", {"task/teacher_weights": []}, "config_invalid",
                              "task/teacher_weights"),
    "bound_without_m": ("bound", {"params/m": DROP}, "config_invalid", "params/m"),
    "bound_m_not_a_number": ("bound", {"params/m": "x"}, "config_invalid", "params/m"),
    "pointset_overflows_exact": ("pointset", ("--method", "exact"), "invalid_parameter", None),
    "pointset_overflows_mc": ("pointset", ("--method", "mc"), "invalid_parameter", None),
    "zero_trials": ("validate", ("--trials", "0"), "invalid_parameter", None),
    "negative_seed_flag": ("validate", ("--seed", "-1"), "invalid_parameter", None),
    # one case per rule the config tables enforce
    "unknown_nested_key": ("train", {"learner/domain/spacing": 0.1}, "config_invalid",
                           "learner/domain/spacing"),
    "wrong_type": ("train", {"loss/lipschitz": "1"}, "config_invalid", "loss/lipschitz"),
    "bool_for_number": ("train", {"task/label_noise_sd": True}, "config_invalid",
                        "task/label_noise_sd"),
    "below_minimum": ("train", {"task/m_labelled": 0}, "config_invalid", "task/m_labelled"),
    "not_finite": ("train", {"operator/step": float("nan")}, "config_invalid", "operator/step"),
    "bad_enum": ("train", {"learner/domain/mode": "spiral"}, "config_invalid",
                 "learner/domain/mode"),
    "schema_version_2": ("train", {"schema_version": 2}, "config_invalid", "schema_version"),
    # a key that the selected kind does not read
    "lambda_erm_with_sensitivity": ("train", {"learner/sensitivity": "analytic"},
                                    "config_invalid", "learner/sensitivity"),
    "analytic_lambda_erm_with_p": ("train", {"learner/algorithm": "analytic_lambda_erm",
                                             "learner/p": 2.0}, "config_invalid", "learner/p"),
    "constrained_erm_with_lambda": ("train", {"learner/algorithm": "constrained_erm",
                                              "learner/t": 0.2}, "config_invalid",
                                    "learner/lambda"),
    "uniform_box_with_sd": ("train", {"task/input_law/sd": 0.5}, "config_invalid",
                            "task/input_law/sd"),
    "pruner_with_step": ("train", {"operator": {"kind": "magnitude_pruner", "keep": 1,
                                                "step": 0.5}}, "config_invalid", "operator/step"),
    "learner_rho": ("train", {"learner/algorithm": "sensitivity_regularized_erm",
                              "learner/lambda": DROP, "learner/rho": 0.5}, "config_invalid",
                    "learner/rho"),
    "csv_task_with_input_law": ("train", {"task": {"kind": "csv", "labelled_path": "lab.csv",
                                                   "input_law": {"kind": "uniform_box"}}},
                                "config_invalid", "task/input_law"),
    "ellipse_with_radius": ("rademacher", {"radius": 1.0}, "config_invalid", "radius"),
    # sensitivity_regularized_erm reads p or input_norm_budget by its sensitivity
    "sensreg_analytic_with_p": ("train", {"learner/algorithm": "sensitivity_regularized_erm",
                                          "learner/lambda": DROP,
                                          "learner/sensitivity": "analytic", "learner/p": 2.0},
                                "config_invalid", "learner/p"),
    "sensreg_empirical_with_budget": (
        "train", {"learner/algorithm": "sensitivity_regularized_erm", "learner/lambda": DROP,
                  "learner/sensitivity": "empirical", "learner/input_norm_budget": 2.0},
        "config_invalid", "learner/input_norm_budget"),
    "sensreg_default_with_budget": (
        "train", {"learner/algorithm": "sensitivity_regularized_erm", "learner/lambda": DROP,
                  "learner/input_norm_budget": 2.0},
        "config_invalid", "learner/input_norm_budget"),
    "analytic_upper_with_sample_path": ("sensitivity", {"kind": "analytic_upper"},
                                        "config_invalid", "sample_path"),
    "analytic_upper_with_p": ("sensitivity", {"kind": "analytic_upper", "sample_path": DROP,
                                              "p": 2.0}, "config_invalid", "p"),
    "analytic_upper_with_n_omega": ("sensitivity", {"kind": "analytic_upper",
                                                    "sample_path": DROP, "n_omega": 50},
                                    "config_invalid", "n_omega"),
    "empirical_with_budget": ("sensitivity", {"input_norm_budget": 3.0}, "config_invalid",
                              "input_norm_budget"),
    "expected_stochastic_with_budget": (
        "sensitivity", {"kind": "expected_stochastic", "input_norm_budget": 3.0},
        "config_invalid", "input_norm_budget"),
    "unknown_bound_param": ("bound", {"params/epsilon_U": 0.01}, "config_invalid",
                            "params/epsilon_U"),
    "srm_selection_negative_complexity": (
        "bound",
        {"bound": "srm_selection", "params": {"err_star_k": [0.1], "rad_Ht_k": [-0.5],
                                              "w_k": [0.5], "rho": 1.0, "m": 50, "delta": 0.1}},
        "invalid_parameter", None),
    # integers a float cannot hold
    "huge_teacher_weight": ("train", {"task/teacher_weights": [0.5, HUGE]}, "config_invalid",
                            "task/teacher_weights/1"),
    "huge_lambda": ("train", {"learner/lambda": HUGE}, "config_invalid", "learner/lambda"),
    "huge_bound_m": ("bound", {"params/m": HUGE}, "config_invalid", "params/m"),
    "huge_geometry_mu": ("rademacher", {"mu": [3.0, HUGE]}, "config_invalid", "mu/1"),
    # geometry files: the structure, then the field each kind needs
    "geometry_without_mu": ("rademacher", {"mu": DROP}, "config_invalid", "mu"),
    "geometry_without_mus": ("rademacher", {"variant": "axis_union", "mu": DROP},
                             "config_invalid", "mus"),
    "geometry_without_components": ("rademacher", {"variant": "rotated_union", "mu": DROP},
                                    "config_invalid", "components"),
    "geometry_without_radius": ("rademacher", {"variant": "pball", "mu": DROP},
                                "config_invalid", "radius"),
    "geometry_component_without_V": (
        "rademacher", {"variant": "rotated_union", "mu": DROP, "components": [{"mu": [1.0, 2.0]}]},
        "config_invalid", "components/0/V"),
    "geometry_component_without_mu": (
        "rademacher",
        {"variant": "clustered", "mu": DROP, "components": [{"center": [0.1, 0.2], "V": _V}]},
        "config_invalid", "components/0/mu"),
    "geometry_cluster_without_center": (
        "rademacher",
        {"variant": "clustered", "mu": DROP,
         "components": [{"center": [0.1, 0.2], "V": _V, "mu": [1.0, 2.0]},
                        {"V": _V, "mu": [1.0, 2.0]}]},
        "config_invalid", "components/1/center"),
    "geometry_p_not_a_number": ("rademacher", {"p": "two"}, "config_invalid", "p"),
    "geometry_union_member_not_numeric": (
        "rademacher", {"variant": "axis_union", "mu": DROP, "mus": [[1.0, 2.0], ["a", 1.0]]},
        "config_invalid", "mus/1/0"),
    "geometry_p_below_one": ("rademacher", {"p": 0.5}, "config_invalid", "p"),
    "geometry_unknown_variant": ("rademacher", {"variant": "torus"}, "config_invalid", "variant"),
    "geometry_unknown_key": ("rademacher", {"center": [0.0, 0.0]}, "config_invalid", "center"),
    "geometry_bool_in_mu": ("rademacher", {"mu": [3.0, True]}, "config_invalid", "mu/1"),
    # a matrix of numbers skips the per-row walk only when every row is clean
    "geometry_bool_in_V_row": (
        "rademacher",
        {"variant": "rotated_union", "mu": DROP,
         "components": [{"V": [[1.0, 0.0], [0.0, True]], "mu": [1.0, 2.0]}]},
        "config_invalid", "components/0/V/1/1"),
    "geometry_ragged_V": (
        "rademacher",
        {"variant": "rotated_union", "mu": DROP,
         "components": [{"V": [[1.0, 0.0], [0.0]], "mu": [1.0, 2.0]}]},
        "config_invalid", "components/0/V"),
}


def _edited(config: dict, edits: dict) -> dict:
    config = copy.deepcopy(config)
    for path, value in edits.items():
        *parents, last = path.split("/")
        node = config
        for key in parents:
            node = node[key]
        if value is DROP:
            del node[last]
        else:
            node[last] = value
    return config


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_structured_error(tmp_path, train_config, capsys, case):
    command, edits, code, field = MALFORMED[case]
    if command == "validate":
        argv = ["validate", "--suite", "stochastic_unbiased", *edits]
    elif command == "pointset":
        points = tmp_path / "points.csv"
        points.write_text(OVERFLOWING_POINTSET, encoding="utf-8")
        argv = ["rademacher", "--pointset", str(points), *edits]
    else:
        base = {"train": json.loads(Path(train_config).read_text()), "bound": BOUND_CONFIG,
                "sensitivity": SENSITIVITY_CONFIG, "rademacher": GEOMETRY}[command]
        path = write_json(tmp_path / "malformed.json", _edited(base, edits))
        argv = [command, "--geometry" if command == "rademacher" else "--config", path]
    exit_code, _, err = run_cli(*argv, "--out", str(tmp_path / "out"), capsys=capsys)
    assert exit_code == 2
    payload = json.loads(err)
    assert payload["code"] == code
    if field is not None:
        assert payload["field"] == field


# id: (option, raw file bytes, code).  Each file fails while it is decoded,
# before any table checks it.
UNDECODABLE = {
    "json_integer_of_5000_digits": (
        "--geometry", b'{"variant": "ellipse", "p": 2, "mu": [' + b"1" * 5000 + b"]}",
        "config_invalid"),
    "json_nested_100000_deep": ("--config", b"[" * 100_000 + b"]" * 100_000, "config_invalid"),
    "config_not_utf8": ("--config", b'{"schema_version": 1, "seed": "\xff"}', "config_invalid"),
    "pointset_not_utf8": ("--pointset", b"x0,x1\n1.0,\xff\n", "invalid_parameter"),
}


@pytest.mark.parametrize("case", sorted(UNDECODABLE))
def test_undecodable_input_structured_error(tmp_path, capsys, case):
    option, raw, code = UNDECODABLE[case]
    path = tmp_path / "input"
    path.write_bytes(raw)
    command = "train" if option == "--config" else "rademacher"
    exit_code, _, err = run_cli(command, option, str(path), "--out", str(tmp_path / "out"),
                                capsys=capsys)
    assert exit_code == 2
    assert json.loads(err)["code"] == code
