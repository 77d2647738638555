"""End-to-end CLI behaviour: determinism, structured errors, file formats."""

from __future__ import annotations

import copy
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from approx_sense.cli import _build_parser, main
from approx_sense.dataio import read_sample_csv
from approx_sense.radgeom import (
    Cluster,
    Ellipse,
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


def test_generate_gaussian_mixture_matches_direct_draw(tmp_path):
    # the config's centers and sd reach the mixture: the file equals a
    # sample drawn from the same task built in code
    from approx_sense import GaussianMixture, Hypothesis, IdentityMap, SyntheticTask, generate
    from approx_sense.dataio import write_sample_csv

    centers, sd = [[-1.0, 0.0], [1.0, 0.5]], 0.3
    config = write_json(tmp_path / "gen.json", {
        "schema_version": 1, "seed": 4, "m": 20, "labelled": True,
        "task": {"kind": "synthetic", "teacher_weights": [0.5, -0.5],
                 "input_law": {"kind": "gaussian_mixture", "centers": centers, "sd": sd}},
    })
    assert run_cli("generate", "--config", config, "--out", str(tmp_path / "out"))[0] == 0
    teacher = Hypothesis(weights=np.array([0.5, -0.5]), feature_map=IdentityMap(input_dim=2))
    task = SyntheticTask(teacher=teacher, input_law=GaussianMixture(centers=centers, sd=sd),
                         seed=4)
    write_sample_csv(generate(task, 20, labelled=True), tmp_path / "direct.csv")
    written = (tmp_path / "out" / "labelled.csv").read_bytes()
    assert written == (tmp_path / "direct.csv").read_bytes()


def test_build_takes_input_dim_from_the_data_only_where_the_section_lacks_it():
    from approx_sense.cli import _FEATURE_MAP, _OPERATOR, _build
    from approx_sense.core import IdentityMap, MagnitudePruner, PolynomialMap

    assert _build(_FEATURE_MAP, {"kind": "identity"}, input_dim=2) == IdentityMap(input_dim=2)
    assert _build(_FEATURE_MAP, {"kind": "polynomial", "degree": 2, "input_dim": 3},
                  input_dim=2) == PolynomialMap(input_dim=3, degree=2)
    # an rbf map's input dimension is that of its centers, not a field
    rbf = _build(_FEATURE_MAP, {"kind": "rbf", "centers": [[0.0, 1.0, 2.0]], "width": 0.5},
                 input_dim=2)
    assert rbf.input_dim == 3 and rbf.width == 0.5
    assert _build(_OPERATOR, {"kind": "magnitude_pruner", "keep": 1}) == MagnitudePruner(keep=1)


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


def _csv_task_config(tmp_path, task: dict, learner: dict) -> str:
    return write_json(tmp_path / "csv_task.json", {
        "schema_version": 1, "seed": 1, "task": dict(task, kind="csv"),
        "operator": {"kind": "uniform_quantizer", "step": 0.5, "clamp": 1.0},
        "loss": {"kind": "clipped_absolute"},
        "learner": dict(learner, domain={"dim": 2, "halfwidth": 1.0, "points_per_axis": 5}),
    })


def test_train_csv_labelled_file_without_target(tmp_path, capsys):
    unlabelled = tmp_path / "inputs.csv"
    unlabelled.write_text(SAMPLE, encoding="utf-8")
    config = _csv_task_config(tmp_path, {"labelled_path": str(unlabelled)},
                              {"algorithm": "lambda_erm", "lambda": 0.1})
    code, _, err = run_cli("train", "--config", config, "--out", str(tmp_path / "out"),
                           capsys=capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["code"] == "config_invalid" and "'target' column" in payload["message"]


def test_train_csv_task_without_unlabelled_path(tmp_path, capsys):
    # constrained_erm estimates sensitivities on unlabelled data
    labelled = tmp_path / "lab.csv"
    labelled.write_text("x0,x1,target\n0.5,0.25,0.1\n-0.5,0.75,-0.6\n", encoding="utf-8")
    config = _csv_task_config(tmp_path, {"labelled_path": str(labelled)},
                              {"algorithm": "constrained_erm", "t": 0.4})
    code, _, err = run_cli("train", "--config", config, "--out", str(tmp_path / "out"),
                           capsys=capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["code"] == "config_invalid" and payload["field"] == "task/unlabelled_path"
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("inputs", ["neither", "both"])
def test_rademacher_needs_exactly_one_input(tmp_path, capsys, inputs):
    geom = write_json(tmp_path / "g.json", GEOMETRY)
    pointset = str(Path(__file__).parent / "fixtures" / "pointset.csv")
    argv = [] if inputs == "neither" else ["--geometry", geom, "--pointset", pointset]
    code, out, err = run_cli("rademacher", *argv, "--out", str(tmp_path / "out"), capsys=capsys)
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["code"] == "config_invalid" and "exactly one of" in payload["message"]


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
                    rotated_union_bound([Ellipse([3.0, 4.0], np.eye(2))], 1.0)),
        "axis_union": ({"p": 1.5, "mus": [[1.0, 2.0], [2.0, 0.5]]},
                       rotated_union_bound([Ellipse([1.0, 2.0], np.eye(2)),
                                            Ellipse([2.0, 0.5], np.eye(2))], 1.5)),
        "rotated_union": ({"p": 3, "components": [{"V": V, "mu": [2.0, 1.0]}]},
                          rotated_union_bound([Ellipse([2.0, 1.0], np.array(V))], 3.0)),
        "clustered": ({"p": 2, "components": clusters},
                      cluster_bound([Cluster(c["center"], Ellipse(c["mu"], c["V"]))
                                     for c in clusters], 2.0)),
    }
    for variant, (fields, direct) in cases.items():
        geom = write_json(tmp_path / f"{variant}.json", {"variant": variant, **fields})
        assert run_cli("rademacher", "--geometry", geom, "--out", str(tmp_path / variant))[0] == 0
        written = (tmp_path / variant / "rademacher.json").read_text()
        assert written == json.dumps(direct.to_dict(), sort_keys=True, indent=2) + "\n", variant


def _geometry_run(tmp_path, capsys, geometry: dict) -> tuple[int, dict]:
    """Exit code and rademacher.json (or the stderr error) of one geometry file."""
    path = write_json(tmp_path / "geometry.json", geometry)
    out = tmp_path / "out"
    code, _, err = run_cli("rademacher", "--geometry", path, "--out", str(out), capsys=capsys)
    return code, json.loads((out / "rademacher.json").read_text() if code == 0 else err)


def test_geometry_rademacher_dispatch(tmp_path, capsys):
    assert _geometry_run(tmp_path, capsys, {"variant": "ellipse", "p": 2.0, "mu": [3.0, 4.0]}) \
        == (0, {"value": 2.5, "method": "closed_form", "m": 2})
    code, ball = _geometry_run(tmp_path, capsys, {"variant": "pball", "p": 2.0, "radius": 1.0})
    assert code == 0 and ball["value"] == 1.0 and "lower bound" in ball["note"]
    code, error = _geometry_run(tmp_path, capsys, {"variant": "torus", "p": 2.0})
    assert (code, error["code"], error["field"]) == (2, "config_invalid", "variant")
    assert "torus" in error["message"]


def test_geometry_validation_errors(tmp_path, capsys):
    # the geometry table checks p >= 1; the values that the closed forms
    # take check positive semi-axes and orthogonal rotations
    cases = [({"variant": "ellipse", "p": 0.5, "mu": [1.0]}, "config_invalid", "must be >= 1"),
             ({"variant": "ellipse", "p": 2.0, "mu": [1.0, -1.0]}, "invalid_parameter",
              "every semi-axis must be positive"),
             ({"variant": "rotated_union", "p": 2.0,
               "components": [{"V": [[1.0, 0.2], [0.0, 1.0]], "mu": [1.0, 1.0]}]},
              "invalid_parameter", "not orthogonal within tolerance")]
    for geometry, error_code, message in cases:
        code, error = _geometry_run(tmp_path, capsys, geometry)
        assert (code, error["code"]) == (2, error_code) and message in error["message"]


_ROTATION = [[0.6, -0.8], [0.8, 0.6]]
# variant -> (fields, value in hex, method, m): values written by the
# closed forms that checked each component on every call, so a change to
# how components are held keeps every bit
PINNED = {
    "pball": ({"p": 2, "radius": 3}, "0x1.8000000000000p+1", "certified_upper", 0),
    "ellipse": ({"p": 1.5, "mu": [3, 4, 0.25]}, "0x1.7fd8a756830bdp+0", "closed_form", 3),
    "axis_union": ({"p": 3, "mus": [[1.0, 2.0], [2.0, 0.5]]}, "0x1.393fd7a61ce71p+0",
                   "closed_form", 2),
    "rotated_union": ({"p": 3, "components": [{"V": _ROTATION, "mu": [2.0, 1.0]},
                                              {"V": [[1, 0], [0, 1]], "mu": [1.5, 0.5]}]},
                      "0x1.b68c944ef5436p+0", "certified_upper", 2),
    "clustered": ({"p": 2, "components": [{"center": [1, 1], "V": [[1, 0], [0, 1]],
                                           "mu": [1, 1]},
                                          {"center": [0.0, 0.5], "V": _ROTATION,
                                           "mu": [0.5, 2.0]}]},
                  "0x1.2348392a0660ap+1", "certified_upper", 2),
}


@pytest.mark.parametrize("variant", sorted(PINNED))
def test_geometry_variant_values_are_pinned(tmp_path, capsys, variant):
    fields, value, method, m = PINNED[variant]
    code, est = _geometry_run(tmp_path, capsys, {"variant": variant, **fields})
    assert (code, est["value"].hex(), est["method"], est["m"]) == (0, value, method, m)


# flags that the chosen path does not read
UNREAD_FLAGS = {
    "method_with_geometry": (("--geometry", "--method", "mc"), "--geometry reads neither"),
    "n_sigma_with_geometry": (("--geometry", "--n-sigma", "50"), "--geometry reads neither"),
    "n_sigma_with_method_exact": (("--pointset", "--method", "exact", "--n-sigma", "50"),
                                  "--n-sigma is read only with --method mc"),
    "n_sigma_with_default_method": (("--pointset", "--n-sigma", "50"),
                                    "--n-sigma is read only with --method mc"),
}


@pytest.mark.parametrize("case", sorted(UNREAD_FLAGS))
def test_rademacher_rejects_a_flag_its_path_does_not_read(tmp_path, capsys, case):
    (option, *flags), message = UNREAD_FLAGS[case]
    path = (write_json(tmp_path / "g.json", GEOMETRY) if option == "--geometry"
            else str(Path(__file__).parent / "fixtures" / "pointset.csv"))
    out = tmp_path / "out"
    code, printed, err = run_cli("rademacher", option, path, *flags, "--out", str(out),
                                 capsys=capsys)
    assert (code, printed, out.exists()) == (2, "", False)
    error = json.loads(err)
    assert error["code"] == "config_invalid" and error["message"].startswith(message)


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


# sign draws too large for memory or for a numpy array: each fails when it is
# allocated, before any memory is used
UNALLOCATABLE_SIGNS = {
    "rademacher_mc": ("rademacher", 10**15, 8),
    "rademacher_mc_past_any_index": ("rademacher", 10**20, 8),
    "train_srm": ("train", 10**15, 40),
}


@pytest.mark.parametrize("case", sorted(UNALLOCATABLE_SIGNS))
def test_unallocatable_sign_draw_structured_error(tmp_path, train_config, capsys, case):
    command, n_sigma, m = UNALLOCATABLE_SIGNS[case]
    if command == "rademacher":
        fixture = Path(__file__).parent / "fixtures" / "pointset.csv"
        argv = ["rademacher", "--pointset", str(fixture), "--method", "mc",
                "--n-sigma", str(n_sigma)]
    else:
        config = json.loads(Path(train_config).read_text())
        config["learner"] = {"algorithm": "srm", "thresholds": [0.2, 0.4], "n_sigma": n_sigma,
                             "domain": config["learner"]["domain"]}
        argv = ["train", "--config", write_json(tmp_path / "srm.json", config)]
    code, _, err = run_cli(*argv, "--out", str(tmp_path / "out"), capsys=capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["code"] == "invalid_parameter"
    assert f"n_sigma={n_sigma}, m={m}" in payload["message"]


def test_unallocatable_operator_draws_structured_error(tmp_path, capsys):
    sample = tmp_path / "sample.csv"
    sample.write_text("x0,x1\n0.5,0.25\n-0.5,0.75\n", encoding="utf-8")
    config = dict(SENSITIVITY_CONFIG, kind="expected_stochastic", sample_path=str(sample),
                  operator={"kind": "stochastic_rounder", "step": 0.5, "clamp": 1.0},
                  n_omega=10**15)
    code, _, err = run_cli("sensitivity", "--config", write_json(tmp_path / "sens.json", config),
                           "--out", str(tmp_path / "out"), capsys=capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["code"] == "invalid_parameter"
    assert "n_omega=1000000000000000" in payload["message"]


# samples too large for memory or for a numpy array: the draw fails as a
# structured error naming m and the input dimension
UNALLOCATABLE_SAMPLES = {
    "generate_m": ("generate", "m", 10**15),
    "generate_m_past_any_index": ("generate", "m", 10**20),
    "train_m_labelled": ("train", "m_labelled", 10**15),
    "train_m_unlabelled": ("train", "m_unlabelled", 10**15),
}


@pytest.mark.parametrize("case", sorted(UNALLOCATABLE_SAMPLES))
def test_unallocatable_sample_structured_error(tmp_path, train_config, capsys, case):
    command, key, m = UNALLOCATABLE_SAMPLES[case]
    config = json.loads(Path(train_config).read_text())
    if command == "generate":
        task = {k: config["task"][k] for k in ("kind", "teacher_weights", "input_law")}
        config = {"schema_version": 1, "seed": 3, "task": task, key: m, "labelled": True}
    else:
        config["task"][key] = m
    code, _, err = run_cli(command, "--config", write_json(tmp_path / "big.json", config),
                           "--out", str(tmp_path / "out"), capsys=capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["code"] == "invalid_parameter"
    assert f"m={m} points of dimension 2" in payload["message"]


# search domains too large for memory or for a numpy array: the draw of the
# random candidates or of the descent's start points fails as a structured
# error naming the parameter
UNALLOCATABLE_SEARCH = {
    "random_n_samples": ("random", "n_samples", 10**15),
    "random_n_samples_past_any_index": ("random", "n_samples", 10**20),
    "descent_restarts": ("coordinate_descent", "restarts", 10**15),
}


@pytest.mark.parametrize("case", sorted(UNALLOCATABLE_SEARCH))
def test_unallocatable_search_structured_error(tmp_path, train_config, capsys, case):
    mode, key, count = UNALLOCATABLE_SEARCH[case]
    config = json.loads(Path(train_config).read_text())
    config["learner"]["domain"] = {"dim": 2, "halfwidth": 1.0, "mode": mode, key: count}
    code, _, err = run_cli("train", "--config", write_json(tmp_path / "big.json", config),
                           "--out", str(tmp_path / "out"), capsys=capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["code"] == "invalid_parameter"
    assert f"{key}={count}, dim=2" in payload["message"]


BAD_CSV = {
    "non_numeric": ("x0,x1\n0.5,0.25\nabc,0.5\n", "non-numeric cell on line 3"),
    "ragged": ("x0,x1\n0.5,0.25\n0.5,0.25,0.75\n", "line 3 has 3 cells but the header has 2"),
    "empty": ("", "empty CSV file"),
    "header_only": ("x0,x1\n", "CSV file has a header but no data rows"),
    "header_then_blank_lines": ("x0,x1\n\n\r\n", "CSV file has a header but no data rows"),
    "trailing_comma": ("x0,x1\n0.5,0.25,\n", "line 2 has 3 cells but the header has 2"),
    "narrow_first_row": ("x0,x1\n0.5\n0.5,0.25\n", "line 2 has 1 cells but the header has 2"),
    "wider_than_one_column": ("x0\n0.5,0.25\n", "line 2 has 2 cells but the header has 1"),
    "whitespace_line": ("x0,x1\n0.5,0.25\n   \n", "line 3 has 1 cells but the header has 2"),
    "not_utf8": (b"x0,x1\n0.5,\xff\n", "file is not UTF-8 text"),
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
    csv_path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(*reader(tmp_path, str(csv_path)), capsys=capsys)
    assert code == 2
    # the JSON error is all a caller reads: no warning prints ahead of it
    assert not caught and len(err.splitlines()) == 1
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


def test_bound_constituent_with_plain_value_is_certified(tmp_path):
    # a value with no standard error and not from Monte Carlo, such as a
    # closed form, gives the same certified report as the value inline
    rad_file = write_json(tmp_path / "rad.json", {"value": 0.05, "method": "closed_form", "m": 2})
    params = {"emp_err": 0.1, "rho": 1.0, "m": 50, "delta": 0.05}
    inline = write_json(tmp_path / "inline.json", {
        "schema_version": 1, "bound": "uniform_restricted", "params": dict(params, rad_Ht=0.05)})
    from_file = write_json(tmp_path / "file.json", {
        "schema_version": 1, "bound": "uniform_restricted", "params": params,
        "constituents": {"rad_Ht": rad_file}})
    assert run_cli("bound", "--config", inline, "--out", str(tmp_path / "a"))[0] == 0
    assert run_cli("bound", "--config", from_file, "--out", str(tmp_path / "b"))[0] == 0
    name = "bound_uniform_restricted.json"
    a = json.loads((tmp_path / "a" / name).read_text())
    b = json.loads((tmp_path / "b" / name).read_text())
    assert b["certified"] is True and b["terms"] == a["terms"] and b["value"] == a["value"]


def test_bound_joint_writes_nothing_when_one_report_is_not_finite(tmp_path, capsys):
    # 2 rho t overflows in joint_full_precision only; the other two reports
    # are finite, and none is written
    config = write_json(tmp_path / "b.json", {
        "schema_version": 1, "bound": "joint",
        "params": {"err_min_approx": 0.1, "err_star": 0.1, "rad_HA": 0.1, "rho": 6e307,
                   "t": 1.6, "m": 50, "delta": 0.05}})
    out = tmp_path / "out"
    code, _, err = run_cli("bound", "--config", config, "--out", str(out), capsys=capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["code"] == "invalid_parameter"
    assert "joint_full_precision is not finite" in payload["message"]
    assert not out.exists()


def test_bound_joint_with_a_huge_rho_and_zero_complexity_is_finite(tmp_path):
    # 2 (rho rad) is 0 where (2 rho) rad would be inf * 0 = NaN
    config = write_json(tmp_path / "b.json", {
        "schema_version": 1, "bound": "joint",
        "params": {"err_min_approx": 0.12, "err_star": 0.1, "rad_HA": 0.0, "rho": 1e308,
                   "t": 0.0, "m": 50, "delta": 0.05}})
    out = tmp_path / "out"
    assert run_cli("bound", "--config", config, "--out", str(out))[0] == 0
    for name in ("joint_vs_best_approx", "joint_approx_deployment", "joint_full_precision"):
        report = json.loads((out / f"bound_{name}.json").read_text())
        assert math.isfinite(report["value"])
        assert dict(map(tuple, report["terms"]))["complexity"] == 0.0


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
    # --threads is checked and changes nothing: trials run in order on one thread
    args = ["validate", "--suite", "crude_sandwich", "--trials", "8", "--seed", "4"]
    run_cli(*args, "--out", str(tmp_path / "v1"))
    run_cli(*args, "--out", str(tmp_path / "v2"))
    run_cli(*args, "--threads", "3", "--out", str(tmp_path / "v3"))
    b1 = (tmp_path / "v1" / "validate_crude_sandwich.json").read_bytes()
    assert b1 == (tmp_path / "v2" / "validate_crude_sandwich.json").read_bytes()
    assert b1 == (tmp_path / "v3" / "validate_crude_sandwich.json").read_bytes()
    payload = json.loads(b1)
    assert payload["passed"] is True and payload["violations"] == 0


@pytest.mark.parametrize("threads", [0, -1])
def test_validate_rejects_threads_below_one(tmp_path, capsys, threads):
    # the option changes nothing, but a value no thread count can have is refused
    code, out, err = run_cli("validate", "--suite", "crude_sandwich", "--trials", "2",
                             "--threads", str(threads), "--out", str(tmp_path), capsys=capsys)
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["code"] == "invalid_parameter"
    assert f"threads must be >= 1, got {threads}" in payload["message"]
    assert not list(tmp_path.iterdir())


COVERAGE_TRIALS = {"lemma1": 40, "prop10": 20, "prop2": 4, "prop4": 4}


@pytest.mark.parametrize("suite", sorted(COVERAGE_TRIALS))
def test_validate_coverage_thread_independent(tmp_path, suite):
    # each trial's Monte Carlo sign draws (two per prop4 trial), and lemma1's
    # fast_rate_violations (summed from per-trial results), must not depend
    # on the --threads value, which the one-thread trial loop does not read
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
    code, _, err = run_cli("rademacher", "--geometry", geom, "--method", "bogus", capsys=capsys)
    assert code == 2
    assert json.loads(err)["code"] == "invalid_parameter" and "invalid choice" in err
    assert run_cli("rademacher", "--geometry", geom, "--out", str(tmp_path / "r2"))[0] == 0
    first = (tmp_path / "r1" / "rademacher.json").read_bytes()
    assert (tmp_path / "r2" / "rademacher.json").read_bytes() == first
    assert json.loads(first)["value"] == 2.5
    assert (tmp_path / "b1" / "bound_uniform_restricted.json").is_file()


@pytest.mark.parametrize("argv, message", [
    (["train"], "approx-sense train: the following arguments are required: --config"),
    (["train", "--config", "c.json", "--bogus"], "approx-sense: unrecognized arguments: --bogus"),
    (["validate", "--suite", "prop2", "--trials", "x"],
     "approx-sense validate: argument --trials: invalid int value: 'x'"),
    (["rademacher", "--geometry", "g.json", "--method", "bogus"],
     "approx-sense rademacher: argument --method: invalid choice: 'bogus'"),
])
def test_malformed_command_line_is_one_structured_error(capsys, argv, message):
    # one JSON line on stderr and exit 2, not argparse's usage text; the
    # message is argparse's, whose wording after this prefix varies by version
    code, out, err = run_cli(*argv, capsys=capsys)
    assert (code, out) == (2, "")
    assert err.endswith("\n") and err.count("\n") == 1
    error = json.loads(err)
    assert error["code"] == "invalid_parameter" and error["message"].startswith(message)


@pytest.mark.parametrize("flag", ["-h", "--version"])
def test_help_and_version_still_exit_zero(capsys, flag):
    with pytest.raises(SystemExit) as done:
        main([flag])
    assert done.value.code == 0
    assert capsys.readouterr().out


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
# the config check fails before the sample file is read, so it need not
# exist; the malformed-input test writes one for the cases that read it
SENSITIVITY_CONFIG = {"schema_version": 1, "kind": "empirical", "weights": [0.3, -0.2],
                      "operator": {"kind": "uniform_quantizer", "step": 0.5, "clamp": 1.0},
                      "sample_path": "sample.csv"}
# finite entries whose sign sums overflow, so every estimate is NaN
OVERFLOWING_POINTSET = "x0,x1,x2\n1e308,1e308,1e308\n"
SAMPLE = "x0,x1\n0.5,0.25\n-0.5,0.75\n"

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
    "rbf_without_width": ("train", {"task/feature_map": {"kind": "rbf", "centers": [[0.0, 0.0]]}},
                          "config_invalid", "task/feature_map/width"),
    "identity_input_dim_zero": ("train", {"task/feature_map": {"kind": "identity", "input_dim": 0}},
                                "config_invalid", "task/feature_map/input_dim"),
    "domain_without_halfwidth": ("train", {"learner/domain/halfwidth": DROP}, "config_invalid",
                                 "learner/domain/halfwidth"),
    "pruner_negative_keep": ("train", {"operator": {"kind": "magnitude_pruner", "keep": -1}},
                             "config_invalid", "operator/keep"),
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
    "srm_empty_weights": ("train", {"learner/algorithm": "srm", "learner/lambda": DROP,
                                    "learner/thresholds": [0.5], "learner/weights": []},
                          "config_invalid", "learner/weights"),
    "srm_empty_thresholds": ("train", {"learner/algorithm": "srm", "learner/lambda": DROP,
                                       "learner/thresholds": []},
                             "config_invalid", "learner/thresholds"),
    "lambda_grid_srm_empty_lambdas": ("train", {"learner/algorithm": "lambda_grid_srm",
                                                "learner/lambda": DROP, "learner/lambdas": [],
                                                "learner/weights": [1.0]},
                                      "config_invalid", "learner/lambdas"),
    "bound_without_m": ("bound", {"params/m": DROP}, "config_invalid", "params/m"),
    "bound_m_not_a_number": ("bound", {"params/m": "x"}, "config_invalid", "params/m"),
    "pointset_overflows_exact": ("pointset", ("--method", "exact"), "invalid_parameter", None),
    "pointset_overflows_mc": ("pointset", ("--method", "mc"), "invalid_parameter", None),
    "zero_trials": ("validate", ("--trials", "0"), "invalid_parameter", None),
    # stochastic_unbiased runs two fixed checks: a trial count is refused
    "trials_of_a_fixed_suite": ("validate", ("--trials", "7"), "invalid_parameter", None),
    "negative_seed_flag": ("validate", ("--seed", "-1"), "invalid_parameter", None),
    # one case per rule the config tables enforce
    "unknown_nested_key": ("train", {"learner/domain/spacing": 0.1}, "config_invalid",
                           "learner/domain/spacing"),
    "wrong_type": ("train", {"loss/lipschitz": "1"}, "config_invalid", "loss/lipschitz"),
    "bool_for_number": ("train", {"task/label_noise_sd": True}, "config_invalid",
                        "task/label_noise_sd"),
    "below_minimum": ("train", {"task/m_labelled": 0}, "config_invalid", "task/m_labelled"),
    # rules the tables take from the classes' fields (core.param)
    "negative_label_noise_sd": ("train", {"task/label_noise_sd": -0.1}, "config_invalid",
                                "task/label_noise_sd"),
    "negative_input_norm_budget": ("train", {"learner/algorithm": "analytic_lambda_erm",
                                             "learner/input_norm_budget": -1.0},
                                   "config_invalid", "learner/input_norm_budget"),
    # srm's penalty estimator enumerates the learner's domain
    "srm_under_coordinate_descent": ("train", {"learner/algorithm": "srm", "learner/lambda": DROP,
                                               "learner/thresholds": [0.5],
                                               "learner/domain/mode": "coordinate_descent"},
                                     "config_invalid", "learner/domain/mode"),
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
    "mixture_with_halfwidth": ("train", {"task/input_law": {"kind": "gaussian_mixture",
                                                            "centers": [[0.0, 0.0]],
                                                            "halfwidth": 1.0}},
                               "config_invalid", "task/input_law/halfwidth"),
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
    "analytic_upper_with_seed": ("sensitivity", {"kind": "analytic_upper", "sample_path": DROP,
                                                 "seed": 3}, "config_invalid", "seed"),
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
    # a rotated union's components read no center
    "geometry_rotated_component_with_center": (
        "rademacher",
        {"variant": "rotated_union", "mu": DROP,
         "components": [{"center": [0.5, 0.5], "V": _V, "mu": [1.0, 2.0]}]},
        "config_invalid", "components/0/center"),
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
    # finite inputs whose result overflows: the object holding the result
    # rejects it, and no numpy warning prints first
    "bound_sum_overflows": (
        "bound", {"bound": "stochastic",
                  "params": {"exp_emp_err": 1e308, "exp_sensitivity": 1e308, "exp_rad": 0.1,
                             "rho": 1.0, "m": 50, "delta": 0.05}},
        "invalid_parameter", None),
    "bound_term_overflows": ("bound", {"params/rad_Ht": 1e308, "params/rho": 1e308},
                             "invalid_parameter", None),
    "empirical_sensitivity_overflows": ("sensitivity", {"weights": [1e308, 1e308], "p": 2.0},
                                        "invalid_parameter", None),
    "analytic_sensitivity_overflows": (
        "sensitivity", {"kind": "analytic_upper", "sample_path": DROP,
                        "weights": [1e308, -1e308], "input_norm_budget": 1e308},
        "invalid_parameter", None),
    "geometry_ellipse_overflows": ("rademacher", {"p": 1.0000001, "mu": [1e300, 1e300]},
                                   "invalid_parameter", None),
    "geometry_clusters_overflow": (
        "rademacher",
        {"variant": "clustered", "mu": DROP,
         "components": [{"center": [1e308, 1e308], "V": _V, "mu": [1.0, 2.0]}] * 2},
        "invalid_parameter", None),
    # parameters whose own arithmetic overflows or underflows
    "squared_loss_lipschitz_overflows": (
        "train", {"loss": {"kind": "clipped_squared", "lipschitz": 1e200}},
        "invalid_parameter", None),
    "rbf_width_underflows": ("train", {"task/feature_map": {"kind": "rbf", "width": 1e-200,
                                                            "centers": [[0.0, 0.0], [1.0, 1.0]]}},
                             "invalid_parameter", None),
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
        sample = tmp_path / "sample.csv"
        sample.write_text(SAMPLE, encoding="utf-8")
        base = {"train": json.loads(Path(train_config).read_text()), "bound": BOUND_CONFIG,
                "sensitivity": dict(SENSITIVITY_CONFIG, sample_path=str(sample)),
                "rademacher": GEOMETRY}[command]
        path = write_json(tmp_path / "malformed.json", _edited(base, edits))
        argv = [command, "--geometry" if command == "rademacher" else "--config", path]
    exit_code, _, err = run_cli(*argv, "--out", str(tmp_path / "out"), capsys=capsys)
    assert exit_code == 2
    payload = json.loads(err)
    assert payload["code"] == code
    if field is not None:
        assert payload["field"] == field


@pytest.mark.parametrize("case", ["pointset_dir", "geometry_dir", "bound_config_dir",
                                  "constituent_dir", "validate_out_file"])
def test_an_unusable_path_is_one_structured_error(tmp_path, capsys, case):
    # a directory where a command reads a file, or an existing file where it
    # makes its --out directory
    path = tmp_path / "given"
    if case == "validate_out_file":
        path.write_text("not a directory\n", encoding="utf-8")
    else:
        path.mkdir()
    out = str(tmp_path / "out")
    params = {k: v for k, v in BOUND_CONFIG["params"].items() if k != "rad_Ht"}
    constituent = write_json(tmp_path / "bound.json", dict(
        BOUND_CONFIG, params=params, constituents={"rad_Ht": str(path)}))
    argv = {
        "pointset_dir": ["rademacher", "--pointset", str(path), "--out", out],
        "geometry_dir": ["rademacher", "--geometry", str(path), "--out", out],
        "bound_config_dir": ["bound", "--config", str(path), "--out", out],
        "constituent_dir": ["bound", "--config", constituent, "--out", out],
        "validate_out_file": ["validate", "--suite", "crude_sandwich", "--trials", "2",
                              "--out", str(path)],
    }[case]
    code, _, err = run_cli(*argv, capsys=capsys)
    assert code == 2
    (line,) = err.splitlines()
    payload = json.loads(line)
    assert payload["code"] == "invalid_parameter"
    assert payload["path"] == str(path) and str(path) in payload["message"]


_CENTERS = [[0.0, 0.0], [1.0, 1.0]]
_DOMAIN = {"dim": 2, "halfwidth": 1.0, "points_per_axis": 5}
# class -> (the train config section that gives its fields, a valid section,
# each field that carries a rule -> the values below its bound or not allowed)
RULED = {
    "IdentityMap": ("task/feature_map", {"kind": "identity", "input_dim": 2}, {"input_dim": [0]}),
    "PolynomialMap": ("task/feature_map", {"kind": "polynomial", "input_dim": 2, "degree": 2},
                      {"input_dim": [0, -1], "degree": [0]}),
    "RbfMap": ("task/feature_map", {"kind": "rbf", "centers": _CENTERS, "width": 0.5},
               {"width": [0.0, -0.5]}),
    "UniformQuantizer": ("operator", {"kind": "uniform_quantizer", "step": 0.5, "clamp": 1.0},
                         {"step": [0.0, -0.5], "clamp": [0.0]}),
    "MagnitudePruner": ("operator", {"kind": "magnitude_pruner", "keep": 1}, {"keep": [-1]}),
    "StochasticRounder": ("operator", {"kind": "stochastic_rounder", "step": 0.5, "clamp": 1.0},
                          {"step": [0.0], "clamp": [0.0, -1.0]}),
    "LossSpec": ("loss", {"kind": "clipped_hinge", "lipschitz": 2.0},
                 {"kind": ["zero_one"], "lipschitz": [0.0, -1.0]}),
    "UniformBox": ("task/input_law", {"kind": "uniform_box", "halfwidth": 1.0},
                   {"halfwidth": [0.0]}),
    "IsotropicGaussian": ("task/input_law", {"kind": "isotropic_gaussian", "sd": 1.0},
                          {"sd": [0.0]}),
    "GaussianMixture": ("task/input_law", {"kind": "gaussian_mixture", "centers": _CENTERS,
                                           "sd": 1.0}, {"sd": [0.0, -1.0]}),
    "SearchDomain": ("learner/domain",
                     {"dim": 2, "halfwidth": 1.0, "mode": "random", "points_per_axis": 5,
                      "n_samples": 10, "restarts": 2, "iterations": 3, "seed": 1},
                     {"dim": [0], "halfwidth": [0.0], "mode": ["spiral"], "points_per_axis": [1],
                      "n_samples": [0], "restarts": [0], "iterations": [0], "seed": [-1]}),
    "SyntheticTask": ("task", {"kind": "synthetic", "teacher_weights": [0.5, -0.5],
                               "label_noise_sd": 0.1}, {"label_noise_sd": [-0.1]}),
    "AnalyticSensitivity": ("learner", {"algorithm": "analytic_lambda_erm", "lambda": 0.5,
                                        "input_norm_budget": 1.0, "domain": _DOMAIN},
                            {"input_norm_budget": [-1.0]}),
}
RULE_BREAKERS = [(cls, name, value) for cls, (_, _, bad) in RULED.items()
                 for name, values in bad.items()
                 for value in (*values, math.nan, math.inf, -math.inf)]


def test_every_field_with_a_rule_is_in_the_ruled_table():
    import dataclasses

    from approx_sense import learners, synthetic  # noqa: F401 (they define Checked classes)
    from approx_sense.core import Checked

    ruled = {(cls.__name__, f.name) for cls in Checked.__subclasses__()
             for f in dataclasses.fields(cls) if f.metadata}
    assert ruled == {(cls, name) for cls, (_, _, bad) in RULED.items() for name in bad}


@pytest.mark.parametrize("cls, name, value", RULE_BREAKERS,
                         ids=[f"{c}-{n}-{v}" for c, n, v in RULE_BREAKERS])
def test_a_value_that_breaks_a_rule_fails_in_the_library_and_in_a_config(
        tmp_path, train_config, capsys, cls, name, value):
    import approx_sense
    from approx_sense.errors import InvalidParameterError

    path, section, _ = RULED[cls]
    section = dict(section, **{name: value})
    klass = getattr(approx_sense, cls)
    kwargs = {k: v for k, v in section.items() if k in klass.__dataclass_fields__}
    if cls == "SyntheticTask":  # the fields that the config gives as nested sections
        kwargs.update(teacher=approx_sense.linear_hypothesis([0.5, -0.5]),
                      input_law=approx_sense.UniformBox())
    with pytest.raises(InvalidParameterError, match=f"{cls} {name} must be"):
        klass(**kwargs)
    config = _edited(json.loads(Path(train_config).read_text()), {path: section})
    config_path = write_json(tmp_path / "ruled.json", config)
    code, _, err = run_cli("train", "--config", config_path, "--out", str(tmp_path / "out"),
                           capsys=capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["code"] == "config_invalid"
    assert payload["field"] == f"{path}/{name}"


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
