"""Command-line driver.

Subcommands: generate, train, sensitivity, rademacher, bound, validate.
Configs are JSON with an explicit schema_version; unknown keys are rejected.
One top-level seed fixes every output byte-for-byte; --threads (or the
APPROX_SENSE_THREADS variable) only changes the execution schedule.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from .bounds import (
    joint_bounds,
    lambda_equivalence_bound,
    regularized_bound,
    srm_selection_bound,
    srm_uniform_bound,
    stochastic_bound,
    uniform_restricted_bound,
)
from .core import (
    Hypothesis,
    IdentityMap,
    LabelledSample,
    LossSpec,
    MagnitudePruner,
    PolynomialMap,
    RbfMap,
    StochasticRounder,
    UniformQuantizer,
    UnlabelledSample,
)
from .dataio import append_csv_row, format_float, read_matrix_csv, read_sample_csv, write_sample_csv
from .errors import ApproxSenseError, ConfigError, InvalidParameterError, MissingInputError
from .learners import (
    AnalyticSensitivity,
    EmpiricalSensitivity,
    SearchDomain,
    ThresholdSchedule,
    analytic_lambda_erm,
    constrained_erm,
    lambda_erm,
    lambda_grid_srm,
    make_restricted_rad_estimator,
    sensitivity_regularized_erm,
    srm_learner,
)
from .radgeom import (
    EXACT_ENUMERATION_CAP,
    GeometryModel,
    SensitivityPointSet,
    exact_rademacher_pointset,
    mc_rademacher_pointset,
)
from .sensitivity import (
    analytic_sensitivity_upper,
    empirical_sensitivity,
    expected_sensitivity,
)
from .synthetic import GaussianMixture, IsotropicGaussian, SyntheticTask, UniformBox, generate
from .validation import run_suite

SCHEMA_VERSION = 1

# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

_FEATURE_MAP_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["identity", "polynomial", "rbf"]},
        "input_dim": {"type": "integer", "minimum": 1},
        "degree": {"type": "integer", "minimum": 1},
        "centers": {"type": "array"},
        "width": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_INPUT_LAW_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["uniform_box", "isotropic_gaussian", "gaussian_mixture"]},
        "halfwidth": {"type": "number", "exclusiveMinimum": 0},
        "sd": {"type": "number", "exclusiveMinimum": 0},
        "centers": {"type": "array"},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_TASK_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["synthetic", "csv"]},
        "teacher_weights": {"type": "array", "items": {"type": "number"}},
        "feature_map": _FEATURE_MAP_SCHEMA,
        "input_law": _INPUT_LAW_SCHEMA,
        "label_noise_sd": {"type": "number", "minimum": 0},
        "m_labelled": {"type": "integer", "minimum": 1},
        "m_unlabelled": {"type": "integer", "minimum": 1},
        "labelled_path": {"type": "string"},
        "unlabelled_path": {"type": "string"},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_OPERATOR_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["uniform_quantizer", "magnitude_pruner", "stochastic_rounder"]},
        "step": {"type": "number", "exclusiveMinimum": 0},
        "clamp": {"type": "number", "exclusiveMinimum": 0},
        "keep": {"type": "integer", "minimum": 0},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_LOSS_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["clipped_absolute", "clipped_hinge", "clipped_squared"]},
        "lipschitz": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_DOMAIN_SCHEMA = {
    "type": "object",
    "properties": {
        "dim": {"type": "integer", "minimum": 1},
        "halfwidth": {"type": "number", "exclusiveMinimum": 0},
        "mode": {"enum": ["grid", "random", "coordinate_descent"]},
        "points_per_axis": {"type": "integer", "minimum": 2},
        "n_samples": {"type": "integer", "minimum": 1},
        "restarts": {"type": "integer", "minimum": 1},
        "iterations": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
    },
    "required": ["dim", "halfwidth"],
    "additionalProperties": False,
}

_LEARNER_SCHEMA = {
    "type": "object",
    "properties": {
        "algorithm": {
            "enum": [
                "constrained_erm",
                "srm",
                "sensitivity_regularized_erm",
                "lambda_erm",
                "analytic_lambda_erm",
                "lambda_grid_srm",
            ]
        },
        "t": {"type": "number", "exclusiveMinimum": 0},
        "p": {"type": "number", "minimum": 1},
        "lambda": {"type": "number", "minimum": 0},
        "lambdas": {"type": "array", "items": {"type": "number", "minimum": 0}},
        "weights": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}},
        "thresholds": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}},
        "epsilon_u": {"type": "number", "minimum": 0},
        "sensitivity": {"enum": ["empirical", "analytic"]},
        "input_norm_budget": {"type": "number", "minimum": 0},
        "rho": {"type": "number", "minimum": 0},
        "n_sigma": {"type": "integer", "minimum": 1},
        "domain": _DOMAIN_SCHEMA,
    },
    "required": ["algorithm", "domain"],
    "additionalProperties": False,
}

TRAIN_SCHEMA = {
    "type": "object",
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "seed": {"type": "integer"},
        "task": _TASK_SCHEMA,
        "operator": _OPERATOR_SCHEMA,
        "loss": _LOSS_SCHEMA,
        "learner": _LEARNER_SCHEMA,
    },
    "required": ["schema_version", "seed", "task", "operator", "loss", "learner"],
    "additionalProperties": False,
}

GENERATE_SCHEMA = {
    "type": "object",
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "seed": {"type": "integer"},
        "task": _TASK_SCHEMA,
        "m": {"type": "integer", "minimum": 1},
        "labelled": {"type": "boolean"},
    },
    "required": ["schema_version", "seed", "task", "m", "labelled"],
    "additionalProperties": False,
}

SENSITIVITY_SCHEMA = {
    "type": "object",
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "seed": {"type": "integer"},
        "weights": {"type": "array", "items": {"type": "number"}},
        "feature_map": _FEATURE_MAP_SCHEMA,
        "operator": _OPERATOR_SCHEMA,
        "sample_path": {"type": "string"},
        "p": {"type": "number", "minimum": 1},
        "kind": {"enum": ["empirical", "analytic_upper", "expected_stochastic"]},
        "input_norm_budget": {"type": "number", "minimum": 0},
        "n_omega": {"type": "integer", "minimum": 1},
    },
    "required": ["schema_version", "weights", "operator", "kind"],
    "additionalProperties": False,
}

BOUND_SCHEMA = {
    "type": "object",
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "bound": {
            "enum": [
                "uniform_restricted",
                "srm_uniform",
                "joint",
                "regularized",
                "lambda_equivalence",
                "stochastic",
                "srm_selection",
            ]
        },
        "params": {"type": "object"},
        "constituents": {"type": "object", "additionalProperties": {"type": "string"}},
    },
    "required": ["schema_version", "bound", "params"],
    "additionalProperties": False,
}


_VALIDATORS: dict[int, object] = {}


def _validate_config(config: dict, schema: dict) -> None:
    # jsonschema.validate without re-checking the schema on every call: each
    # schema is checked once, when its validator is first built (the
    # validator keeps its schema alive, so the id key stays unique)
    validator = _VALIDATORS.get(id(schema))
    if validator is None:
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        validator = _VALIDATORS[id(schema)] = cls(schema)
    error = jsonschema.exceptions.best_match(validator.iter_errors(config))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"config field {path!r}: {error.message}", field=path) from error


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise MissingInputError(f"config file not found: {p}", path=str(p))
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}") from exc


# ---------------------------------------------------------------------------
# Config -> objects
# ---------------------------------------------------------------------------


def _build_feature_map(cfg: dict | None, input_dim: int):
    if cfg is None or cfg["kind"] == "identity":
        return IdentityMap(input_dim=int(cfg.get("input_dim", input_dim)) if cfg else input_dim)
    if cfg["kind"] == "polynomial":
        return PolynomialMap(input_dim=int(cfg.get("input_dim", input_dim)), degree=cfg["degree"])
    return RbfMap(centers=np.asarray(cfg["centers"], dtype=float), width=cfg["width"])


def _build_input_law(cfg: dict):
    if cfg["kind"] == "uniform_box":
        return UniformBox(halfwidth=cfg.get("halfwidth", 1.0))
    if cfg["kind"] == "isotropic_gaussian":
        return IsotropicGaussian(sd=cfg.get("sd", 1.0))
    return GaussianMixture(centers=np.asarray(cfg["centers"], dtype=float), sd=cfg.get("sd", 1.0))


def _build_operator(cfg: dict):
    if cfg["kind"] == "uniform_quantizer":
        return UniformQuantizer(step=cfg["step"], clamp=cfg["clamp"])
    if cfg["kind"] == "magnitude_pruner":
        return MagnitudePruner(keep=cfg["keep"])
    return StochasticRounder(step=cfg["step"], clamp=cfg["clamp"])


def _build_loss(cfg: dict) -> LossSpec:
    return LossSpec(kind=cfg["kind"], lipschitz=cfg.get("lipschitz", 1.0))


def _build_domain(cfg: dict) -> SearchDomain:
    return SearchDomain(
        dim=cfg["dim"],
        halfwidth=cfg["halfwidth"],
        mode=cfg.get("mode", "grid"),
        points_per_axis=cfg.get("points_per_axis", 11),
        n_samples=cfg.get("n_samples", 200),
        restarts=cfg.get("restarts", 4),
        iterations=cfg.get("iterations", 20),
        seed=cfg.get("seed", 0),
    )


def _build_samples(task_cfg: dict, seed: int) -> tuple[LabelledSample, UnlabelledSample | None]:
    if task_cfg["kind"] == "csv":
        if "labelled_path" not in task_cfg:
            raise ConfigError("csv task needs 'labelled_path'", field="task/labelled_path")
        labelled = read_sample_csv(task_cfg["labelled_path"])
        if not isinstance(labelled, LabelledSample):
            raise ConfigError("labelled_path does not contain a 'target' column")
        unlabelled = None
        if "unlabelled_path" in task_cfg:
            loaded = read_sample_csv(task_cfg["unlabelled_path"])
            inputs = loaded.inputs
            unlabelled = UnlabelledSample(inputs=inputs, source_id=loaded.source_id)
        return labelled, unlabelled
    task = _build_task(task_cfg, seed)
    labelled = generate(task, task_cfg.get("m_labelled", 50), labelled=True)
    unlabelled = generate(task, task_cfg.get("m_unlabelled", 100), labelled=False)
    return labelled, unlabelled


def _build_task(task_cfg: dict, seed: int) -> SyntheticTask:
    if "teacher_weights" not in task_cfg:
        raise ConfigError("synthetic task needs 'teacher_weights'", field="task/teacher_weights")
    weights = np.asarray(task_cfg["teacher_weights"], dtype=float)
    fmap = _build_feature_map(task_cfg.get("feature_map"), input_dim=weights.shape[0])
    teacher = Hypothesis(weights=weights, feature_map=fmap)
    law = _build_input_law(task_cfg.get("input_law", {"kind": "uniform_box"}))
    return SyntheticTask(
        teacher=teacher,
        input_law=law,
        label_noise_sd=task_cfg.get("label_noise_sd", 0.0),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _write_json(payload: dict, out_dir: Path, filename: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / filename
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    return path


def _print(message: str) -> None:
    sys.stdout.write(message + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    config = _load_config(args.config)
    _validate_config(config, GENERATE_SCHEMA)
    seed = args.seed if args.seed is not None else config["seed"]
    task = _build_task(config["task"], seed)
    sample = generate(task, config["m"], labelled=config["labelled"])
    out = Path(args.out)
    name = "labelled.csv" if config["labelled"] else "unlabelled.csv"
    out.mkdir(parents=True, exist_ok=True)
    write_sample_csv(sample, out / name)
    _print(f"wrote {out / name}")
    return 0


def cmd_train(args) -> int:
    config = _load_config(args.config)
    _validate_config(config, TRAIN_SCHEMA)
    seed = args.seed if args.seed is not None else config["seed"]
    labelled, unlabelled = _build_samples(config["task"], seed)
    op = _build_operator(config["operator"])
    loss = _build_loss(config["loss"])
    lcfg = config["learner"]
    domain = _build_domain(lcfg["domain"])
    fmap = _build_feature_map(config["task"].get("feature_map"), input_dim=labelled.dim)
    p = lcfg.get("p", 1.0)
    algorithm = lcfg["algorithm"]

    def need_unlabelled():
        if unlabelled is None:
            raise ConfigError(f"{algorithm} needs unlabelled data", field="task/unlabelled_path")
        return unlabelled

    if algorithm == "constrained_erm":
        if "t" not in lcfg:
            raise ConfigError("constrained_erm needs 't'", field="learner/t")
        output = constrained_erm(
            labelled, need_unlabelled(), op, lcfg["t"], p, loss, domain, feature_map=fmap
        )
    elif algorithm == "srm":
        if "thresholds" not in lcfg:
            raise ConfigError("srm needs 'thresholds'", field="learner/thresholds")
        schedule = ThresholdSchedule(
            thresholds=tuple(lcfg["thresholds"]), weights=tuple(lcfg.get("weights", ()))
        )
        estimator = make_restricted_rad_estimator(
            domain,
            labelled,
            need_unlabelled(),
            op,
            p=p,
            n_sigma=lcfg.get("n_sigma", 512),
            seed=seed,
            feature_map=fmap,
        )
        output = srm_learner(
            labelled,
            unlabelled,
            op,
            schedule,
            lcfg.get("epsilon_u", 0.0),
            estimator,
            loss,
            domain,
            p=p,
            feature_map=fmap,
        )
    elif algorithm == "sensitivity_regularized_erm":
        rho = lcfg.get("rho", loss.lipschitz)
        if lcfg.get("sensitivity", "empirical") == "empirical":
            sensitivity, label = EmpiricalSensitivity(need_unlabelled(), p), "empirical"
        else:
            budget = lcfg.get("input_norm_budget", 1.0)
            sensitivity, label = AnalyticSensitivity(budget), "analytic_upper"
        output = sensitivity_regularized_erm(
            labelled, op, sensitivity, rho, loss, domain, feature_map=fmap, sensitivity_label=label
        )
    elif algorithm == "lambda_erm":
        if "lambda" not in lcfg:
            raise ConfigError("lambda_erm needs 'lambda'", field="learner/lambda")
        output = lambda_erm(
            labelled, need_unlabelled(), op, lcfg["lambda"], p, loss, domain, feature_map=fmap
        )
    elif algorithm == "analytic_lambda_erm":
        if "lambda" not in lcfg:
            raise ConfigError("analytic_lambda_erm needs 'lambda'", field="learner/lambda")
        output = analytic_lambda_erm(
            labelled,
            op,
            lcfg["lambda"],
            AnalyticSensitivity(lcfg.get("input_norm_budget", 1.0)),
            loss,
            domain,
            feature_map=fmap,
        )
    else:  # lambda_grid_srm
        if "lambdas" not in lcfg or "weights" not in lcfg:
            raise ConfigError("lambda_grid_srm needs 'lambdas' and 'weights'", field="learner")
        output = lambda_grid_srm(
            labelled,
            need_unlabelled(),
            op,
            lcfg["lambdas"],
            lcfg["weights"],
            p,
            loss,
            domain,
            feature_map=fmap,
        )

    payload = {
        "algorithm": algorithm,
        "weights": [float(v) for v in output.hypothesis.weights],
        "approx_weights": [float(v) for v in output.approx_hypothesis.weights],
        "objective_value": output.objective_value,
        "objective_trace": list(output.objective_trace),
        "chosen": {
            "t": output.chosen_t,
            "k": output.chosen_k,
            "lambda": output.lam,
        },
        "feasible": output.feasible,
        "sensitivity_kind": output.sensitivity_kind,
        "boundary_hits": output.boundary_hits,
        "clamped": output.clamped,
        "per_lambda": output.per_lambda,
        "seed": seed,
    }
    path = _write_json(payload, Path(args.out), "train.json")
    _print(f"wrote {path}")
    return 0


def cmd_sensitivity(args) -> int:
    config = _load_config(args.config)
    _validate_config(config, SENSITIVITY_SCHEMA)
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    weights = np.asarray(config["weights"], dtype=float)
    fmap = _build_feature_map(config.get("feature_map"), input_dim=weights.shape[0])
    h = Hypothesis(weights=weights, feature_map=fmap)
    op = _build_operator(config["operator"])
    kind = config["kind"]
    p = config.get("p", 1.0)
    if kind == "analytic_upper":
        estimate = analytic_sensitivity_upper(h, op, config.get("input_norm_budget", 1.0))
    else:
        if "sample_path" not in config:
            raise ConfigError(f"{kind} sensitivity needs 'sample_path'", field="sample_path")
        loaded = read_sample_csv(config["sample_path"])
        sample = UnlabelledSample(inputs=loaded.inputs, source_id=loaded.source_id)
        if kind == "empirical":
            estimate = empirical_sensitivity(h, op, sample, p=p)
        else:
            estimate = expected_sensitivity(
                h, op, sample, p=p, n_omega=config.get("n_omega", 100), seed=seed
            )
    path = _write_json(estimate.to_dict(), Path(args.out), "sensitivity.json")
    _print(f"wrote {path}")
    return 0


def cmd_rademacher(args) -> int:
    if (args.geometry is None) == (args.pointset is None):
        raise ConfigError("pass exactly one of --geometry or --pointset")
    if args.geometry is not None:
        path = Path(args.geometry)
        if not path.exists():
            raise MissingInputError(f"geometry file not found: {path}", path=str(path))
        model = GeometryModel.from_dict(json.loads(path.read_text(encoding="utf-8")))
        estimate = model.rademacher()
    else:
        points = read_matrix_csv(args.pointset)
        ps = SensitivityPointSet(points=points)
        if args.method == "exact":
            if ps.m > EXACT_ENUMERATION_CAP:
                raise InvalidParameterError(
                    f"exact method capped at m = {EXACT_ENUMERATION_CAP}; "
                    "rerun with --method mc"
                )
            estimate = exact_rademacher_pointset(ps)
        else:
            estimate = mc_rademacher_pointset(ps, n_sigma=args.n_sigma, seed=args.seed or 0)
    path = _write_json(estimate.to_dict(), Path(args.out), "rademacher.json")
    _print(f"wrote {path}")
    return 0


def _resolve_constituent(params: dict, constituents: dict, key: str):
    """A bound input comes inline from params or from a JSON file with 'value'."""
    if key in params:
        return params[key]
    if key in constituents:
        path = Path(constituents[key])
        if not path.exists():
            raise MissingInputError(
                f"constituent {key!r} file not found: {path}", constituent=key, path=str(path)
            )
        payload = json.loads(path.read_text(encoding="utf-8"))
        if "value" not in payload:
            raise ConfigError(f"constituent file {path} has no 'value' field", constituent=key)
        if payload.get("standard_error") or payload.get("method") == "monte_carlo":
            return (float(payload["value"]), float(payload.get("standard_error", 0.0)) or 1e-300)
        return float(payload["value"])
    raise MissingInputError(f"missing constituent {key!r}", constituent=key)


def cmd_bound(args) -> int:
    config = _load_config(args.config)
    _validate_config(config, BOUND_SCHEMA)
    params = dict(config["params"])
    constituents = config.get("constituents", {})

    def get(key):
        return _resolve_constituent(params, constituents, key)

    kind = config["bound"]
    if kind == "uniform_restricted":
        report = uniform_restricted_bound(
            get("emp_err"), get("rad_Ht"), params["rho"], params["m"], params["delta"]
        )
        reports = [report]
    elif kind == "srm_uniform":
        reports = [
            srm_uniform_bound(
                get("emp_err"),
                get("rad_Ht_k"),
                params["w_k"],
                params["rho"],
                params["m"],
                params["delta"],
            )
        ]
    elif kind == "joint":
        reports = list(
            joint_bounds(
                get("err_min_approx"),
                get("err_star"),
                get("rad_HA"),
                params["rho"],
                params["t"],
                params["m"],
                params["delta"],
            )
        )
    elif kind == "regularized":
        reports = [
            regularized_bound(
                get("err_star_t"),
                params["rho"],
                params["t"],
                get("rad_HA"),
                params["m"],
                params["delta"],
                epsilon_u=params.get("epsilon_u"),
            )
        ]
    elif kind == "lambda_equivalence":
        reports = [
            lambda_equivalence_bound(
                params["rho"],
                get("rad_HA"),
                params["m"],
                params["delta"],
                params["lambda"],
                epsilon_u=params.get("epsilon_u"),
            )
        ]
    elif kind == "stochastic":
        reports = [
            stochastic_bound(
                get("exp_emp_err"),
                get("exp_sensitivity"),
                get("exp_rad"),
                params["rho"],
                params["m"],
                params["delta"],
            )
        ]
    else:  # srm_selection
        reports = [
            srm_selection_bound(
                get("err_star_k"),
                get("rad_Ht_k"),
                params["w_k"],
                params["rho"],
                params["m"],
                params["delta"],
            )
        ]

    out = Path(args.out)
    for report in reports:
        _write_json(report.to_dict(), out, f"bound_{report.name}.json")
        append_csv_row(
            out / "bounds.csv",
            ["name", "value", "delta", "certified"],
            [
                report.name,
                format_float(report.value),
                format_float(report.delta),
                str(report.certified).lower(),
            ],
        )
    _print(f"wrote {len(reports)} report(s) to {out}")
    return 0


def cmd_validate(args) -> int:
    report = run_suite(args.suite, trials=args.trials, seed=args.seed or 0, threads=args.threads)
    path = _write_json(report.to_dict(), Path(args.out), f"validate_{args.suite}.json")
    status = "PASS" if report.passed else "FAIL"
    _print(
        f"{status} {args.suite}: coverage {report.coverage:.4f} "
        f"(target {report.target:.2f}, floor {report.floor:.2f}, "
        f"{report.violations}/{report.trials} violations)"
    )
    _print(f"wrote {path}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="approx-sense",
        description="Sensitivity-aware learning experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument(
            "--threads",
            type=int,
            default=int(os.environ.get("APPROX_SENSE_THREADS", "1")),
            help="worker threads for concurrent trials",
        )

    common(sub.add_parser("generate", help="draw a synthetic sample to CSV"))
    common(sub.add_parser("train", help="run a learner"))
    common(sub.add_parser("sensitivity", help="estimate a sensitivity"))

    rad = sub.add_parser("rademacher", help="complexity of a geometry or point set")
    rad.add_argument("--geometry", default=None, help="geometry JSON path")
    rad.add_argument("--pointset", default=None, help="point-set CSV path")
    rad.add_argument("--method", choices=["exact", "mc"], default="exact")
    rad.add_argument("--n-sigma", type=int, default=2000)
    common(rad, config_required=False)

    common(sub.add_parser("bound", help="evaluate a bound from constituents"))

    val = sub.add_parser("validate", help="run a named validation suite")
    val.add_argument("--suite", required=True)
    val.add_argument("--trials", type=int, default=None)
    common(val, config_required=False)

    return parser


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "sensitivity": cmd_sensitivity,
    "rademacher": cmd_rademacher,
    "bound": cmd_bound,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ApproxSenseError as exc:
        sys.stderr.write(json.dumps(exc.to_dict(), sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
