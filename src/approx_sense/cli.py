"""Command-line driver.

Subcommands: generate, train, sensitivity, rademacher, bound, validate.
Configs are JSON with an explicit schema_version, checked against one table
per config section, as are geometry files; unknown keys are rejected with
their field path.  One top-level seed fixes every output byte-for-byte;
validate's --threads only changes the execution schedule.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, replace
from inspect import signature
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    Constituent,
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
    constrained_erm,
    lambda_erm,
    lambda_grid_srm,
    make_restricted_rad_estimator,
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
# Config description: one table per section, checked by _check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Field:
    """A config value: a JSON type ("integer", "number", "string", "boolean",
    "array", "object", or alternatives joined by "|"), an optional lower
    bound (exclusive when ``strict``), the allowed values, and a rule for
    the items of an array or the values of an object."""

    type: str = "number"
    low: float | None = None
    strict: bool = False
    enum: tuple = ()
    items: Field | None = None
    min_items: int = 0


@dataclass(frozen=True)
class Section:
    """A JSON object: its fields (a Field or a nested Section each) and the
    keys every config needs.  A section keyed by ``key`` maps each kind (an
    allowed value of ``key``) to (the keys it needs, the optional keys it
    reads); any other key is rejected for that kind."""

    fields: dict
    required: tuple = ()
    key: str | None = None
    kinds: dict | None = None


_NUM, _STR = Field("number"), Field("string")
_POSITIVE, _NONNEG, _EXPONENT = Field(low=0, strict=True), Field(low=0), Field(low=1)
_COUNT, _UINT = Field("integer", low=1), Field("integer", low=0)
_LIST = Field("array", items=_NUM, min_items=1)
_CENTERS = Field("array", items=Field("number|array", items=_NUM), min_items=1)

_FEATURE_MAP = Section(
    {"input_dim": _COUNT, "degree": _COUNT, "centers": _CENTERS, "width": _POSITIVE}, key="kind",
    kinds={"identity": ((), ("input_dim",)), "polynomial": (("degree",), ("input_dim",)),
           "rbf": (("centers", "width"), ())},
)
_INPUT_LAW = Section(
    {"halfwidth": _POSITIVE, "sd": _POSITIVE, "centers": _CENTERS}, key="kind",
    kinds={"uniform_box": ((), ("halfwidth",)), "isotropic_gaussian": ((), ("sd",)),
           "gaussian_mixture": (("centers",), ("sd",))},
)
_TASK = Section(
    {"teacher_weights": _LIST, "feature_map": _FEATURE_MAP,
     "input_law": _INPUT_LAW, "label_noise_sd": _NONNEG, "m_labelled": _COUNT,
     "m_unlabelled": _COUNT, "labelled_path": _STR, "unlabelled_path": _STR}, key="kind",
    kinds={"synthetic": (("teacher_weights",), ("feature_map", "input_law", "label_noise_sd",
                                                "m_labelled", "m_unlabelled")),
           "csv": (("labelled_path",), ("unlabelled_path", "feature_map"))},
)
_OPERATOR = Section(
    {"step": _POSITIVE, "clamp": _POSITIVE, "keep": _UINT}, key="kind",
    kinds={"uniform_quantizer": (("step", "clamp"), ()), "magnitude_pruner": (("keep",), ()),
           "stochastic_rounder": (("step", "clamp"), ())},
)
_LOSS = Section({"lipschitz": _POSITIVE}, key="kind",
                kinds=dict.fromkeys(("clipped_absolute", "clipped_hinge", "clipped_squared"),
                                    ((), ("lipschitz",))))
_DOMAIN = Section(
    {"dim": _COUNT, "halfwidth": _POSITIVE,
     "mode": Field("string", enum=("grid", "random", "coordinate_descent")),
     "points_per_axis": Field("integer", low=2), "n_samples": _COUNT, "restarts": _COUNT,
     "iterations": _COUNT, "seed": _UINT},
    required=("dim", "halfwidth"),
)
_LEARNER = Section(
    {"t": _POSITIVE, "p": _EXPONENT, "lambda": _NONNEG,
     "lambdas": Field("array", items=_NONNEG), "weights": Field("array", items=_POSITIVE),
     "thresholds": Field("array", items=_POSITIVE), "epsilon_u": _NONNEG,
     "sensitivity": Field("string", enum=("empirical", "analytic")),
     "input_norm_budget": _NONNEG, "n_sigma": _COUNT, "domain": _DOMAIN},
    required=("domain",), key="algorithm",
    kinds={"constrained_erm": (("t",), ("p",)),
           "srm": (("thresholds",), ("weights", "epsilon_u", "n_sigma", "p")),
           "sensitivity_regularized_erm": ((), ("sensitivity", "p", "input_norm_budget")),
           "lambda_erm": (("lambda",), ("p",)),
           "analytic_lambda_erm": (("lambda",), ("input_norm_budget",)),
           "lambda_grid_srm": (("lambdas", "weights"), ("p",))},
)
_TOP = {"schema_version": Field("integer", enum=(SCHEMA_VERSION,)), "seed": _UINT}
TRAIN = Section(dict(_TOP, task=_TASK, operator=_OPERATOR, loss=_LOSS, learner=_LEARNER),
                required=("schema_version", "seed", "task", "operator", "loss", "learner"))
GENERATE = Section(
    dict(_TOP, task=replace(_TASK, kinds={"synthetic": (
        ("teacher_weights",), ("feature_map", "input_law", "label_noise_sd"))}),
         m=_COUNT, labelled=Field("boolean")),
    required=("schema_version", "seed", "task", "m", "labelled"),
)
_SAMPLED = (("sample_path",), ("seed", "feature_map", "p", "n_omega"))
SENSITIVITY = Section(
    dict(_TOP, weights=_LIST, feature_map=_FEATURE_MAP, operator=_OPERATOR, sample_path=_STR,
         p=_EXPONENT, input_norm_budget=_NONNEG, n_omega=_COUNT),
    required=("schema_version", "weights", "operator"), key="kind",
    # empirical reads neither n_omega nor seed; it accepts both because the
    # benchmark's empirical configs (perfbench/workloads.py) write them
    kinds={"empirical": _SAMPLED,
           "analytic_upper": ((), ("seed", "feature_map", "input_norm_budget")),
           "expected_stochastic": _SAMPLED},
)

_COMPONENT = Section({"V": Field("array", items=_LIST, min_items=1), "mu": _LIST,
                      "center": _LIST}, required=("V", "mu"))
# no schema_version: a geometry file describes a set, not a run
GEOMETRY = Section(
    {"p": _EXPONENT, "radius": _NONNEG, "mu": _LIST,
     "mus": Field("array", items=_LIST, min_items=1),
     "components": Field("array", items=_COMPONENT, min_items=1)},
    required=("p",), key="variant",
    kinds={"pball": (("radius",), ()), "ellipse": (("mu",), ()), "axis_union": (("mus",), ()),
           "rotated_union": (("components",), ()), "clustered": (("components",), ())},
)

_JSON_TYPES = {"integer": int, "number": (int, float), "string": str, "boolean": bool,
               "array": list, "object": dict}


_FLOAT_MAX = sys.float_info.max


def _finite(number) -> bool:
    """False for NaN (Python's json reads it), +-inf, and an int too large
    for a float; never raises."""
    return abs(number) <= _FLOAT_MAX


def _plain(numbers: list) -> bool:
    """True when every item is a finite JSON number (not a bool); the test of
    _finite is inlined, since a geometry matrix has about a thousand items."""
    return all(type(v) in (int, float) and abs(v) <= _FLOAT_MAX for v in numbers)


def _fail(path: tuple, message: str):
    field = "/".join(map(str, path)) or "<root>"
    raise ConfigError(f"config field {field!r}: {message}", field=field)


def _check(value, spec: Field | Section, path: tuple = ()) -> None:
    """Raise ConfigError naming the field path of the first part of
    ``value`` that ``spec`` does not allow.  The value is left unchanged."""
    if isinstance(spec, Section):
        if not isinstance(value, dict):
            _fail(path, f"{json.dumps(value)} is not an object")
        fields, required = spec.fields, spec.required
        if spec.key is not None:
            fields = dict(fields, **{spec.key: Field("string", enum=tuple(spec.kinds))})
        for key, item in value.items():
            if key not in fields:
                _fail((*path, key), "unknown key")
            _check(item, fields[key], (*path, key))
        if spec.key is not None:  # the kind is valid here, if present
            needs, reads = spec.kinds.get(value.get(spec.key), ((), ()))
            required = (spec.key, *required, *needs)
        for key in required:
            if key not in value:
                _fail((*path, key), "required key is missing")
        if spec.key is not None:  # the kind is present and valid here
            for key in value:
                if key not in required and key not in reads:
                    _fail((*path, key), f"not read by {spec.key} {value[spec.key]!r}")
        return
    # a bool is an int in Python but not a JSON number; 7.0 is not an integer
    types = spec.type.split("|")
    if not any(isinstance(value, _JSON_TYPES[t]) and (t == "boolean") == isinstance(value, bool)
               for t in types):
        _fail(path, f"{json.dumps(value)} is not of type {' or '.join(types)}")
    if isinstance(value, (int, float)) and not _finite(value):
        _fail(path, f"{value} is not a finite number")
    if spec.enum and value not in spec.enum:
        _fail(path, f"{json.dumps(value)} is not one of {list(spec.enum)}")
    if spec.low is not None and isinstance(value, (int, float)):
        if value < spec.low or (spec.strict and value == spec.low):
            _fail(path, f"{value} must be {'>' if spec.strict else '>='} {spec.low}")
    if isinstance(value, (list, dict)) and len(value) < spec.min_items:
        _fail(path, f"needs at least {spec.min_items} item(s)")
    # a list of plain finite numbers, or a rectangular matrix of them, is walked
    # item by item only to name a bad item
    if isinstance(value, list) and value:
        row = spec.items
        if row is _NUM and _plain(value):
            return
        if (isinstance(row, Field) and row.items is _NUM
                and all(type(r) is list and len(r) == len(value[0]) for r in value)
                and len(value[0]) >= row.min_items and all(map(_plain, value))):
            return
    # numpy reads nested lists as arrays only when they are rectangular
    if isinstance(value, list) and len({len(v) if isinstance(v, list) else -1 for v in value}) > 1:
        _fail(path, "items must be all numbers or all lists of one length")
    if spec.items is not None and isinstance(value, (list, dict)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            _check(item, spec.items, (*path, key))


def _load_json(path: str, what: str = "config", **details):
    p = Path(path)
    if not p.exists():
        raise MissingInputError(f"{what} file not found: {p}", path=str(p), **details)
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        message = f"{what} is not valid JSON (line {exc.lineno}): {exc.msg}"
        raise ConfigError(message, **details) from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, a huge integer, deep nesting
        raise ConfigError(f"{what} is not valid JSON: {exc}", **details) from exc


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


def _build_samples(task_cfg: dict, seed: int) -> tuple[LabelledSample, UnlabelledSample | None]:
    if task_cfg["kind"] == "csv":
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
    config = _load_json(args.config)
    _check(config, GENERATE)
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
    config = _load_json(args.config)
    _check(config, TRAIN)
    lcfg = config["learner"]
    if lcfg["algorithm"] == "sensitivity_regularized_erm":  # its keys depend on the sensitivity
        sens = lcfg.get("sensitivity", "empirical")
        unread = "input_norm_budget" if sens == "empirical" else "p"
        if unread in lcfg:
            _fail(("learner", unread), f"not read with sensitivity {sens!r}")
    seed = args.seed if args.seed is not None else config["seed"]
    labelled, unlabelled = _build_samples(config["task"], seed)
    op = _build_operator(config["operator"])
    loss = LossSpec(**config["loss"])  # the loss and domain tables hold their fields only
    domain = SearchDomain(**lcfg["domain"])
    fmap = _build_feature_map(config["task"].get("feature_map"), input_dim=labelled.dim)
    p = lcfg.get("p", 1.0)
    algorithm = lcfg["algorithm"]

    def need_unlabelled():
        if unlabelled is None:
            raise ConfigError(f"{algorithm} needs unlabelled data", field="task/unlabelled_path")
        return unlabelled

    if algorithm == "constrained_erm":
        output = constrained_erm(
            labelled, need_unlabelled(), op, lcfg["t"], p, loss, domain, feature_map=fmap
        )
    elif algorithm == "srm":
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
    elif algorithm == "lambda_grid_srm":
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
    else:  # the regularised learner under its three names
        kind = {"lambda_erm": "empirical", "analytic_lambda_erm": "analytic"}.get(
            algorithm, lcfg.get("sensitivity", "empirical")
        )
        if kind == "empirical":
            sensitivity = EmpiricalSensitivity(need_unlabelled(), p)
        else:
            sensitivity = AnalyticSensitivity(lcfg.get("input_norm_budget", 1.0))
        # sensitivity_regularized_erm is lambda = rho, the loss's Lipschitz constant
        coef = loss.lipschitz if algorithm == "sensitivity_regularized_erm" else lcfg["lambda"]
        output = lambda_erm(labelled, op, coef, sensitivity, loss, domain, feature_map=fmap)

    payload = {
        "algorithm": algorithm,
        "weights": [float(v) for v in output.hypothesis.weights],
        "approx_weights": [float(v) for v in output.approx_hypothesis.weights],
        "objective_value": output.objective_value,
        "objective_trace": list(output.objective_trace),
        "chosen": {
            "t": output.chosen_t,
            "k": output.chosen_k,
            # sensitivity_regularized_erm's coefficient is rho, not a lambda
            "lambda": None if algorithm == "sensitivity_regularized_erm" else output.lam,
        },
        "sensitivity_kind": None if algorithm == "lambda_erm" else output.sensitivity_kind,
        "boundary_hits": output.boundary_hits,
        "clamped": output.clamped,
        "per_lambda": output.per_lambda,
        "seed": seed,
    }
    path = _write_json(payload, Path(args.out), "train.json")
    _print(f"wrote {path}")
    return 0


def cmd_sensitivity(args) -> int:
    config = _load_json(args.config)
    _check(config, SENSITIVITY)
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
        geometry = _load_json(args.geometry, "geometry")
        _check(geometry, GEOMETRY)
        if geometry["variant"] == "clustered":  # the one kind whose components need a center
            for i, component in enumerate(geometry["components"]):
                if "center" not in component:
                    _fail(("components", i, "center"), "required key is missing")
        estimate = GeometryModel(**geometry).rademacher()
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


_NUMBERS = replace(_LIST, type="number|array")
# bound kind -> the calculator's name in this module (looked up when called,
# so it can be wrapped) and the parameters that take a list
_BOUNDS = {
    "uniform_restricted": ("uniform_restricted_bound", {}),
    "srm_uniform": ("srm_uniform_bound", {}),
    "joint": ("joint_bounds", {}),
    "regularized": ("regularized_bound", {"err_star_t": _NUMBERS, "t": _NUMBERS}),
    "lambda_equivalence": ("lambda_equivalence_bound", {}),
    "stochastic": ("stochastic_bound", {}),
    "srm_selection": ("srm_selection_bound",
                      {"err_star_k": _LIST, "rad_Ht_k": _LIST, "w_k": _LIST}),
}
# calculator parameters given in params only; every other parameter is a
# constituent, given in params or read from the JSON file that constituents
# names
_BOUND_PARAMS = {"rho": _NUM, "m": _COUNT, "delta": _POSITIVE, "t": _NUM, "w_k": _NUM,
                 "lam": _NUM, "epsilon_u": _NUM}
BOUND = Section(
    {"schema_version": _TOP["schema_version"], "params": Field("object"),
     "constituents": Field("object", items=_STR)},
    required=("schema_version", "params"), key="bound",
    kinds=dict.fromkeys(_BOUNDS, ((), ("constituents",))),
)


def _read_constituent(key: str, path: str):
    """The 'value' of a constituent file; a value that carries a standard
    error or comes from Monte Carlo is marked uncertified."""
    payload = _load_json(path, f"constituent {key!r}", constituent=key)
    value = payload.get("value") if isinstance(payload, dict) else None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"constituent file {path} has no numeric 'value' field", constituent=key)
    if payload.get("standard_error") or payload.get("method") == "monte_carlo":
        return Constituent(float(value), certified=False)
    return float(value)


def cmd_bound(args) -> int:
    config = _load_json(args.config)
    _check(config, BOUND)
    kind = config["bound"]
    name, lists = _BOUNDS[kind]
    params, files = config["params"], config.get("constituents", {})
    calculator = globals()[name]
    parameters = {"lambda" if p.name == "lam" else p.name: p
                  for p in signature(calculator).parameters.values()}
    unknown = [("params", k) for k in params if k not in parameters]
    unknown += [("constituents", k) for k in files if k not in parameters]
    if unknown:
        _fail(unknown[0], f"not an input of the {kind} bound")
    kwargs = {}
    for key, parameter in parameters.items():
        spec = lists.get(key) or _BOUND_PARAMS.get(parameter.name, _NUM)
        typed = parameter.name in _BOUND_PARAMS
        if key in files and (typed or "number" not in spec.type):
            _fail(("constituents", key), f"{key} cannot be read from a file")
        if key in params:
            _check(params[key], spec, ("params", key))
            kwargs[parameter.name] = params[key]
        elif key in files:
            kwargs[parameter.name] = _read_constituent(key, files[key])
        elif parameter.default is parameter.empty:
            if typed:
                _fail(("params", key), "required parameter is missing")
            raise MissingInputError(f"missing constituent {key!r}", constituent=key)
    result = calculator(**kwargs)
    reports = list(result) if isinstance(result, tuple) else [result]

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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="approx-sense",
        description="Sensitivity-aware learning experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True, seed=True):
        if config:
            p.add_argument("--config", required=True, help="JSON config path")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default="out", help="output directory")

    common(sub.add_parser("generate", help="draw a synthetic sample to CSV"))
    common(sub.add_parser("train", help="run a learner"))
    common(sub.add_parser("sensitivity", help="estimate a sensitivity"))

    rad = sub.add_parser("rademacher", help="complexity of a geometry or point set")
    rad.add_argument("--geometry", default=None, help="geometry JSON path")
    rad.add_argument("--pointset", default=None, help="point-set CSV path")
    rad.add_argument("--method", choices=["exact", "mc"], default="exact")
    rad.add_argument("--n-sigma", type=int, default=2000)
    common(rad, config=False)

    common(sub.add_parser("bound", help="evaluate a bound from constituents"), seed=False)

    val = sub.add_parser("validate", help="run a named validation suite")
    val.add_argument("--suite", required=True)
    val.add_argument("--trials", type=int, default=None)
    val.add_argument("--threads", type=int, default=1,
                     help="worker threads for trials; never changes a result")
    common(val, config=False)

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
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise InvalidParameterError(f"--seed must be >= 0, got {args.seed}")
        return _COMMANDS[args.command](args)
    except ApproxSenseError as exc:
        sys.stderr.write(json.dumps(exc.to_dict(), sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
