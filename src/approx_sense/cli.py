"""Command-line driver.

Subcommands: generate, train, sensitivity, rademacher, bound, validate.
Configs are JSON with an explicit schema_version, checked against one table
per config section, as are geometry files; unknown keys are rejected with
their field path.  A section that _build makes an object of is described by
that class's fields (core.param), which its constructor checks too.  A
geometry file's format lives here only (_geometry).  One top-level seed
fixes every output byte-for-byte.  validate runs its trials in order on one
thread; its --threads is checked and changes nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from dataclasses import dataclass, replace
from inspect import signature
from pathlib import Path

import numpy as np

from . import __version__, _bind, _lazy_getattr
from .errors import ApproxSenseError, ConfigError, InvalidParameterError, MissingInputError

# The names that the subcommands call, directly or (a kind's class) through
# _build, are the package's exports (approx_sense._EXPORTS), bound as globals
# of this module a module at a time: by __getattr__ for an access from
# outside, or by main, which binds the exports of the modules its subcommand
# runs (_COMMANDS).  So a subcommand imports only what it runs, and a name
# replaced from outside (setattr) is the one that the subcommands call.
__getattr__ = _lazy_getattr(globals(), __name__)

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
    """A JSON object: its fields (a Field, a nested Section, or the name of
    the class whose field of that name carries its rule) and the keys every
    config needs.  A section keyed by ``key`` maps each kind (an
    allowed value of ``key``) to (the keys it needs, the optional keys it
    reads), or to the name of the class _build makes of it (see _rules); any
    other key is rejected for that kind.  ``cls`` names a keyless section's
    class.  With a class, ``fields`` holds only the keys it gives no rule."""

    fields: dict
    required: tuple = ()
    key: str | None = None
    kinds: dict | None = None
    cls: str | None = None


_NUM, _STR = Field("number"), Field("string")
_POSITIVE, _NONNEG, _EXPONENT = Field(low=0, strict=True), Field(low=0), Field(low=1)
_COUNT, _UINT = Field("integer", low=1), Field("integer", low=0)
_LIST = Field("array", items=_NUM, min_items=1)
_CENTERS = {"centers": Field("array", items=Field("number|array", items=_NUM), min_items=1)}

_FEATURE_MAP = Section(_CENTERS, key="kind", kinds={
    "identity": "IdentityMap", "polynomial": "PolynomialMap", "rbf": "RbfMap"})
_INPUT_LAW = Section(_CENTERS, key="kind", kinds={
    "uniform_box": "UniformBox", "isotropic_gaussian": "IsotropicGaussian",
    "gaussian_mixture": "GaussianMixture"})
_TASK = Section(
    {"teacher_weights": _LIST, "feature_map": _FEATURE_MAP,
     "input_law": _INPUT_LAW, "label_noise_sd": "SyntheticTask", "m_labelled": _COUNT,
     "m_unlabelled": _COUNT, "labelled_path": _STR, "unlabelled_path": _STR}, key="kind",
    kinds={"synthetic": (("teacher_weights",), ("feature_map", "input_law", "label_noise_sd",
                                                "m_labelled", "m_unlabelled")),
           "csv": (("labelled_path",), ("unlabelled_path", "feature_map"))},
)
_OPERATOR = Section({}, key="kind", kinds={
    "uniform_quantizer": "UniformQuantizer", "magnitude_pruner": "MagnitudePruner",
    "stochastic_rounder": "StochasticRounder"})
_LOSS = Section({}, cls="LossSpec")
_DOMAIN = Section({}, cls="SearchDomain")
_LEARNER = Section(
    {"t": _POSITIVE, "p": _EXPONENT, "lambda": _NONNEG,
     "lambdas": Field("array", items=_NONNEG, min_items=1),
     "weights": Field("array", items=_POSITIVE, min_items=1),
     "thresholds": Field("array", items=_POSITIVE, min_items=1), "epsilon_u": _NONNEG,
     "sensitivity": Field("string", enum=("empirical", "analytic")),
     "input_norm_budget": "AnalyticSensitivity", "n_sigma": _COUNT, "domain": _DOMAIN},
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
           "analytic_upper": ((), ("feature_map", "input_norm_budget")),
           "expected_stochastic": _SAMPLED},
)

_COMPONENT = Section({"V": Field("array", items=_LIST, min_items=1), "mu": _LIST},
                     required=("V", "mu"))
# no schema_version: a geometry file describes a set, not a run
GEOMETRY = Section(
    {"p": _EXPONENT, "radius": _NONNEG, "mu": _LIST,
     "mus": Field("array", items=_LIST, min_items=1),
     "components": Field("array", items=_COMPONENT, min_items=1)},
    required=("p",), key="variant",
    kinds={"pball": (("radius",), ()), "ellipse": (("mu",), ()), "axis_union": (("mus",), ()),
           "rotated_union": (("components",), ()), "clustered": (("components",), ())},
)
# a clustered file's components also need a center
_CLUSTER = replace(_COMPONENT, fields=dict(_COMPONENT.fields, center=_LIST),
                   required=("V", "mu", "center"))
_CLUSTERED = replace(GEOMETRY, fields=dict(
    GEOMETRY.fields, components=Field("array", items=_CLUSTER, min_items=1)))

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


@functools.cache
def _rules(name: str) -> tuple[dict, tuple, tuple]:
    """The Field of each field of class ``name`` that has a rule (core.param),
    the keys it needs (init fields without a default) and those it may read;
    input_dim is optional, since _build takes it from the data."""
    rules, needs, reads = {}, [], []
    for f in dataclasses.fields(getattr(sys.modules[__name__], name)):
        if f.metadata:
            rules[f.name] = Field(**f.metadata)
        if f.init:
            optional = f.default is not dataclasses.MISSING or f.name == "input_dim"
            (reads if optional else needs).append(f.name)
    return rules, tuple(needs), tuple(reads)


def _table(spec: Section) -> tuple[dict, tuple, dict]:
    """(fields, required keys, kind -> (needs, reads)) of a section, with
    each class it names read in by _rules."""
    fields = {key: _rules(rule)[0][key] if isinstance(rule, str) else rule
              for key, rule in spec.fields.items()}
    required, kinds = spec.required, {}
    for kind, rule in (spec.kinds or {}).items():
        if isinstance(rule, str):
            own, *rule = _rules(rule)
            fields = {**own, **fields}
        kinds[kind] = rule
    if spec.cls is not None:
        own, needs, _ = _rules(spec.cls)
        fields, required = {**own, **fields}, (*required, *needs)
    if spec.key is not None:
        fields = dict(fields, **{spec.key: Field("string", enum=tuple(kinds))})
    return fields, required, kinds


def _check(value, spec: Field | Section, path: tuple = ()) -> None:
    """Raise ConfigError naming the field path of the first part of
    ``value`` that ``spec`` does not allow.  The value is left unchanged."""
    if isinstance(spec, Section):
        if not isinstance(value, dict):
            _fail(path, f"{json.dumps(value)} is not an object")
        fields, required, kinds = _table(spec)
        for key, item in value.items():
            if key not in fields:
                _fail((*path, key), "unknown key")
            _check(item, fields[key], (*path, key))
        if spec.key is not None:  # the kind is valid here, if present
            needs, reads = kinds.get(value.get(spec.key), ((), ()))
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


_IDENTITY = {"kind": "identity"}


def _build(spec: Section, cfg: dict, **given):
    """The object of a checked section: the class it names (``cls``, or its
    kind's), called with the section's other keys and with each ``given``
    value (such as input_dim from the data) that the class has a field for
    and the section lacks."""
    cls = getattr(sys.modules[__name__], spec.cls or spec.kinds[cfg[spec.key]])
    # a dataclass's own field table: inspect.signature costs ~300x as much
    kwargs = {key: value for key, value in given.items() if key in cls.__dataclass_fields__}
    kwargs.update((key, value) for key, value in cfg.items() if key != spec.key)
    return cls(**kwargs)


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
    fmap = _build(_FEATURE_MAP, task_cfg.get("feature_map", _IDENTITY), input_dim=len(weights))
    teacher = Hypothesis(weights=weights, feature_map=fmap)
    law = _build(_INPUT_LAW, task_cfg.get("input_law", {"kind": "uniform_box"}))
    return SyntheticTask(
        teacher=teacher,
        input_law=law,
        label_noise_sd=task_cfg.get("label_noise_sd", 0.0),
        seed=seed,
    )


def _geometry(g) -> RadEstimate:
    """The closed form of the set that a geometry file describes, checked in
    one pass against its variant's table: a p-ball's crude sandwich, or the
    bound of its p-ellipses (V = None for ellipse and axis_union) or
    clusters."""
    _check(g, _CLUSTERED if isinstance(g, dict) and g.get("variant") == "clustered" else GEOMETRY)
    variant, p = g["variant"], float(g["p"])  # an integer JSON value writes the same bytes
    if variant == "pball":
        lower, upper = crude_bounds(float(g["radius"]), p)
        return RadEstimate(value=upper, method="certified_upper", m=0,
                           note=f"crude sandwich lower bound {format(lower, '.17g')}")
    if variant == "clustered":
        return cluster_bound([Cluster(c["center"], Ellipse(c["mu"], c["V"]))
                              for c in g["components"]], p)
    if variant == "rotated_union":
        return rotated_union_bound([Ellipse(c["mu"], c["V"]) for c in g["components"]], p)
    mus = g["mus"] if variant == "axis_union" else [g["mu"]]
    return rotated_union_bound([Ellipse(mu) for mu in mus], p)


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


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args, config: dict, seed: int) -> int:
    task = _build_task(config["task"], seed)
    sample = generate(task, config["m"], labelled=config["labelled"])
    out = Path(args.out)
    name = "labelled.csv" if config["labelled"] else "unlabelled.csv"
    out.mkdir(parents=True, exist_ok=True)
    write_sample_csv(sample, out / name)
    print(f"wrote {out / name}")
    return 0


def cmd_train(args, config: dict, seed: int) -> int:
    lcfg = config["learner"]
    if lcfg["algorithm"] == "srm" and lcfg["domain"].get("mode") == "coordinate_descent":
        _fail(("learner", "domain", "mode"), "srm's penalty estimator enumerates the domain, "
              "which coordinate_descent does not; use grid or random")
    if lcfg["algorithm"] == "sensitivity_regularized_erm":  # its keys depend on the sensitivity
        sens = lcfg.get("sensitivity", "empirical")
        unread = "input_norm_budget" if sens == "empirical" else "p"
        if unread in lcfg:
            _fail(("learner", unread), f"not read with sensitivity {sens!r}")
    labelled, unlabelled = _build_samples(config["task"], seed)
    op = _build(_OPERATOR, config["operator"])
    loss = _build(_LOSS, config["loss"])
    domain = _build(_DOMAIN, lcfg["domain"])
    fmap = _build(_FEATURE_MAP, config["task"].get("feature_map", _IDENTITY),
                  input_dim=labelled.dim)
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
    print(f"wrote {path}")
    return 0


def cmd_sensitivity(args, config: dict, seed: int) -> int:
    weights = np.asarray(config["weights"], dtype=float)
    fmap = _build(_FEATURE_MAP, config.get("feature_map", _IDENTITY), input_dim=len(weights))
    h = Hypothesis(weights=weights, feature_map=fmap)
    op = _build(_OPERATOR, config["operator"])
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
    print(f"wrote {path}")
    return 0


def cmd_rademacher(args, config: dict | None, seed: int) -> int:
    if (args.geometry is None) == (args.pointset is None):
        raise ConfigError("pass exactly one of --geometry or --pointset")
    # a flag that the chosen path does not read is an error, not ignored
    if args.geometry is not None and (args.method, args.n_sigma) != (None, None):
        raise ConfigError("--geometry reads neither --method nor --n-sigma")
    method = args.method or "exact"
    if method == "exact" and args.n_sigma is not None:
        raise ConfigError("--n-sigma is read only with --method mc")
    if args.geometry is not None:
        estimate = _geometry(_load_json(args.geometry, "geometry"))
    else:
        points = read_matrix_csv(args.pointset)
        ps = SensitivityPointSet(points=points)
        if method == "exact":
            if ps.m > EXACT_ENUMERATION_CAP:
                raise InvalidParameterError(
                    f"exact method capped at m = {EXACT_ENUMERATION_CAP}; "
                    "rerun with --method mc"
                )
            estimate = exact_rademacher_pointset(ps)
        else:
            n_sigma = 2000 if args.n_sigma is None else args.n_sigma
            estimate = mc_rademacher_pointset(ps, n_sigma=n_sigma, seed=seed)
    path = _write_json(estimate.to_dict(), Path(args.out), "rademacher.json")
    print(f"wrote {path}")
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


def cmd_bound(args, config: dict, seed: int) -> int:
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
    print(f"wrote {len(reports)} report(s) to {out}")
    return 0


def cmd_validate(args, config: dict | None, seed: int) -> int:
    if args.threads < 1:
        raise InvalidParameterError(f"threads must be >= 1, got {args.threads}")
    report = run_suite(args.suite, trials=args.trials, seed=seed)
    path = _write_json(report.to_dict(), Path(args.out), f"validate_{args.suite}.json")
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{status} {args.suite}: coverage {report.coverage:.4f} "
        f"(target {report.target:.2f}, floor {report.floor:.2f}, "
        f"{report.violations}/{report.trials} violations)"
    )
    print(f"wrote {path}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors (a missing or unknown option, a value of
    the wrong type or out of its choices) are invalid_parameter errors, so
    that main prints them as one JSON line; its subparsers share the class."""

    def error(self, message):
        raise InvalidParameterError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged
    parser = _Parser(
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
    # None: not given; --pointset reads them as exact and 2000 draws
    rad.add_argument("--method", choices=["exact", "mc"], default=None)
    rad.add_argument("--n-sigma", type=int, default=None)
    common(rad, config=False)

    common(sub.add_parser("bound", help="evaluate a bound from constituents"), seed=False)

    val = sub.add_parser("validate", help="run a named validation suite")
    val.add_argument("--suite", required=True)
    val.add_argument("--trials", type=int, default=None)
    val.add_argument("--threads", type=int, default=1,
                     help="checked and unused: trials always run in order on one thread")
    common(val, config=False)

    return parser


# subcommand -> its function, the modules it runs and the table that checks
# its --config (None: it has no --config)
_COMMANDS = {
    "generate": (cmd_generate, ("core", "dataio", "synthetic"), GENERATE),
    "train": (cmd_train, ("core", "dataio", "learners", "synthetic"), TRAIN),
    "sensitivity": (cmd_sensitivity, ("core", "dataio", "sensitivity"), SENSITIVITY),
    "rademacher": (cmd_rademacher, ("dataio", "radgeom"), None),
    "bound": (cmd_bound, ("bounds", "dataio"), BOUND),
    "validate": (cmd_validate, ("validation",), None),
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)  # -h and --version still exit 0
        command, modules, table = _COMMANDS[args.command]
        # a numpy warning would print ahead of the JSON error; a result that
        # an overflow makes non-finite is rejected by the object holding it.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            seed = getattr(args, "seed", None)  # bound has no --seed
            if seed is not None and seed < 0:
                raise InvalidParameterError(f"--seed must be >= 0, got {seed}")
            _bind(globals(), *modules)  # before _check, which reads the classes' fields
            config = None
            if table is not None:
                config = _load_json(args.config)
                _check(config, table)
            if seed is None:  # --seed, else the config's seed, else 0
                seed = (config or {}).get("seed", 0)
            return command(args, config, seed)
    except OSError as exc:  # a path that names a directory, an --out that is a file
        error = InvalidParameterError(f"cannot use path {exc.filename}: {exc.strerror}",
                                      path=exc.filename)
    except ApproxSenseError as exc:
        error = exc
    sys.stderr.write(json.dumps(error.to_dict(), sort_keys=True) + "\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
