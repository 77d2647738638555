"""Seeded operation lists for the four benchmark workloads.

``build(workload, seed, inputs)`` writes every input one workload needs
(configs, CSV samples, point sets, geometry files) under ``inputs`` and
returns the ops of one pass.  The same seed always writes the same files.
Sizes stay fixed across seeds; only the data values change, so the work per
pass does not depend on the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("train_grid", "train_descent", "validate_coverage", "oracles")
LOSS_KINDS = ("clipped_absolute", "clipped_hinge", "clipped_squared")
QUANTIZER = {"kind": "uniform_quantizer", "step": 0.5, "clamp": 1.0}


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``argv`` excludes ``--out``, which every run sets fresh."""

    name: str
    argv: tuple[str, ...]
    check: dict = field(default_factory=dict)


def _write_csv(path: Path, header: list[str], rows: np.ndarray) -> str:
    lines = [",".join(header)]
    lines += [",".join(format(float(v), ".17g") for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _write_sample(path: Path, inputs: np.ndarray, targets: np.ndarray | None = None) -> str:
    header = [f"x{i}" for i in range(inputs.shape[1])]
    if targets is None:
        return _write_csv(path, header, inputs)
    return _write_csv(path, header + ["target"], np.column_stack([inputs, targets]))


def _write_json(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _train_op(inputs: Path, name: str, task: dict, operator: dict, loss: str, learner: dict,
              seed: int, gate: str) -> Op:
    config = {
        "schema_version": 1,
        "seed": seed,
        "task": task,
        "operator": operator,
        "loss": {"kind": loss, "lipschitz": 1.0},
        "learner": learner,
    }
    path = _write_json(inputs / f"{name}.json", config)
    return Op(name, ("train", "--config", path), {"gate": gate, "config": config})


def _csv_task(inputs: Path, tag: str, x_lab, y_lab, x_unlab, feature_map=None) -> dict:
    task = {
        "kind": "csv",
        "labelled_path": _write_sample(inputs / f"{tag}_lab.csv", x_lab, y_lab),
        "unlabelled_path": _write_sample(inputs / f"{tag}_unlab.csv", x_unlab),
    }
    if feature_map is not None:
        task["feature_map"] = feature_map
    return task


def _synthetic_task(teacher, m, m_u, feature_map=None) -> dict:
    task = {
        "kind": "synthetic",
        "teacher_weights": [float(v) for v in teacher],
        "input_law": {"kind": "uniform_box", "halfwidth": 1.0},
        "label_noise_sd": 0.05,
        "m_labelled": m,
        "m_unlabelled": m_u,
    }
    if feature_map is not None:
        task["feature_map"] = feature_map
    return task


def _seed(rng) -> int:
    return int(rng.integers(2**31))


# ---------------------------------------------------------------------------
# train_grid: exhaustive grid oracles, the per-candidate learner loop
# ---------------------------------------------------------------------------


def _train_grid(rng, inputs: Path) -> list[Op]:
    m, m_u = 200, 400
    teacher = rng.uniform(-0.8, 0.8, size=2)
    x_lab = rng.uniform(-1.0, 1.0, size=(m, 2))
    y_lab = x_lab @ teacher + rng.normal(0.0, 0.05, size=m)
    csv = _csv_task(inputs, "grid2", x_lab, y_lab, rng.uniform(-1.0, 1.0, size=(m_u, 2)))

    def grid(n, dim=2):
        return {"dim": dim, "halfwidth": 1.0, "mode": "grid", "points_per_axis": n}

    def synth(dim=2):
        return _synthetic_task(rng.uniform(-0.8, 0.8, size=dim), m, m_u)

    lam = lambda: float(rng.uniform(0.2, 0.8))  # noqa: E731
    specs = [
        ("lambda_erm", csv, LOSS_KINDS[0], {"algorithm": "lambda_erm", "lambda": lam()}),
        ("sensreg_empirical", synth(), LOSS_KINDS[1],
         {"algorithm": "sensitivity_regularized_erm", "sensitivity": "empirical"}),
        ("sensreg_analytic", csv, LOSS_KINDS[2],
         {"algorithm": "sensitivity_regularized_erm", "sensitivity": "analytic",
          "input_norm_budget": 1.0}),
        ("analytic_lambda_erm", synth(), LOSS_KINDS[0],
         {"algorithm": "analytic_lambda_erm", "lambda": lam(), "input_norm_budget": 1.2}),
        ("constrained_erm", csv, LOSS_KINDS[1],
         {"algorithm": "constrained_erm", "t": float(rng.uniform(0.1, 0.3))}),
        ("srm", synth(), LOSS_KINDS[2],
         {"algorithm": "srm", "thresholds": [0.05, 0.1, 0.2, 0.4], "n_sigma": 256}),
    ]
    ops = []
    for name, task, loss, learner in specs:
        learner = dict(learner, domain=grid(51))
        ops.append(_train_op(inputs, name, task, QUANTIZER, loss, learner, _seed(rng), "grid"))
    ops.append(_train_op(
        inputs, "lambda_grid_srm_31", csv, QUANTIZER, LOSS_KINDS[0],
        {"algorithm": "lambda_grid_srm", "lambdas": [0.1, 0.3, 0.9],
         "weights": [0.3, 0.3, 0.3], "domain": grid(31)},
        _seed(rng), "grid"))
    ops.append(_train_op(
        inputs, "lambda_erm_3d", synth(3), QUANTIZER, LOSS_KINDS[1],
        {"algorithm": "lambda_erm", "lambda": lam(), "p": 2.0, "domain": grid(13, 3)},
        _seed(rng), "grid"))
    return ops


# ---------------------------------------------------------------------------
# train_descent: coordinate descent and random search on wide feature maps
# ---------------------------------------------------------------------------


def _train_descent(rng, inputs: Path) -> list[Op]:
    m, m_u = 200, 400
    axis = np.linspace(-1.0, 1.0, 3)
    rbf = {"kind": "rbf", "centers": [[a, b] for a in axis for b in axis], "width": 0.7}
    poly = {"kind": "polynomial", "input_dim": 2, "degree": 3}
    pruner = lambda keep: {"kind": "magnitude_pruner", "keep": keep}  # noqa: E731

    x2 = rng.uniform(-1.0, 1.0, size=(m, 2))
    y2 = 0.6 * x2[:, 0] - 0.4 * x2[:, 0] * x2[:, 1] + 0.3 * x2[:, 1] ** 3
    y2 = y2 + rng.normal(0.0, 0.05, size=m)
    poly_csv = _csv_task(inputs, "poly", x2, y2, rng.uniform(-1.0, 1.0, size=(m_u, 2)), poly)
    x8 = rng.uniform(-1.0, 1.0, size=(m, 8))
    y8 = x8 @ rng.uniform(-0.6, 0.6, size=8) + rng.normal(0.0, 0.05, size=m)
    lin_csv = _csv_task(inputs, "lin8", x8, y8, rng.uniform(-1.0, 1.0, size=(m_u, 8)))

    def descent(dim):
        return {"dim": dim, "halfwidth": 1.0, "mode": "coordinate_descent",
                "points_per_axis": 21, "restarts": 4, "iterations": 2, "seed": _seed(rng)}

    def random(dim, n):
        return {"dim": dim, "halfwidth": 1.0, "mode": "random", "n_samples": n,
                "seed": _seed(rng)}

    # step 0.1 is the axis spacing, so every axis point is its own level and
    # distinct candidates have distinct Q(w)
    fine = {"kind": "uniform_quantizer", "step": 0.1, "clamp": 1.0}
    specs = [
        ("cd_lambda_poly", poly_csv, fine, LOSS_KINDS[0],
         {"algorithm": "lambda_erm", "lambda": float(rng.uniform(0.2, 0.8)),
          "domain": descent(10)}),
        ("cd_sensreg_rbf", _synthetic_task(rng.uniform(-0.8, 0.8, size=9), m, m_u, rbf),
         fine, LOSS_KINDS[1],
         {"algorithm": "sensitivity_regularized_erm", "sensitivity": "empirical",
          "domain": descent(9)}),
        ("cd_analytic_lin8", lin_csv, fine, LOSS_KINDS[2],
         {"algorithm": "analytic_lambda_erm", "lambda": float(rng.uniform(0.2, 0.8)),
          "input_norm_budget": 1.5, "domain": descent(8)}),
        ("rand_constrained_pruned", lin_csv, pruner(4), LOSS_KINDS[0],
         {"algorithm": "constrained_erm", "t": float(rng.uniform(0.3, 0.4)),
          "domain": random(8, 1000)}),
        ("rand_srm_poly", poly_csv, QUANTIZER, LOSS_KINDS[1],
         {"algorithm": "srm", "thresholds": [0.05, 0.1, 0.2, 0.4], "n_sigma": 256,
          "domain": random(10, 600)}),
        ("rand_lambda_rbf_pruned",
         _synthetic_task(rng.uniform(-0.8, 0.8, size=9), m, m_u, rbf), pruner(5),
         LOSS_KINDS[2],
         {"algorithm": "lambda_erm", "lambda": float(rng.uniform(0.2, 0.8)),
          "domain": random(9, 1000)}),
    ]
    return [
        _train_op(inputs, name, task, op, loss, learner, _seed(rng), "descent")
        for name, task, op, loss, learner in specs
    ]


# ---------------------------------------------------------------------------
# validate_coverage: Monte Carlo coverage suites on a two-thread pool
# ---------------------------------------------------------------------------

COVERAGE_TRIALS = {"prop2": 3, "prop3": 3, "prop4": 20, "lemma1": 50, "prop10": 50}


def _validate_coverage(rng, inputs: Path) -> list[Op]:
    seed = str(_seed(rng))
    return [
        Op(f"validate_{suite}",
           ("validate", "--suite", suite, "--trials", str(n), "--seed", seed, "--threads", "2"),
           {"gate": "validate"})
        for suite, n in COVERAGE_TRIALS.items()
    ]


# ---------------------------------------------------------------------------
# oracles: Rademacher oracles, sensitivity estimators, bounds, exactness suites
# ---------------------------------------------------------------------------

EXACTNESS_TRIALS = {
    "ellipse_exact": 100,
    "union_exact": 100,
    "crude_sandwich": 50,
    "cluster_dominance": 200,
    "kernel_dominance": 100,
}


def _orthogonal(rng, m: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(m, m)))
    return q * np.sign(np.diag(r))


def _bound_configs(rng, inputs: Path) -> list[tuple[str, dict]]:
    u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    base = lambda: {"rho": 1.0, "m": int(rng.integers(50, 500)), "delta": 0.05}  # noqa: E731
    rad_file = _write_json(inputs / "rad_mc.json", {
        "value": u(0.01, 0.1), "method": "monte_carlo", "m": 50,
        "standard_error": u(0.001, 0.005)})
    return [
        ("uniform_restricted", {"params": dict(base(), emp_err=u(0, 0.3)),
                                "constituents": {"rad_Ht": rad_file}}),
        ("srm_uniform", {"params": dict(base(), emp_err=u(0, 0.3), rad_Ht_k=u(0, 0.1),
                                        w_k=u(0.1, 0.5))}),
        ("joint", {"params": dict(base(), err_min_approx=u(0, 0.2), err_star=u(0, 0.2),
                                  rad_HA=u(0, 0.1), t=u(0.05, 0.3))}),
        ("regularized", {"params": dict(base(), err_star_t=[u(0, 0.3) for _ in range(5)],
                                        t=[0.05, 0.1, 0.2, 0.3, 0.4], rad_HA=u(0, 0.1),
                                        epsilon_u=u(0, 0.05))}),
        ("lambda_equivalence", {"params": dict(base(), rad_HA=u(0, 0.1), **{"lambda": u(0.1, 1)},
                                               epsilon_u=u(0, 0.05))}),
        ("stochastic", {"params": dict(base(), exp_emp_err=u(0, 0.3),
                                       exp_sensitivity=u(0, 0.2), exp_rad=u(0, 0.1))}),
        ("srm_selection", {"params": dict(base(), err_star_k=[u(0, 0.3) for _ in range(4)],
                                          rad_Ht_k=[u(0, 0.1) for _ in range(4)],
                                          w_k=[0.5, 0.25, 0.125, 0.0625])}),
    ]


def _oracles(rng, inputs: Path) -> list[Op]:
    ops = []
    for m in (18, 20, 22):
        path = _write_csv(inputs / f"points_m{m}.csv", [f"x{i}" for i in range(m)],
                          rng.uniform(0.0, 1.0, size=(50, m)))
        ops.append(Op(f"rad_exact_m{m}", ("rademacher", "--pointset", path, "--method", "exact"),
                      {"gate": "rad_exact", "m": m}))
    ops.append(Op("rad_mc_m22", ("rademacher", "--pointset", path, "--method", "mc",
                                 "--n-sigma", "20000", "--seed", str(_seed(rng))),
                  {"gate": "rad_mc", "m": 22}))

    p = lambda: float(rng.choice([1.0, 1.5, 2.0, 3.0]))  # noqa: E731
    mu = lambda m: [float(v) for v in rng.uniform(0.1, 3.0, size=m)]  # noqa: E731
    V = lambda m: _orthogonal(rng, m).tolist()  # noqa: E731
    geometries = {
        "ellipse": {"variant": "ellipse", "p": p(), "mu": mu(20)},
        "axis_union": {"variant": "axis_union", "p": p(), "mus": [mu(20) for _ in range(6)]},
        "rotated_union": {"variant": "rotated_union", "p": p(),
                          "components": [{"V": V(16), "mu": mu(16)} for _ in range(4)]},
        "clustered": {"variant": "clustered", "p": p(),
                      "components": [{"center": mu(16), "V": V(16), "mu": mu(16)}
                                     for _ in range(4)]},
    }
    for variant, geometry in geometries.items():
        path = _write_json(inputs / f"geometry_{variant}.json", geometry)
        ops.append(Op(f"rad_geometry_{variant}", ("rademacher", "--geometry", path),
                      {"gate": "geometry", "geometry": geometry}))

    sample = _write_sample(inputs / "sens_sample.csv", rng.uniform(-1.0, 1.0, size=(2000, 6)))
    weights = [float(v) for v in rng.uniform(-1.0, 1.0, size=6)]
    sens = {
        "expected_stochastic": {"kind": "stochastic_rounder", "step": 0.25, "clamp": 1.0},
        "empirical": QUANTIZER,
    }
    for kind, operator in sens.items():
        config = {"schema_version": 1, "seed": _seed(rng), "weights": weights,
                  "operator": operator, "sample_path": sample, "p": 1.0, "kind": kind,
                  "n_omega": 2000}
        path = _write_json(inputs / f"sens_{kind}.json", config)
        ops.append(Op(f"sensitivity_{kind}", ("sensitivity", "--config", path),
                      {"gate": "sensitivity", "config": config}))

    for kind, body in _bound_configs(rng, inputs):
        path = _write_json(inputs / f"bound_{kind}.json",
                           dict(body, schema_version=1, bound=kind))
        ops.append(Op(f"bound_{kind}", ("bound", "--config", path), {"gate": "bound"}))

    seed = str(_seed(rng))
    for suite, n in EXACTNESS_TRIALS.items():
        ops.append(Op(f"validate_{suite}",
                      ("validate", "--suite", suite, "--trials", str(n), "--seed", seed),
                      {"gate": "validate"}))
    return ops


# ---------------------------------------------------------------------------
# Touch ops: one small call into each layer a workload would otherwise skip,
# so every per-layer metric is measured (small, not zero) on every workload.
# They are gated and traced but left out of the end-to-end times.
# ---------------------------------------------------------------------------


def _touch(kind: str, rng, inputs: Path) -> Op:
    op = _touch_op(kind, rng, inputs)
    return Op(op.name, op.argv, dict(op.check, touch=True))


def _touch_op(kind: str, rng, inputs: Path) -> Op:
    if kind == "validate":
        return Op("touch_validate", ("validate", "--suite", "crude_sandwich", "--trials", "3",
                                     "--seed", str(_seed(rng))), {"gate": "validate"})
    if kind == "bound":
        config = {"schema_version": 1, "bound": "uniform_restricted",
                  "params": {"emp_err": float(rng.uniform(0, 0.3)),
                             "rad_Ht": float(rng.uniform(0, 0.1)),
                             "rho": 1.0, "m": 100, "delta": 0.05}}
        path = _write_json(inputs / "touch_bound.json", config)
        return Op("touch_bound", ("bound", "--config", path), {"gate": "bound"})
    if kind == "train":
        learner = {"algorithm": "sensitivity_regularized_erm", "sensitivity": "analytic",
                   "domain": {"dim": 2, "halfwidth": 1.0, "mode": "grid", "points_per_axis": 5}}
        task = _synthetic_task(rng.uniform(-0.8, 0.8, size=2), 20, 20)
        return _train_op(inputs, "touch_train", task, QUANTIZER, LOSS_KINDS[0], learner,
                         _seed(rng), "grid")
    operator = (QUANTIZER if kind == "empirical"
                else {"kind": "stochastic_rounder", "step": 0.25, "clamp": 1.0})
    config = {"schema_version": 1, "seed": _seed(rng),
              "weights": [float(v) for v in rng.uniform(-1.0, 1.0, size=3)],
              "operator": operator, "p": 1.0, "kind": kind, "n_omega": 20,
              "sample_path": _write_sample(inputs / f"touch_{kind}.csv",
                                           rng.uniform(-1.0, 1.0, size=(100, 3)))}
    path = _write_json(inputs / f"touch_sens_{kind}.json", config)
    return Op(f"touch_sensitivity_{kind}", ("sensitivity", "--config", path),
              {"gate": "sensitivity", "config": config})


_WORKLOAD_OPS = {
    "train_grid": _train_grid,
    "train_descent": _train_descent,
    "validate_coverage": _validate_coverage,
    "oracles": _oracles,
}
_TOUCHES = {
    "train_grid": ("validate", "bound", "expected_stochastic"),
    "train_descent": ("validate", "bound", "expected_stochastic"),
    "validate_coverage": ("validate", "expected_stochastic", "empirical", "train"),
    "oracles": ("train",),
}


def build(workload: str, seed: int, inputs: Path) -> list[Op]:
    """Write the workload's inputs under ``inputs`` and return one pass of ops."""
    inputs.mkdir(parents=True, exist_ok=True)
    key = (WORKLOADS.index(workload),)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
    ops = _WORKLOAD_OPS[workload](rng, inputs)
    return ops + [_touch(kind, rng, inputs) for kind in _TOUCHES[workload]]
