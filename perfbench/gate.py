"""Correctness gate: checks one pass's outputs, outside the timed region.

``check(op, out_dir)`` returns a list of problems; an empty list means the
op's outputs are right.  The grid learners are checked against the
exhaustive minimum of their documented objective, computed here with one
vectorised evaluation over ``SearchDomain.candidate_matrix()``; the descent
learners are re-scored at the returned weights through the public functions.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from approx_sense import (  # noqa: E402
    Hypothesis,
    IdentityMap,
    LossSpec,
    MagnitudePruner,
    PolynomialMap,
    RbfMap,
    SearchDomain,
    SyntheticTask,
    UniformBox,
    UniformQuantizer,
    UnlabelledSample,
    apply_operator,
    analytic_sensitivity_upper,
    empirical_error,
    empirical_sensitivity,
    generate,
    make_restricted_rad_estimator,
)
from approx_sense.dataio import read_sample_csv  # noqa: E402

TOL = 1e-12
CLIP = 1.0 - 2.0**-20


def _read(out_dir: Path, name: str) -> dict:
    return json.loads((out_dir / name).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Learner problems rebuilt from the op's config
# ---------------------------------------------------------------------------


def _feature_map(cfg: dict | None, input_dim: int):
    if cfg is None or cfg["kind"] == "identity":
        return IdentityMap(input_dim=input_dim)
    if cfg["kind"] == "polynomial":
        return PolynomialMap(input_dim=cfg["input_dim"], degree=cfg["degree"])
    return RbfMap(centers=np.asarray(cfg["centers"], dtype=float), width=cfg["width"])


def _operator(cfg: dict):
    if cfg["kind"] == "uniform_quantizer":
        return UniformQuantizer(step=cfg["step"], clamp=cfg["clamp"])
    return MagnitudePruner(keep=cfg["keep"])


def _samples(task: dict, seed: int):
    if task["kind"] == "csv":
        unlab = read_sample_csv(task["unlabelled_path"])
        return read_sample_csv(task["labelled_path"]), UnlabelledSample(inputs=unlab.inputs)
    teacher = np.asarray(task["teacher_weights"], dtype=float)
    fmap = task.get("feature_map")
    input_dim = len(fmap["centers"][0]) if fmap and fmap["kind"] == "rbf" else teacher.shape[0]
    synthetic = SyntheticTask(
        teacher=Hypothesis(weights=teacher, feature_map=_feature_map(fmap, input_dim)),
        input_law=UniformBox(halfwidth=task["input_law"]["halfwidth"]),
        label_noise_sd=task["label_noise_sd"],
        seed=seed,
    )
    return (generate(synthetic, task["m_labelled"], labelled=True),
            generate(synthetic, task["m_unlabelled"], labelled=False))


class _Problem:
    def __init__(self, config: dict):
        self.config = config
        self.learner = config["learner"]
        self.labelled, self.unlabelled = _samples(config["task"], config["seed"])
        self.fmap = _feature_map(config["task"].get("feature_map"), self.labelled.dim)
        self.op = _operator(config["operator"])
        self.loss = LossSpec(kind=config["loss"]["kind"], lipschitz=config["loss"]["lipschitz"])
        self.p = float(self.learner.get("p", 1.0))
        d = self.learner["domain"]
        self.domain = SearchDomain(
            dim=d["dim"], halfwidth=d["halfwidth"], mode=d["mode"],
            points_per_axis=d.get("points_per_axis", 11), n_samples=d.get("n_samples", 200),
            restarts=d.get("restarts", 4), iterations=d.get("iterations", 20),
            seed=d.get("seed", 0),
        )

    def srm_penalties(self) -> list[float]:
        schedule = self.learner["thresholds"]
        weights = self.learner.get("weights") or [2.0 ** -(k + 1) for k in range(len(schedule))]
        estimator = make_restricted_rad_estimator(
            self.domain, self.labelled, self.unlabelled, self.op, p=self.p,
            n_sigma=self.learner.get("n_sigma", 512), seed=self.config["seed"],
            feature_map=self.fmap,
        )
        m = self.labelled.m
        return [2.0 * self.loss.lipschitz * estimator(t).value
                + 3.0 * math.sqrt(math.log(1.0 / w) / (2.0 * m))
                for t, w in zip(schedule, weights)]


# ---------------------------------------------------------------------------
# Grid learners: exhaustive, vectorised, independent of the library's loop
# ---------------------------------------------------------------------------


def _loss(kind: str, rho: float, a: np.ndarray, y: np.ndarray) -> np.ndarray:
    if kind == "clipped_absolute":
        raw = rho * np.abs(a - y)
    elif kind == "clipped_hinge":
        raw = rho * np.maximum(0.0, 1.0 - a * np.clip(y, -1.0, 1.0))
    else:
        raw = (rho**2 / (4.0 * CLIP)) * (a - y) ** 2
    return np.minimum(raw, CLIP)


def _quantize(w: np.ndarray, cfg: dict) -> np.ndarray:
    return cfg["step"] * np.round(np.clip(w, -cfg["clamp"], cfg["clamp"]) / cfg["step"])


def _grid_objectives(pb: _Problem, cands: np.ndarray) -> dict[float | None, np.ndarray]:
    """Objective value of every candidate, keyed by lambda (None: no lambda)."""
    lc, cfg = pb.learner, pb.config
    X = pb.fmap.transform(pb.labelled.inputs)
    y = pb.labelled.targets
    q = _quantize(cands, cfg["operator"])

    def emp(weights):
        return _loss(pb.loss.kind, pb.loss.lipschitz, X @ weights.T, y[:, None]).mean(axis=0)

    def dhat(p):
        U = pb.fmap.transform(pb.unlabelled.inputs)
        return np.mean(np.abs(U @ cands.T - U @ q.T) ** p, axis=0) ** (1.0 / p)

    def analytic(budget):
        return np.linalg.norm(cands - q, axis=1) * budget

    algorithm = lc["algorithm"]
    if algorithm == "lambda_erm":
        return {lc["lambda"]: emp(q) + lc["lambda"] * dhat(pb.p)}
    if algorithm == "lambda_grid_srm":
        e, d = emp(q), dhat(pb.p)
        return {lam: e + lam * d for lam in lc["lambdas"]}
    if algorithm == "analytic_lambda_erm":
        return {lc["lambda"]: emp(q) + lc["lambda"] * analytic(lc.get("input_norm_budget", 1.0))}
    if algorithm == "sensitivity_regularized_erm":
        rho = lc.get("rho", pb.loss.lipschitz)
        if lc.get("sensitivity", "empirical") == "empirical":
            return {None: emp(q) + rho * dhat(pb.p)}
        return {None: emp(q) + rho * analytic(lc.get("input_norm_budget", 1.0))}
    if algorithm == "constrained_erm":
        return {None: np.where(dhat(pb.p) < lc["t"], emp(q), np.inf)}
    if algorithm == "srm":
        penalties = pb.srm_penalties()
        d = dhat(pb.p)
        eps = lc.get("epsilon_u", 0.0)
        k = np.full(d.shape, len(penalties) - 1)
        for i, t in reversed(list(enumerate(lc["thresholds"]))):
            k = np.where(d <= t + eps, i, k)
        return {None: emp(cands) + np.asarray(penalties)[k]}
    raise ValueError(f"no grid objective for {algorithm}")


def _check_grid(config: dict, out: dict) -> list[str]:
    pb = _Problem(config)
    cands = pb.domain.candidate_matrix()
    objectives = _grid_objectives(pb, cands)
    w = np.asarray(out["weights"], dtype=float)
    match = np.flatnonzero(np.all(cands == w, axis=1))
    if match.size == 0:
        return [f"weights {out['weights']} are not a grid point"]
    idx = int(match[0])
    problems = []
    grid_srm = pb.learner["algorithm"] == "lambda_grid_srm"
    lam = out["chosen"]["lambda"] if grid_srm else next(iter(objectives))
    values = objectives[lam]
    best = float(values.min())
    if not values[idx] <= best + TOL:
        problems.append(f"objective {values[idx]!r} above exhaustive minimum {best!r}")
    if not abs(out["objective_value"] - values[idx]) <= TOL:
        problems.append(f"reported objective {out['objective_value']!r} != {values[idx]!r}")
    if grid_srm:
        m = pb.labelled.m
        q = _quantize(cands, config["operator"])
        X = pb.fmap.transform(pb.labelled.inputs)
        scores = []
        for lam_k, w_k in zip(pb.learner["lambdas"], pb.learner["weights"]):
            arg = int(np.argmin(objectives[lam_k]))
            err = _loss(pb.loss.kind, pb.loss.lipschitz, X @ q[arg], pb.labelled.targets).mean()
            scores.append(err + 3.0 * math.sqrt(math.log(1.0 / w_k) / (2.0 * m)))
        chosen = pb.learner["lambdas"].index(lam)
        if not scores[chosen] <= min(scores) + TOL:
            problems.append(f"lambda {lam} does not minimise the lambda-grid score")
    return problems


# ---------------------------------------------------------------------------
# Descent learners: re-score the returned weights with the public functions
# ---------------------------------------------------------------------------


def _check_descent(config: dict, out: dict) -> list[str]:
    pb = _Problem(config)
    lc = pb.learner
    h = Hypothesis(weights=np.asarray(out["weights"], dtype=float), feature_map=pb.fmap)
    ah = apply_operator(pb.op, h)
    problems = []
    if list(ah.weights) != out["approx_weights"]:
        problems.append("approx_weights differ from the operator applied to weights")
    err_a = empirical_error(ah, pb.labelled, pb.loss)

    def dhat():
        return empirical_sensitivity(h, pb.op, pb.unlabelled, p=pb.p).value

    def analytic():
        return analytic_sensitivity_upper(h, pb.op, lc.get("input_norm_budget", 1.0)).value

    algorithm = lc["algorithm"]
    if algorithm == "lambda_erm":
        value = err_a + lc["lambda"] * dhat()
    elif algorithm == "analytic_lambda_erm":
        value = err_a + lc["lambda"] * analytic()
    elif algorithm == "sensitivity_regularized_erm":
        sens = dhat() if lc.get("sensitivity", "empirical") == "empirical" else analytic()
        value = err_a + lc.get("rho", pb.loss.lipschitz) * sens
    elif algorithm == "constrained_erm":
        value = err_a
        if not dhat() < lc["t"]:
            problems.append(f"returned weights violate the threshold t = {lc['t']}")
    else:  # srm
        d = dhat()
        eps = lc.get("epsilon_u", 0.0)
        ks = [i for i, t in enumerate(lc["thresholds"]) if d <= t + eps]
        k = ks[0] if ks else len(lc["thresholds"]) - 1
        value = empirical_error(h, pb.labelled, pb.loss) + pb.srm_penalties()[k]
    if not abs(out["objective_value"] - value) <= TOL:
        problems.append(f"reported objective {out['objective_value']!r} != recomputed {value!r}")
    return problems


# ---------------------------------------------------------------------------
# Oracle and validation outputs
# ---------------------------------------------------------------------------


def _dual_norm(v: np.ndarray, p: float) -> float:
    v = np.abs(v)
    if p == 1:
        return float(v.max())
    q = p / (p - 1.0)
    return float((v**q).sum() ** (1.0 / q))


def _check_geometry(geometry: dict, out: dict) -> list[str]:
    p = geometry["p"]
    if geometry["variant"] == "ellipse":
        mus = [geometry["mu"]]
    elif geometry["variant"] == "axis_union":
        mus = geometry["mus"]
    else:
        return [] if out["value"] > 0 and math.isfinite(out["value"]) else ["bad value"]
    expect = max(_dual_norm(np.asarray(mu), p) for mu in mus) / len(mus[0])
    if not abs(out["value"] - expect) <= TOL * max(1.0, expect):
        return [f"closed form {out['value']!r} != {expect!r}"]
    return []


def _check_sensitivity(config: dict, out: dict) -> list[str]:
    if config["kind"] == "expected_stochastic":
        ok = out["value"] > 0 and out["standard_error"] > 0
        return [] if ok else ["expected sensitivity has no spread"]
    sample = read_sample_csv(config["sample_path"]).inputs
    w = np.asarray(config["weights"], dtype=float)
    gaps = np.abs(sample @ w - sample @ _quantize(w, config["operator"]))
    expect = float(np.mean(gaps ** config["p"]) ** (1.0 / config["p"]))
    if not abs(out["value"] - expect) <= TOL:
        return [f"empirical sensitivity {out['value']!r} != {expect!r}"]
    return []


def _check_bounds(out_dir: Path) -> list[str]:
    problems = []
    reports = sorted(out_dir.glob("bound_*.json"))
    rows = (out_dir / "bounds.csv").read_text(encoding="utf-8").strip().splitlines()
    if not reports or len(rows) != len(reports) + 1:
        problems.append("bounds.csv rows do not match the reports")
    for path in reports:
        report = json.loads(path.read_text(encoding="utf-8"))
        total = math.fsum(v for _, v in report["terms"])
        if not abs(total - report["value"]) <= TOL * max(1.0, abs(total)):
            problems.append(f"{path.name}: terms do not sum to the value")
    return problems


def check_rademacher_pair(exact: dict, mc: dict) -> list[str]:
    """The exact value must lie within 4 standard errors of the MC value."""
    gap = abs(exact["value"] - mc["value"])
    if not gap <= 4.0 * mc["standard_error"]:
        return [f"exact {exact['value']!r} is {gap / mc['standard_error']:.1f} standard errors "
                f"from Monte Carlo {mc['value']!r}"]
    return []


def check(op, out_dir: Path) -> list[str]:
    """Problems with one op's outputs; cross-op checks live in ``check_pass``."""
    gate = op.check.get("gate")
    if gate == "grid":
        return _check_grid(op.check["config"], _read(out_dir, "train.json"))
    if gate == "descent":
        return _check_descent(op.check["config"], _read(out_dir, "train.json"))
    if gate == "validate":
        suite = op.argv[op.argv.index("--suite") + 1]
        report = _read(out_dir, f"validate_{suite}.json")
        return [] if report["passed"] is True else [f"{suite} did not pass"]
    if gate == "geometry":
        return _check_geometry(op.check["geometry"], _read(out_dir, "rademacher.json"))
    if gate == "sensitivity":
        return _check_sensitivity(op.check["config"], _read(out_dir, "sensitivity.json"))
    if gate == "bound":
        return _check_bounds(out_dir)
    if gate in ("rad_exact", "rad_mc"):
        out = _read(out_dir, "rademacher.json")
        return [] if 0 <= out["value"] < math.inf else ["bad Rademacher value"]
    return []


def _guarded(fn, *args) -> list[str]:
    try:
        return fn(*args)
    except Exception as exc:  # a missing or malformed output is a failed check
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def check_pass(ops, out_root: Path) -> dict[str, list[str]]:
    """Run every per-op check plus the exact-versus-MC Rademacher pairing."""
    problems = {op.name: _guarded(check, op, out_root / op.name) for op in ops}
    exact = {op.check["m"]: op.name for op in ops if op.check.get("gate") == "rad_exact"}
    for op in ops:
        if op.check.get("gate") == "rad_mc" and op.check["m"] in exact:
            problems[op.name] += _guarded(
                lambda a, b: check_rademacher_pair(_read(a, "rademacher.json"),
                                                   _read(b, "rademacher.json")),
                out_root / exact[op.check["m"]], out_root / op.name,
            )
    return problems


def main(argv: list[str]) -> int:
    """``gate.py OPS_JSON OUT_ROOT``: print the problems of every op as JSON."""
    from workloads import Op

    ops = [Op(d["name"], tuple(d["argv"]), d["check"])
           for d in json.loads(Path(argv[0]).read_text(encoding="utf-8"))]
    print(json.dumps(check_pass(ops, Path(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
