"""Named validation suites: frequency tests of the high-probability guarantees
and zero-tolerance exactness/dominance checks for the closed forms.

Every suite is a pure function of (trials, seed) and returns a CoverageReport.
Per-trial randomness comes from counter-derived seeds, trial i's stream being
derived_rng(seed, stream, i) (made by core.derived_rngs), so reports are
bit-identical across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    LabelledSample,
    LossSpec,
    StochasticRounder,
    UniformQuantizer,
    UnlabelledSample,
    _distinct_rows,
    apply_operator,
    derived_rng,
    derived_rngs,
    empirical_error,
    linear_hypothesis,
    loss_values,
)
from .errors import InvalidParameterError, UnknownSuiteError
from .learners import (
    AnalyticSensitivity,
    EmpiricalSensitivity,
    SearchDomain,
    constrained_erm,
    lambda_erm,
)
from .radgeom import (
    Cluster,
    Ellipse,
    cluster_bound,
    crude_bounds,
    dual_norm,
    exact_rademacher_rows,
    exact_rademacher_support,
    kernel_sensitivity_class_bound,
    mc_rademacher_rows,
    positive_orthant_ball_sup,
    rotated_union_bound,
)
from .bounds import (
    fast_rate_deviation_bound,
    joint_bounds,
    lambda_equivalence_bound,
    regularized_bound,
    sensitivity_deviation_bound,
    stochastic_bound,
)
from .sensitivity import empirical_sensitivity


@dataclass(frozen=True)
class CoverageReport:
    """Frequency with which a guarantee held across seeded trials."""

    name: str
    trials: int
    violations: int
    target: float
    floor: float
    mean_slack: float
    seed: int
    stats: tuple[tuple[str, float], ...] = ()

    @property
    def coverage(self) -> float:
        return 1.0 - self.violations / self.trials

    @property
    def passed(self) -> bool:
        return self.coverage >= self.floor

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "violations": self.violations,
            "coverage": self.coverage,
            "target": self.target,
            "floor": self.floor,
            "mean_slack": self.mean_slack,
            "passed": self.passed,
            "seed": self.seed,
            "stats": {k: v for k, v in self.stats},
        }


def _run_trials(n: int, fn) -> list:
    """fn of each trial index, in index order."""
    return [fn(i) for i in range(n)]


def _report(name, results, target, floor, seed, stats=()) -> CoverageReport:
    violations = sum(1 for ok, _ in results if not ok)
    slacks = [s for _, s in results]
    return CoverageReport(
        name=name,
        trials=len(results),
        violations=violations,
        target=target,
        floor=floor,
        mean_slack=float(np.mean(slacks)) if slacks else 0.0,
        seed=seed,
        stats=tuple(stats),
    )


def _gaussian_clipped_error(weights, teacher, sd: float, noise_sd: float, loss: LossSpec):
    """Exact error of the linear predictors ``weights`` (one per row) against a
    linear teacher, for inputs N(0, sd^2 I) and label noise N(0, noise_sd^2).

    The residual a - y is N(0, s^2) with s^2 = sd^2 ||w - teacher||^2 +
    noise_sd^2, and with k = clip / rho the clipped absolute loss has mean
    E min(rho |Z|, clip) = rho s sqrt(2/pi) (1 - exp(-k^2 / 2s^2)) + clip erfc(k / (s sqrt 2)).
    This holds only for ``clipped_absolute``, the one loss these suites build.
    """
    rho, clip = loss.lipschitz, loss.clip
    k = clip / rho
    diff = np.atleast_2d(np.asarray(weights, dtype=float)) - teacher
    s = np.sqrt(sd**2 * np.sum(diff**2, axis=1) + noise_sd**2)
    tail = np.array([math.erfc(v) for v in k / (s * math.sqrt(2.0))])
    return rho * s * math.sqrt(2.0 / math.pi) * (1.0 - np.exp(-(k**2) / (2.0 * s**2))) + clip * tail


def _uniform_box_abs_mean(residuals: np.ndarray) -> np.ndarray:
    """Exact E|<x, r>| for x uniform on [-1, 1]^2, one value per row r:
    A/2 + B^2 / (6A) with A = max_j |r_j| and B = min_j |r_j|, and 0 at r = 0."""
    b, a = np.sort(np.abs(residuals), axis=1).T
    return np.where(a > 0, a / 2.0 + b**2 / (6.0 * np.where(a > 0, a, 1.0)), 0.0)


def _deviation_trial(residuals: np.ndarray, m: int, seed: int, stream: int, trials: int,
                     n_sigma: int, multiplier: int):
    """The trial of the deviation suites over residual rows r: trial i draws
    m inputs uniform on [-1, 1]^2 and returns the sup over r of
    |E|<x, r>| - mean |<x_i, r>||, the sampled complexity of the gap rows
    and the constant C."""
    d_true = _uniform_box_abs_mean(residuals)
    sup_residual = float(np.max(np.linalg.norm(residuals, axis=1)))
    streams = derived_rngs(seed, stream, count=trials)

    def draw(i: int) -> tuple[float, float, float]:
        inputs = streams(i).uniform(-1.0, 1.0, size=(m, 2))
        gaps = np.abs(inputs @ residuals.T)
        sup_dev = float(np.max(np.abs(d_true - gaps.mean(axis=0))))
        rad, _ = mc_rademacher_rows(gaps.T, n_sigma=n_sigma, seed=seed * multiplier + i)
        return sup_dev, rad, sup_residual * float(np.max(np.linalg.norm(inputs, axis=1)))

    return draw


def _random_orthogonal(rng: np.random.Generator, m: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(m, m)))
    return q * np.sign(np.diag(r))


# ---------------------------------------------------------------------------
# Exactness suites for the closed forms
# ---------------------------------------------------------------------------

_EXPONENTS = (1.0, 1.5, 2.0, 3.0)  # the p that the geometry suites draw


def _axis_union_trial(rng: np.random.Generator, union: bool):
    """(ok, slack) for one p-ellipse, or with ``union`` one axis-aligned union
    of 1-5 of them: sign enumeration with the support value, the largest
    member dual norm, must reproduce the closed form to 1e-9."""
    m = int(rng.integers(2, 13))
    p = _EXPONENTS[rng.integers(len(_EXPONENTS))]
    mus = [rng.uniform(0.1, 3.0, size=m) for _ in range(int(rng.integers(1, 6)) if union else 1)]

    def support(sig_block: np.ndarray) -> np.ndarray:
        return np.max(np.stack([dual_norm(sig_block * mu, p) for mu in mus]), axis=0)

    enum = exact_rademacher_support(support, m)
    closed = rotated_union_bound([Ellipse(mu) for mu in mus], p).value
    gap = abs(enum - closed)
    return gap <= 1e-9, 1e-9 - gap


def suite_ellipse_exact(trials: int = 100, seed: int = 0) -> CoverageReport:
    """One p-ellipse: enumeration equals the closed-form complexity."""
    streams = derived_rngs(seed, 20, count=trials)
    results = _run_trials(trials, lambda i: _axis_union_trial(streams(i), False))
    return _report("ellipse_exact", results, 1.0, 1.0, seed)


def suite_union_exact(trials: int = 100, seed: int = 0) -> CoverageReport:
    """Axis-aligned unions: enumeration equals the max-member closed form."""
    streams = derived_rngs(seed, 21, count=trials)
    results = _run_trials(trials, lambda i: _axis_union_trial(streams(i), True))
    return _report("union_exact", results, 1.0, 1.0, seed)


def suite_crude_sandwich(trials: int = 50, seed: int = 0) -> CoverageReport:
    """Enumerated complexity of the positive-orthant p-ball of radius
    R m^(1/p) sits inside the magnitude sandwich."""
    streams = derived_rngs(seed, 22, count=trials)

    def one(i: int):
        rng = streams(i)
        m = int(rng.integers(2, 11))
        p = 1.0 if rng.integers(2) == 0 else 2.0
        radius = float(rng.uniform(0.2, 2.0))
        full = radius * m ** (1.0 / p)
        enum = exact_rademacher_support(lambda sig: positive_orthant_ball_sup(sig, full, p), m)
        lower, upper = crude_bounds(radius, p)
        ok = lower - 1e-12 <= enum <= upper + 1e-12
        return ok, min(enum - lower, upper - enum)

    results = _run_trials(trials, one)
    return _report("crude_sandwich", results, 1.0, 1.0, seed)


def suite_cluster_dominance(trials: int = 200, seed: int = 0) -> CoverageReport:
    """Finite point sets drawn inside a clustered model never beat the
    cluster bound; zero-center models must reduce to the union value exactly."""
    streams = derived_rngs(seed, 23, count=trials)

    def one(i: int):
        rng = streams(i)
        m = int(rng.integers(3, 9))
        p = _EXPONENTS[rng.integers(len(_EXPONENTS))]
        n_clusters = int(rng.integers(1, 5))
        clusters = []
        for _ in range(n_clusters):
            mu = rng.uniform(0.2, 1.5, size=m)
            V = _random_orthogonal(rng, m)
            offset = float(np.sum(mu))
            c = rng.uniform(offset, offset + 1.0, size=m)
            clusters.append(Cluster(c, Ellipse(mu, V)))  # each component is checked here only
        rows = []
        for _ in range(5 * n_clusters):
            cluster = clusters[rng.integers(n_clusters)]
            ellipse = cluster.ellipse
            g = rng.normal(size=m)
            z = g / np.linalg.norm(g, ord=p) * rng.uniform(0.0, 1.0)
            rows.append(cluster.center + ellipse.V @ (ellipse.mu * z))
        rows = np.array(rows)
        enum = exact_rademacher_rows(rows)
        bound = cluster_bound(clusters, p).value
        ok = enum <= bound + 1e-12
        # zero-center reduction must be an identity
        ellipses = [cluster.ellipse for cluster in clusters]
        reduced = cluster_bound([Cluster(np.zeros(m), e) for e in ellipses], p).value
        union = rotated_union_bound(ellipses, p).value
        ok = ok and reduced == union
        return ok, bound - enum

    results = _run_trials(trials, one)
    return _report("cluster_dominance", results, 1.0, 1.0, seed)


def suite_kernel_dominance(trials: int = 100, seed: int = 0) -> CoverageReport:
    """Weight-distortion bound dominates the Monte Carlo complexity of
    quantised linear sensitivity sets (at 4 standard errors)."""
    streams = derived_rngs(seed, 24, count=trials)

    def one(i: int):
        rng = streams(i)
        d = int(rng.integers(1, 6))
        m = int(rng.integers(5, 51))
        step = float(rng.uniform(0.2, 0.8))
        inputs = rng.normal(size=(m, d))
        op = UniformQuantizer(step=step, clamp=1.0)
        # extreme residual corners (weights at grid midpoints) plus random fill
        corners = step / 2.0 * np.array(np.meshgrid(*([[-1.0, 1.0]] * d))).reshape(d, -1).T
        weights = np.vstack([corners, rng.uniform(-1.0, 1.0, size=(100, d))])
        residuals = weights - op.transform_weights(weights)
        rows = np.abs(inputs @ residuals.T).T
        value, se = mc_rademacher_rows(rows, n_sigma=1500, seed=seed * 1000 + i)
        bound = kernel_sensitivity_class_bound(
            step / 2.0 * math.sqrt(d), (inputs**2).sum(axis=1)
        ).value
        ok = value - 4.0 * se <= bound
        return ok, bound - value

    results = _run_trials(trials, one)
    return _report("kernel_dominance", results, 1.0, 1.0, seed)


# ---------------------------------------------------------------------------
# Coverage suites for the high-probability statements
# ---------------------------------------------------------------------------


def suite_lemma1(trials: int = 500, seed: int = 0) -> CoverageReport:
    """Sup over an 11 x 11 weight grid of |true - empirical| sensitivity is
    covered by the deviation bound built from the sampled complexity.

    The fast-rate bound is tracked on the same trials (stats key
    ``fast_rate_violations``).
    """
    delta = 0.1
    m = 100
    op = UniformQuantizer(step=0.5, clamp=1.0)
    grid = SearchDomain(dim=2, halfwidth=1.0, points_per_axis=11).candidate_matrix()
    # every supremum below is over rows, so each distinct residual is kept once
    residuals, _ = _distinct_rows(grid - op.transform_weights(grid))
    # exact 2-sensitivity for the fast-rate variance term: ||r|| / sqrt(3)
    t_two = float(np.max(np.linalg.norm(residuals, axis=1)) / math.sqrt(3.0))
    draw = _deviation_trial(residuals, m, seed, 31, trials, 800, 100_003)

    def one(i: int):
        sup_dev, rad, C = draw(i)
        bound = sensitivity_deviation_bound(rad, C, m, delta).value
        fast = fast_rate_deviation_bound(rad, t_two, C, m, delta).value
        return sup_dev <= bound, bound - sup_dev, sup_dev > fast

    results = _run_trials(trials, one)
    fast_violations = sum(fast_violated for _, _, fast_violated in results)
    return _report(
        "lemma1",
        [(ok, slack) for ok, slack, _ in results],
        target=1.0 - delta,
        floor=1.0 - 2.0 * delta,
        seed=seed,
        stats=[("fast_rate_violations", float(fast_violations))],
    )


class _LinearTrialContext:
    """Shared machinery for the d = 5 linear-teacher coverage suites."""

    D = 5
    M = 50
    M_U = 150
    DELTA = 0.05
    SD = 0.45
    NOISE_SD = 0.1
    N_CANDIDATES = 120

    def __init__(self, seed: int, stream: int, trials: int):
        self.seed = seed
        self.streams = derived_rngs(seed, stream, 1, count=trials)
        self.op = UniformQuantizer(step=0.5, clamp=1.0)
        self.loss = LossSpec(kind="clipped_absolute", lipschitz=1.0)
        # true_d1 as a learner regulariser: E|<x, r>| = ||r|| SD sqrt(2 / pi)
        self.true_sensitivity = AnalyticSensitivity(self.SD * math.sqrt(2.0 / math.pi))

    def true_d1(self, residuals: np.ndarray) -> np.ndarray:
        """Exact 1-sensitivity under the isotropic gaussian input law."""
        return np.linalg.norm(np.atleast_2d(residuals), axis=1) * self.SD * math.sqrt(2.0 / math.pi)

    def trial(self, i: int):
        rng = self.streams(i)
        teacher = rng.uniform(-0.8, 0.8, size=self.D)
        x_lab = rng.normal(0.0, self.SD, size=(self.M, self.D))
        y_lab = x_lab @ teacher + rng.normal(0.0, self.NOISE_SD, size=self.M)
        x_unlab = rng.normal(0.0, self.SD, size=(self.M_U, self.D))
        labelled = LabelledSample(inputs=x_lab, targets=y_lab, source_id=f"trial{i}")
        unlabelled = UnlabelledSample(inputs=x_unlab, source_id=f"trial{i}")
        domain = SearchDomain(
            dim=self.D,
            halfwidth=1.0,
            mode="random",
            n_samples=self.N_CANDIDATES,
            seed=int(rng.integers(2**63)),
        )
        cands = domain.candidate_matrix()
        residuals = cands - self.op.transform_weights(cands)
        d_true = self.true_d1(residuals)
        d_hat = np.abs(x_unlab @ residuals.T).mean(axis=0)
        rad_rows = (x_lab @ _distinct_rows(self.op.transform_weights(cands))[0].T).T
        rad_HA, _ = mc_rademacher_rows(rad_rows, n_sigma=600, seed=self.seed * 99_991 + i)
        return {
            "rng": rng,
            "teacher": teacher,
            "labelled": labelled,
            "unlabelled": unlabelled,
            "domain": domain,
            "cands": cands,
            "d_true": d_true,
            "d_hat": d_hat,
            "err_cand": self.error(cands, teacher),
            "rad_HA": rad_HA,
        }

    def error(self, weights: np.ndarray, teacher: np.ndarray) -> np.ndarray:
        """Exact error of each weight row under this task's input and noise laws."""
        return _gaussian_clipped_error(weights, teacher, self.SD, self.NOISE_SD, self.loss)


def suite_prop2(trials: int = 200, seed: int = 0) -> CoverageReport:
    """Deployment guarantee for the threshold-constrained learner:
    err(A f_hat_t) <= err(f_t^*) + rho t + 2 rho rad(H_A) + 4 sqrt(ln(9/d)/2m)."""
    ctx = _LinearTrialContext(seed, 40, trials)
    rho = ctx.loss.lipschitz

    def one(i: int):
        tr = ctx.trial(i)
        t = float(tr["rng"].uniform(0.1, 0.45))
        min_dhat = float(tr["d_hat"].min())
        if min_dhat >= t:
            t = min_dhat * 1.25 + 1e-9
        out = constrained_erm(
            tr["labelled"], tr["unlabelled"], ctx.op, t, 1.0, ctx.loss, tr["domain"]
        )
        err_af = float(ctx.error(out.approx_hypothesis.weights, tr["teacher"])[0])
        feasible_true = tr["d_true"] < t
        if feasible_true.any():
            err_star = float(tr["err_cand"][feasible_true].min())
        else:
            err_star = float(tr["err_cand"].min())
        # only the deployment report is read, so err_star also fills err_min_approx
        _, deployment, _ = joint_bounds(err_star, err_star, tr["rad_HA"], rho, t, ctx.M, ctx.DELTA)
        rhs = deployment.value
        return err_af <= rhs, rhs - err_af

    results = _run_trials(trials, one)
    return _report("prop2", results, target=1.0 - ctx.DELTA, floor=0.9, seed=seed)


def suite_prop3(trials: int = 200, seed: int = 0) -> CoverageReport:
    """Adaptive-threshold guarantee for the sensitivity-regularised learner:
    err(A f_hat) <= inf_t {err(f_t^*) + 2 rho t} + 2 rho rad(H_A) + 4 sqrt(ln(8/d)/2m)."""
    ctx = _LinearTrialContext(seed, 41, trials)
    rho = ctx.loss.lipschitz
    # the last threshold, 0.78, exceeds every candidate's true sensitivity
    # (at most 0.56 * SD * sqrt(2 / pi) < 0.21), so some threshold is feasible
    t_grid = np.arange(0.02, 0.8, 0.04)

    def one(i: int):
        tr = ctx.trial(i)
        out = lambda_erm(tr["labelled"], ctx.op, rho, ctx.true_sensitivity, ctx.loss, tr["domain"])
        err_af = float(ctx.error(out.approx_hypothesis.weights, tr["teacher"])[0])
        errs, ts = [], []
        for t in t_grid:
            feasible = tr["d_true"] < t
            if feasible.any():
                errs.append(float(tr["err_cand"][feasible].min()))
                ts.append(t)
        rhs = regularized_bound(errs, rho, ts, tr["rad_HA"], ctx.M, ctx.DELTA).value
        return err_af <= rhs, rhs - err_af

    results = _run_trials(trials, one)
    return _report("prop3", results, target=1.0 - ctx.DELTA, floor=0.9, seed=seed)


def suite_prop4(trials: int = 200, seed: int = 0) -> CoverageReport:
    """Equivalence of the lambda-regularised and threshold-constrained
    learners at t = true sensitivity of the lambda solution."""
    delta = 0.05
    m = 50
    m_u = 100
    sd = 0.5
    noise_sd = 0.1
    op = UniformQuantizer(step=0.5, clamp=1.0)
    loss = LossSpec(kind="clipped_absolute", lipschitz=1.0)
    rho = loss.lipschitz
    domain = SearchDomain(dim=2, halfwidth=1.0, mode="grid", points_per_axis=21)
    cands = domain.candidate_matrix()
    residuals = cands - op.transform_weights(cands)
    d_true = np.linalg.norm(residuals, axis=1) * sd * math.sqrt(2.0 / math.pi)
    sup_residual = float(np.max(np.linalg.norm(residuals, axis=1)))
    quantized, _ = _distinct_rows(op.transform_weights(cands))
    residual_rows, _ = _distinct_rows(residuals)
    streams = derived_rngs(seed, 51, count=trials)

    def one(i: int):
        rng = streams(i)
        teacher = rng.uniform(-0.8, 0.8, size=2)
        lam = float(rng.uniform(0.05, 1.0))
        x_lab = rng.normal(0.0, sd, size=(m, 2))
        y_lab = x_lab @ teacher + rng.normal(0.0, noise_sd, size=m)
        x_unlab = rng.normal(0.0, sd, size=(m_u, 2))
        labelled = LabelledSample(inputs=x_lab, targets=y_lab, source_id=f"trial{i}")
        unlabelled = UnlabelledSample(inputs=x_unlab, source_id=f"trial{i}")

        out = lambda_erm(labelled, op, lam, EmpiricalSensitivity(unlabelled), loss, domain)
        w_lambda = np.asarray(out.hypothesis.weights)
        t = float(
            np.linalg.norm(w_lambda - op.transform_weights(w_lambda)) * sd * math.sqrt(2.0 / math.pi)
        )
        # threshold-constrained oracle over the true-sensitivity class
        err_a_cand = loss_values(loss, x_lab @ op.transform_weights(cands).T, y_lab[:, None]).mean(
            axis=0
        )
        feasible = d_true <= t
        idx = int(np.flatnonzero(feasible)[np.argmin(err_a_cand[feasible])])
        err_a = _gaussian_clipped_error(
            op.transform_weights(np.stack([w_lambda, cands[idx]])), teacher, sd, noise_sd, loss
        )
        lhs = float(err_a[0] - err_a[1])

        gaps_u = np.abs(x_unlab @ residual_rows.T)
        rad_u, _ = mc_rademacher_rows(gaps_u.T, n_sigma=800, seed=seed * 77_003 + i)
        C = sup_residual * float(np.max(np.linalg.norm(x_unlab, axis=1)))
        eps_u = sensitivity_deviation_bound(rad_u, C, m_u, delta / 4.0).value
        rad_HA, _ = mc_rademacher_rows((x_lab @ quantized.T).T, n_sigma=800, seed=seed * 88_007 + i)
        rhs = lambda_equivalence_bound(rho, rad_HA, m, delta, lam, eps_u).value
        return lhs <= rhs, rhs - lhs

    results = _run_trials(trials, one)
    return _report("prop4", results, target=1.0 - delta, floor=0.95, seed=seed)


def suite_prop10(trials: int = 300, seed: int = 0) -> CoverageReport:
    """Fast-rate deviation bound on a uniformly low-sensitivity class
    (2-sensitivity at most t = 0.1 for every member)."""
    delta = 0.1
    m = 100
    t = 0.1
    op = UniformQuantizer(step=0.5, clamp=1.0)
    # the on-grid weights for step 0.5, each moved by small offsets
    base = SearchDomain(dim=2, halfwidth=1.0, points_per_axis=5).candidate_matrix()
    offsets = SearchDomain(dim=2, halfwidth=0.04, points_per_axis=3).candidate_matrix()
    weights = (base[:, None, :] + offsets[None, :, :]).reshape(-1, 2)
    residuals, _ = _distinct_rows(weights - op.transform_weights(weights))
    # uniform box inputs: 2-sensitivity is exactly ||r|| / sqrt(3) <= t
    assert float(np.max(np.linalg.norm(residuals, axis=1))) / math.sqrt(3.0) <= t
    draw = _deviation_trial(residuals, m, seed, 61, trials, 600, 66_601)

    def one(i: int):
        sup_dev, rad, C = draw(i)
        bound = fast_rate_deviation_bound(rad, t, C, m, delta).value
        return sup_dev <= bound, bound - sup_dev

    results = _run_trials(trials, one)
    return _report("prop10", results, target=1.0 - delta, floor=0.9, seed=seed)


def suite_stochastic_unbiased(trials: int | None = None, seed: int = 0) -> CoverageReport:
    """Unbiasedness of the stochastic rounder plus the singleton-family
    reduction identity of the expected-operator bound: two fixed checks,
    so a trial count is refused."""
    if trials is not None:
        raise InvalidParameterError(
            f"stochastic_unbiased runs 2 fixed checks and takes no trials, got {trials}")
    n = 100_000
    rounder = StochasticRounder(step=1.0, clamp=1.0)
    rng = derived_rng(seed, 70)
    draws = rounder.transform_weights(np.full(n, 0.3), rng)
    mean_gap = abs(float(draws.mean()) - 0.3)
    tol = 3.0 * math.sqrt(0.21 / n)
    check_mean = mean_gap <= tol

    # singleton reduction: expectations collapse to the per-operator values
    op = UniformQuantizer(step=0.5, clamp=1.0)
    h = linear_hypothesis([0.6, -0.3])
    inputs = derived_rng(seed, 71).uniform(-1.0, 1.0, size=(8, 2))
    targets = inputs @ np.array([0.5, -0.5])
    labelled = LabelledSample(inputs=inputs, targets=targets, source_id="singleton")
    loss = LossSpec(kind="clipped_absolute", lipschitz=1.0)
    err = empirical_error(apply_operator(op, h), labelled, loss)
    sens = empirical_sensitivity(h, op, UnlabelledSample(inputs=inputs), p=1.0).value
    class_weights = np.array([[0.6, -0.3], [0.5, -0.5], [-0.2, 0.9]])
    gap_rows = np.abs(inputs @ (class_weights - op.transform_weights(class_weights)).T).T
    rad = exact_rademacher_rows(gap_rows)
    report = stochastic_bound(err, sens, rad, loss.lipschitz, labelled.m, 0.1)
    check_identity = (
        report.term("expected_empirical_error") == err
        and report.term("expected_sensitivity") == loss.lipschitz * sens
        and report.term("expected_complexity") == 2.0 * loss.lipschitz * rad
    )
    results = [(check_mean, tol - mean_gap), (check_identity, 0.0)]
    return _report(
        "stochastic_unbiased",
        results,
        target=1.0,
        floor=1.0,
        seed=seed,
        stats=[("mean_gap", mean_gap), ("tolerance", tol)],
    )


SUITES = {
    "lemma1": suite_lemma1,
    "prop2": suite_prop2,
    "prop3": suite_prop3,
    "prop4": suite_prop4,
    "prop10": suite_prop10,
    "ellipse_exact": suite_ellipse_exact,
    "crude_sandwich": suite_crude_sandwich,
    "union_exact": suite_union_exact,
    "cluster_dominance": suite_cluster_dominance,
    "kernel_dominance": suite_kernel_dominance,
    "stochastic_unbiased": suite_stochastic_unbiased,
}


def run_suite(name: str, trials: int | None = None, seed: int = 0) -> CoverageReport:
    if name not in SUITES:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; choose one of {sorted(SUITES)}", suite=name
        )
    if trials is None:  # the suite's own default
        return SUITES[name](seed=seed)
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    return SUITES[name](trials=trials, seed=seed)
