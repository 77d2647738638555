"""Search domains and the sensitivity-aware learners."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approx_sense import (
    AnalyticSensitivity,
    EmpiricalSensitivity,
    IdentityMap,
    InfeasibleThresholdError,
    InvalidParameterError,
    IsotropicGaussian,
    LabelledSample,
    LossSpec,
    MagnitudePruner,
    SearchDomain,
    SyntheticTask,
    ThresholdSchedule,
    UniformQuantizer,
    UnlabelledSample,
    analytic_sensitivity_upper,
    apply_operator,
    constrained_erm,
    empirical_error,
    empirical_sensitivity,
    generate,
    lambda_erm,
    lambda_grid_srm,
    linear_hypothesis,
    make_restricted_rad_estimator,
    srm_learner,
    true_error_mc,
    true_sensitivity_mc,
)
from approx_sense.learners import _Workspace, _search
from approx_sense.radgeom import mc_rademacher_rows

OP = UniformQuantizer(step=0.5, clamp=1.0)
LOSS = LossSpec(kind="clipped_absolute", lipschitz=1.0)


def _make_data(seed=0, d=2, m=40, m_u=60, noise=0.05, teacher=None):
    teacher = linear_hypothesis(teacher if teacher is not None else [0.5, -0.5][:d])
    task = SyntheticTask(
        teacher=teacher,
        input_law=IsotropicGaussian(sd=0.6),
        label_noise_sd=noise,
        seed=seed,
    )
    return task, generate(task, m, labelled=True), generate(task, m_u, labelled=False)


def exhaustive_argmin(domain, objective, feasibility=None):
    """Independent oracle: first strict minimum in enumeration order."""
    best_w, best_v = None, math.inf
    for w in domain.candidate_matrix():
        if feasibility is not None and not feasibility(w):
            continue
        v = objective(w)
        if v < best_v:
            best_w, best_v = w, v
    return best_w, best_v


# ---------------------------------------------------------------------------
# search / SearchDomain
# ---------------------------------------------------------------------------


class PointWorkspace(_Workspace):
    """Only a search domain, cut into blocks of 7 rows so that every search
    spans several blocks."""

    block_size = 7

    def __init__(self, domain):
        self.domain = domain


class PointObjective:
    """A per-candidate objective in the screen/exact protocol of the learners'
    search: screened values are exact (margin 0), inf where ``feasibility``
    fails."""

    min_diag = math.inf

    def __init__(self, fn, domain, feasibility=None):
        self.ws = PointWorkspace(domain)
        self.fn = fn
        self.feasibility = feasibility

    def exact(self, w):
        return float(self.fn(w))

    def screen(self, block):
        ok = [self.feasibility is None or self.feasibility(w) for w in block.C]
        return np.array([self.exact(w) if f else math.inf for w, f in zip(block.C, ok)]), 0.0


def optimize(fn, domain, feasibility=None):
    return _search(PointObjective(fn, domain, feasibility)).weights


def test_optimize_quadratic_snaps_to_grid():
    domain = SearchDomain(dim=2, halfwidth=1.0, mode="grid", points_per_axis=21)
    target = np.array([0.33, -0.47])
    w = optimize(lambda v: float(np.sum((v - target) ** 2)), domain)
    np.testing.assert_allclose(w, [0.3, -0.5], atol=1e-12)


def test_optimize_infeasible_raises():
    domain = SearchDomain(dim=1, halfwidth=1.0, mode="grid", points_per_axis=5)
    with pytest.raises(InfeasibleThresholdError):
        optimize(lambda v: 0.0, domain, feasibility=lambda v: False)


def test_optimize_random_mode_deterministic():
    domain = SearchDomain(dim=3, halfwidth=1.0, mode="random", n_samples=50, seed=123)
    obj = lambda v: float(np.sum(v**2))
    assert np.array_equal(optimize(obj, domain), optimize(obj, domain))


def test_optimize_coordinate_descent_on_separable_objective():
    domain = SearchDomain(
        dim=4, halfwidth=1.0, mode="coordinate_descent", points_per_axis=21, seed=5
    )
    target = np.array([0.31, -0.52, 0.0, 0.74])
    w = optimize(lambda v: float(np.sum((v - target) ** 2)), domain)
    np.testing.assert_allclose(w, [0.3, -0.5, 0.0, 0.7], atol=1e-12)


def test_grid_cap_enforced():
    domain = SearchDomain(dim=8, halfwidth=1.0, mode="grid", points_per_axis=11)
    with pytest.raises(InvalidParameterError):
        domain.candidate_matrix()


# ---------------------------------------------------------------------------
# constrained ERM
# ---------------------------------------------------------------------------


def test_constrained_erm_vacuous_constraint_is_plain_erm():
    _, labelled, unlabelled = _make_data(seed=1)
    domain = SearchDomain(dim=2, halfwidth=1.0, mode="grid", points_per_axis=11)
    out = constrained_erm(labelled, unlabelled, OP, math.inf, 1.0, LOSS, domain)
    feats = labelled.inputs

    def approx_err(w):
        preds = feats @ OP.transform_weights(w)
        return float(np.minimum(np.abs(preds - labelled.targets), 1 - 2**-20).mean())

    expected, _ = exhaustive_argmin(domain, approx_err)
    assert np.array_equal(out.hypothesis.weights, expected)


def test_constrained_erm_infeasible_reports_min_sensitivity():
    _, labelled, unlabelled = _make_data(seed=2)
    domain = SearchDomain(dim=2, halfwidth=0.85, mode="grid", points_per_axis=4)
    # no candidate of this lattice lies on the 0.5-step quantizer grid, so
    # the smallest achievable sensitivity is positive and tiny t is infeasible
    with pytest.raises(InfeasibleThresholdError) as err:
        constrained_erm(labelled, unlabelled, OP, 1e-12, 1.0, LOSS, domain)
    min_d = min(
        empirical_sensitivity(linear_hypothesis(w), OP, unlabelled, 1).value
        for w in domain.candidate_matrix()
    )
    assert err.value.min_sensitivity == pytest.approx(min_d, rel=1e-12)


def test_constrained_erm_satisfies_constraint():
    _, labelled, unlabelled = _make_data(seed=3)
    domain = SearchDomain(dim=2, halfwidth=1.0, mode="grid", points_per_axis=11)
    for t in (0.05, 0.1, 0.3):
        out = constrained_erm(labelled, unlabelled, OP, t, 1.0, LOSS, domain)
        assert empirical_sensitivity(out.hypothesis, OP, unlabelled, 1).value < t


def test_constrained_erm_trace_nonincreasing():
    _, labelled, unlabelled = _make_data(seed=4)
    domain = SearchDomain(dim=2, halfwidth=1.0, mode="grid", points_per_axis=11)
    out = constrained_erm(labelled, unlabelled, OP, 0.5, 1.0, LOSS, domain)
    trace = list(out.objective_trace)
    assert all(b <= a for a, b in zip(trace, trace[1:]))
    np.testing.assert_array_equal(
        out.approx_hypothesis.weights, OP.transform_weights(np.asarray(out.hypothesis.weights))
    )


# ---------------------------------------------------------------------------
# SRM learner
# ---------------------------------------------------------------------------


def test_threshold_schedule_validation():
    sched = ThresholdSchedule(thresholds=(0.1, 0.2, 0.4))
    assert sched.weights == (0.5, 0.25, 0.125)
    with pytest.raises(InvalidParameterError):
        ThresholdSchedule(thresholds=(0.2, 0.1))
    with pytest.raises(InvalidParameterError):
        ThresholdSchedule(thresholds=(0.1, 0.2), weights=(0.9, 0.9))


def test_srm_all_on_grid_class_reduces_to_plain_erm():
    _, labelled, unlabelled = _make_data(seed=5)
    # 5 points per axis on [-1, 1] lands every candidate on the 0.5-grid
    domain = SearchDomain(dim=2, halfwidth=1.0, mode="grid", points_per_axis=5)
    schedule = ThresholdSchedule(thresholds=(0.1, 0.2))
    estimator = make_restricted_rad_estimator(domain, labelled, unlabelled, OP, seed=7)
    out = srm_learner(labelled, unlabelled, OP, schedule, 0.0, estimator, LOSS, domain)
    assert out.chosen_k == 1 and not out.clamped

    def plain_err(w):
        return float(np.minimum(np.abs(labelled.inputs @ w - labelled.targets), 1 - 2**-20).mean())

    expected, _ = exhaustive_argmin(domain, plain_err)
    assert np.array_equal(out.hypothesis.weights, expected)


def test_srm_single_threshold_with_vacuous_class():
    _, labelled, unlabelled = _make_data(seed=6)
    domain = SearchDomain(dim=2, halfwidth=1.0, mode="grid", points_per_axis=11)
    schedule = ThresholdSchedule(thresholds=(10.0,), weights=(1.0,))
    estimator = make_restricted_rad_estimator(domain, labelled, unlabelled, OP, seed=8)
    out = srm_learner(labelled, unlabelled, OP, schedule, 0.0, estimator, LOSS, domain)

    def plain_err(w):
        return float(np.minimum(np.abs(labelled.inputs @ w - labelled.targets), 1 - 2**-20).mean())

    expected, _ = exhaustive_argmin(domain, plain_err)
    assert np.array_equal(out.hypothesis.weights, expected)


def test_srm_clamps_and_logs_boundary_hits():
    _, labelled, unlabelled = _make_data(seed=7)
    domain = SearchDomain(dim=2, halfwidth=1.0, mode="grid", points_per_axis=11)
    # thresholds below every candidate sensitivity force clamping to the last k
    schedule = ThresholdSchedule(thresholds=(1e-9, 2e-9))
    estimator = make_restricted_rad_estimator(domain, labelled, unlabelled, OP, seed=9)
    out = srm_learner(labelled, unlabelled, OP, schedule, 0.0, estimator, LOSS, domain)
    assert out.clamped and out.chosen_k == 2

    # an exact boundary hit is logged: set the threshold to a candidate's d-hat
    cand = domain.candidate_matrix()[17]
    d_exact = empirical_sensitivity(linear_hypothesis(cand), OP, unlabelled, 1).value
    schedule2 = ThresholdSchedule(thresholds=(d_exact, d_exact * 10))
    out2 = srm_learner(labelled, unlabelled, OP, schedule2, 0.0, estimator, LOSS, domain)
    assert out2.boundary_hits >= 1


def test_restricted_rad_estimator_monotone_and_empty():
    _, labelled, unlabelled = _make_data(seed=8)
    domain = SearchDomain(dim=2, halfwidth=1.0, mode="grid", points_per_axis=11)
    estimator = make_restricted_rad_estimator(domain, labelled, unlabelled, OP, seed=11)
    empty = estimator(-1.0)
    assert empty.value == 0.0 and "empty" in empty.note
    values = [estimator(t).value for t in (0.02, 0.1, 0.3, 1.0)]
    assert all(b >= a for a, b in zip(values, values[1:]))


@settings(max_examples=40, deadline=None)
@given(
    st.deferred(lambda: problems()).filter(lambda pr: pr[-1].mode != "coordinate_descent"),
    st.integers(1, 64),
    st.integers(0, 2**16),
)
def test_restricted_rad_estimator_equals_per_threshold_mc(problem, n_sigma, seed):
    labelled, unlabelled, op, _, p, domain = problem
    estimator = make_restricted_rad_estimator(domain, labelled, unlabelled, op, p, n_sigma, seed)
    cands = domain.candidate_matrix()
    dhats = np.array(
        [empirical_sensitivity(linear_hypothesis(w), op, unlabelled, p).value for w in cands]
    )
    rows = (labelled.inputs @ cands.T).T
    # one GEMM over every candidate rounds each sign sum in its own blocking:
    # allow a length-m dot product's forward error, over m
    tol = 4 * np.finfo(float).eps * np.abs(rows).sum(axis=1).max()
    levels = np.unique(dhats)
    # thresholds well between two levels, where block and scalar d-hats agree
    apart = np.diff(levels) > 1e-9 * max(1.0, levels[-1])
    for t in [*((levels[1:] + levels[:-1]) / 2)[apart], levels[-1] + 1.0]:
        got = estimator(t)
        value, se = mc_rademacher_rows(rows[dhats <= t], n_sigma, seed)
        assert abs(got.value - value) <= tol and abs(got.standard_error - se) <= tol
        assert (got.n_sigma, got.seed, got.m) == (n_sigma, seed, labelled.m)
    # a prefix maximum: exactly non-decreasing once the class is non-empty (a
    # one-row class can estimate below the empty class's 0)
    thresholds = np.append(np.sort(dhats), levels[-1] + 1.0)
    values = [e.value for e in map(estimator, thresholds) if e.note is None]
    assert values == sorted(values)
    empty = estimator(levels[0] - 1.0)
    assert (empty.value, empty.standard_error) == (0.0, 0.0) and "empty" in empty.note


def srm_estimate_hexes() -> list[str]:
    """Float-hex SRM estimates on sizes where BLAS splits the GEMM."""
    out = []
    for seed, domain in (
        (3, SearchDomain(dim=2, halfwidth=1.0, mode="grid", points_per_axis=51)),
        (4, SearchDomain(dim=4, halfwidth=1.0, mode="random", n_samples=3000, seed=4)),
    ):
        _, labelled, unlabelled = _make_data(seed=seed, d=domain.dim, m=200,
                                             teacher=np.linspace(-0.5, 0.5, domain.dim))
        estimator = make_restricted_rad_estimator(
            domain, labelled, unlabelled, OP, n_sigma=256, seed=seed
        )
        for t in (0.01, 0.05, 0.1, 0.2, 10.0):
            est = estimator(t)
            out += [est.value.hex(), est.standard_error.hex()]
    return out


def test_restricted_rad_estimator_is_thread_independent():
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")])
    script = "import json, test_learners; print(json.dumps(test_learners.srm_estimate_hexes()))"
    runs = {
        threads: subprocess.Popen(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            stdout=subprocess.PIPE,
            text=True,
        )
        for threads in ("1", "2")
    }
    hexes = {}
    for threads, run in runs.items():
        out, _ = run.communicate(timeout=600)
        assert run.returncode == 0, f"OPENBLAS_NUM_THREADS={threads}"
        hexes[threads] = json.loads(out)
    assert len(hexes["1"]) == 20 and hexes["1"] == hexes["2"]


# ---------------------------------------------------------------------------
# regularised learners
# ---------------------------------------------------------------------------


def test_emp_cache_keys_signed_zeros_as_one():
    # Q(-0.1) is -0.0 and Q(0.1) is 0.0: one Q(w), so one cached loss evaluation
    rng = np.random.default_rng(4)
    x = rng.uniform(-1.0, 1.0, size=(20, 2))
    labelled = LabelledSample(inputs=x, targets=x @ np.array([0.4, -0.3]))
    op = UniformQuantizer(step=0.5, clamp=1.0)
    ws = _Workspace(op, LossSpec(kind="clipped_absolute", lipschitz=1.0), IdentityMap(2),
                    labelled, None, 1.0, SearchDomain(dim=2, halfwidth=1.0))
    assert np.signbit(op.transform_weights(np.array([-0.1, 0.5]))[0])
    first = ws.approx_emp_error(np.array([-0.1, 0.5]))
    assert ws.approx_emp_error(np.array([0.1, 0.5])) == first
    assert len(ws._emp_cache) == 1


def test_sensitivity_regularized_rho_zero_is_plain_approx_erm():
    _, labelled, unlabelled = _make_data(seed=9)
    domain = SearchDomain(dim=2, halfwidth=1.0, mode="grid", points_per_axis=11)
    dhat = EmpiricalSensitivity(unlabelled, 1.0)
    out = lambda_erm(labelled, OP, 0.0, dhat, LOSS, domain)
    base = constrained_erm(labelled, unlabelled, OP, math.inf, 1.0, LOSS, domain)
    assert np.array_equal(out.hypothesis.weights, base.hypothesis.weights)


def test_sensitivity_regularized_large_rho_prefers_zero_sensitivity():
    _, labelled, unlabelled = _make_data(seed=10)
    domain = SearchDomain(dim=2, halfwidth=1.0, mode="grid", points_per_axis=11)
    dhat = EmpiricalSensitivity(unlabelled, 1.0)
    out = lambda_erm(labelled, OP, 1e6, dhat, LOSS, domain)
    assert empirical_sensitivity(out.hypothesis, OP, unlabelled, 1).value == 0.0
    assert out.sensitivity_kind == "empirical"


def test_regularised_learners_reject_other_regularisers():
    _, labelled, unlabelled = _make_data(seed=10)
    domain = SearchDomain(dim=2, halfwidth=1.0, mode="grid", points_per_axis=5)

    def dhat(h):
        return empirical_sensitivity(h, OP, unlabelled, 1).value

    for regulariser in (dhat, 1.0):
        with pytest.raises(
            InvalidParameterError, match="EmpiricalSensitivity or AnalyticSensitivity"
        ):
            lambda_erm(labelled, OP, 1.0, regulariser, LOSS, domain)


def test_lambda_erm_zero_lambda_is_plain_approx_erm():
    _, labelled, unlabelled = _make_data(seed=11)
    domain = SearchDomain(dim=2, halfwidth=1.0, mode="grid", points_per_axis=11)
    out = lambda_erm(labelled, OP, 0.0, EmpiricalSensitivity(unlabelled, 1.0), LOSS, domain)
    base = constrained_erm(labelled, unlabelled, OP, math.inf, 1.0, LOSS, domain)
    assert np.array_equal(out.hypothesis.weights, base.hypothesis.weights)


def test_lambda_erm_matches_regularized_at_lambda_rho(tmp_path):
    # the CLI's sensitivity_regularized_erm runs lambda_erm at lambda = rho,
    # rho defaulting to the loss's Lipschitz constant
    from approx_sense.cli import main
    from approx_sense.dataio import write_sample_csv

    _, labelled, unlabelled = _make_data(seed=12)
    write_sample_csv(labelled, tmp_path / "lab.csv")
    write_sample_csv(unlabelled, tmp_path / "unlab.csv")
    payloads = {}
    for learner in ({"algorithm": "lambda_erm", "lambda": 0.7},
                    {"algorithm": "sensitivity_regularized_erm"}):
        name = learner["algorithm"]
        learner["domain"] = {"dim": 2, "halfwidth": 1.0, "mode": "grid", "points_per_axis": 11}
        config = {
            "schema_version": 1,
            "seed": 0,
            "task": {"kind": "csv", "labelled_path": str(tmp_path / "lab.csv"),
                     "unlabelled_path": str(tmp_path / "unlab.csv")},
            "operator": {"kind": "uniform_quantizer", "step": 0.5, "clamp": 1.0},
            "loss": {"kind": "clipped_absolute", "lipschitz": 0.7},
            "learner": learner,
        }
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
        out = tmp_path / name
        assert main(["train", "--config", str(tmp_path / f"{name}.json"), "--out", str(out)]) == 0
        payloads[name] = json.loads((out / "train.json").read_text())
    by_lambda, by_rho = payloads["lambda_erm"], payloads["sensitivity_regularized_erm"]
    for key in ("weights", "objective_value", "objective_trace"):
        assert by_lambda[key] == by_rho[key]


def test_lambda_sweep_sensitivity_nonincreasing():
    _, labelled, unlabelled = _make_data(seed=13)
    domain = SearchDomain(dim=2, halfwidth=1.0, mode="grid", points_per_axis=15)
    previous = math.inf
    for lam in (0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0):
        out = lambda_erm(labelled, OP, lam, EmpiricalSensitivity(unlabelled, 1.0), LOSS, domain)
        d = empirical_sensitivity(out.hypothesis, OP, unlabelled, 1).value
        assert d <= previous + 1e-12
        previous = d


def test_analytic_lambda_erm_recovers_on_grid_teacher():
    task, labelled, _ = _make_data(seed=14, noise=0.0)
    domain = SearchDomain(dim=2, halfwidth=1.0, mode="grid", points_per_axis=5)
    out = lambda_erm(labelled, OP, 0.5, AnalyticSensitivity(1.0), LOSS, domain)
    np.testing.assert_array_equal(out.hypothesis.weights, task.teacher.weights)
    assert out.objective_value == 0.0


def test_analytic_lambda_zero_is_plain_approx_erm():
    _, labelled, unlabelled = _make_data(seed=15)
    domain = SearchDomain(dim=2, halfwidth=1.0, mode="grid", points_per_axis=11)
    out = lambda_erm(labelled, OP, 0.0, AnalyticSensitivity(1.0), LOSS, domain)
    base = constrained_erm(labelled, unlabelled, OP, math.inf, 1.0, LOSS, domain)
    assert np.array_equal(out.hypothesis.weights, base.hypothesis.weights)


def test_learner_with_polynomial_feature_map():
    # the search runs in feature space: weights have the map's dimension
    from approx_sense import PolynomialMap, UnlabelledSample
    from approx_sense.core import Hypothesis, LabelledSample

    fmap = PolynomialMap(input_dim=1, degree=2)
    teacher = Hypothesis(weights=np.array([0.0, 0.5, -0.5]), feature_map=fmap)
    rng = np.random.default_rng(30)
    x = rng.uniform(-1, 1, size=(40, 1))
    from approx_sense.core import predictions

    labelled = LabelledSample(inputs=x, targets=predictions(teacher, x))
    unlabelled = UnlabelledSample(inputs=rng.uniform(-1, 1, size=(30, 1)))
    domain = SearchDomain(dim=3, halfwidth=1.0, mode="grid", points_per_axis=5)
    dhat = EmpiricalSensitivity(unlabelled, 1.0)
    out = lambda_erm(labelled, OP, 0.5, dhat, LOSS, domain, feature_map=fmap)
    np.testing.assert_array_equal(out.hypothesis.weights, teacher.weights)
    assert out.objective_value == 0.0


# ---------------------------------------------------------------------------
# lambda-grid SRM
# ---------------------------------------------------------------------------


def test_lambda_grid_single_lambda():
    _, labelled, unlabelled = _make_data(seed=16)
    domain = SearchDomain(dim=2, halfwidth=1.0, mode="grid", points_per_axis=11)
    single = lambda_grid_srm(labelled, unlabelled, OP, [0.3], [1.0], 1.0, LOSS, domain)
    direct = lambda_erm(labelled, OP, 0.3, EmpiricalSensitivity(unlabelled, 1.0), LOSS, domain)
    assert np.array_equal(single.hypothesis.weights, direct.hypothesis.weights)
    assert single.lam == 0.3 and len(single.per_lambda) == 1


def test_lambda_grid_tie_breaks_to_lowest_index():
    _, labelled, unlabelled = _make_data(seed=17)
    domain = SearchDomain(dim=2, halfwidth=1.0, mode="grid", points_per_axis=11)
    out = lambda_grid_srm(
        labelled, unlabelled, OP, [0.25, 0.25], [0.5, 0.5], 1.0, LOSS, domain
    )
    assert out.lam == 0.25
    assert out.per_lambda[0]["score"] == out.per_lambda[1]["score"]


def test_lambda_grid_penalty_arithmetic():
    _, labelled, unlabelled = _make_data(seed=18, m=50)
    domain = SearchDomain(dim=2, halfwidth=1.0, mode="grid", points_per_axis=5)
    weights = [0.5, 0.25, 0.125]
    out = lambda_grid_srm(labelled, unlabelled, OP, [0.1, 0.2, 0.3], weights, 1.0, LOSS, domain)
    expected = 3.0 * math.sqrt(3.0 * math.log(2.0) / 100.0)
    assert out.per_lambda[2]["penalty"] == pytest.approx(expected, rel=1e-12)


def test_lambda_grid_empty_rejected():
    _, labelled, unlabelled = _make_data(seed=19)
    domain = SearchDomain(dim=2, halfwidth=1.0, mode="grid", points_per_axis=5)
    with pytest.raises(InvalidParameterError):
        lambda_grid_srm(labelled, unlabelled, OP, [], [], 1.0, LOSS, domain)


def test_lambda_grid_transforms_each_block_once(monkeypatch):
    # 2,000 unlabelled rows make blocks of 65 candidates: 7 on the 21 x 21 grid,
    # screened once for all three lambdas
    _, labelled, unlabelled = _make_data(seed=20, m_u=2000)
    domain = SearchDomain(dim=2, halfwidth=1.0, mode="grid", points_per_axis=21)
    blocks = []
    transform = UniformQuantizer.transform_weights

    def counted(self, w, rng=None):
        if np.ndim(w) == 2:
            blocks.append(len(w))
        return transform(self, w, rng)

    monkeypatch.setattr(UniformQuantizer, "transform_weights", counted)
    out = lambda_grid_srm(labelled, unlabelled, OP, [0.1, 0.5, 2.0], [0.25] * 3, 1.0, LOSS, domain)
    assert blocks == [65] * 6 + [51]
    direct = lambda_erm(labelled, OP, out.lam, EmpiricalSensitivity(unlabelled, 1.0), LOSS, domain)
    assert np.array_equal(out.hypothesis.weights, direct.hypothesis.weights)
    assert out.objective_value == direct.objective_value


# ---------------------------------------------------------------------------
# deployment penalty and the analytic equivalence analogue
# ---------------------------------------------------------------------------


def test_deployment_penalty_bound():
    # err(A f) <= err(f) + rho t whenever the true sensitivity of f is <= t,
    # up to Monte Carlo slack on both error estimates
    rho = LOSS.lipschitz
    checked = 0
    for seed in range(12):
        task, labelled, unlabelled = _make_data(seed=100 + seed, noise=0.1)
        domain = SearchDomain(dim=2, halfwidth=1.0, mode="grid", points_per_axis=11)
        t = 0.15
        out = constrained_erm(labelled, unlabelled, OP, t, 1.0, LOSS, domain)
        d_true = true_sensitivity_mc(out.hypothesis, OP, task, 1, 40_000, seed)
        if d_true.value > t:
            continue
        err_full = true_error_mc(out.hypothesis, task, LOSS, 40_000, seed + 1)
        err_approx = true_error_mc(out.approx_hypothesis, task, LOSS, 40_000, seed + 1)
        slack = 4.0 * (err_full.standard_error + err_approx.standard_error)
        assert err_approx.value <= err_full.value + rho * t + slack
        checked += 1
    assert checked >= 8


def test_analytic_lambda_equivalence_analogue():
    # the analytic-regulariser analogue of the lambda/threshold equivalence,
    # with no sensitivity-estimation slack
    from approx_sense import lambda_equivalence_bound
    from approx_sense.core import loss_values

    delta = 0.05
    rho = LOSS.lipschitz
    domain = SearchDomain(dim=2, halfwidth=1.0, mode="grid", points_per_axis=15)
    cands = domain.candidate_matrix()
    budget = 1.0
    overline = np.linalg.norm(cands - OP.transform_weights(cands), axis=1) * budget
    holds = 0
    trials = 30
    for seed in range(trials):
        task, labelled, _ = _make_data(seed=300 + seed, noise=0.1, m=50)
        lam = 0.1 + 0.4 * (seed / trials)
        out = lambda_erm(labelled, OP, lam, AnalyticSensitivity(budget), LOSS, domain)
        w_lam = np.asarray(out.hypothesis.weights)
        t = float(np.linalg.norm(w_lam - OP.transform_weights(w_lam)) * budget)
        err_rows = loss_values(
            LOSS, labelled.inputs @ OP.transform_weights(cands).T, labelled.targets[:, None]
        ).mean(axis=0)
        feasible = overline <= t
        idx = int(np.flatnonzero(feasible)[np.argmin(err_rows[feasible])])
        e_lam = true_error_mc(out.approx_hypothesis, task, LOSS, 20_000, seed)
        e_t = true_error_mc(
            linear_hypothesis(OP.transform_weights(cands[idx])), task, LOSS, 20_000, seed
        )
        rad, _ = mc_rademacher_rows(
            (labelled.inputs @ np.unique(OP.transform_weights(cands), axis=0).T).T, 800, seed
        )
        rhs = lambda_equivalence_bound(rho, rad, labelled.m, delta, lam).value
        if e_lam.value - e_t.value <= rhs:
            holds += 1
    assert holds >= math.ceil(0.95 * trials)


# ---------------------------------------------------------------------------
# blocked search equals the per-candidate search
# ---------------------------------------------------------------------------


def scalar_search(domain, objective, feasibility=None, diagnostic=None):
    """Reference loop: one objective call per candidate, in the search order
    of ``domain`` (enumeration, or the coordinate-descent sweeps), keeping
    the first strict minimum; returns (weights, value, trace)."""
    min_diag = math.inf

    def try_point(w):
        nonlocal min_diag
        if feasibility is not None:
            if diagnostic is not None:
                min_diag = min(min_diag, diagnostic(w))
            if not feasibility(w):
                return math.inf
        return float(objective(w))

    best_w, best_val, trace = None, math.inf, []
    if domain.mode != "coordinate_descent":
        for w in domain.candidate_matrix():
            val = try_point(w)
            if val < best_val:
                best_w, best_val = w, val
                trace.append(val)
    else:
        axis = domain.axis_values()
        rng = np.random.default_rng(np.random.SeedSequence(entropy=domain.seed, spawn_key=(8,)))
        starts = rng.uniform(-domain.halfwidth, domain.halfwidth, size=(domain.restarts, domain.dim))
        for start in starts:
            w = axis[np.argmin(np.abs(axis[None, :] - start[:, None]), axis=1)]
            val = try_point(w)
            for _ in range(domain.iterations):
                improved = False
                for j in range(domain.dim):
                    for a in axis:
                        if a == w[j]:
                            continue
                        cand = w.copy()
                        cand[j] = a
                        v = try_point(cand)
                        if v < val:
                            val, w, improved = v, cand, True
                if not improved:
                    break
            if val < best_val:
                best_w, best_val = w, val
                trace.append(val)
    if best_w is None or math.isinf(best_val):
        raise InfeasibleThresholdError(
            "no feasible point in the search domain",
            min_sensitivity=None if math.isinf(min_diag) else min_diag,
        )
    return best_w, best_val, tuple(trace)


def assert_same_search(out, weights, value, trace):
    assert np.array_equal(out.hypothesis.weights, weights)
    assert out.objective_value == value
    assert out.objective_trace == trace


@st.composite
def problems(draw):
    """A small learning problem: data, operator, loss, p and a search domain
    in any of the three modes."""
    mode = draw(st.sampled_from(["grid", "random", "coordinate_descent"]))
    seed = draw(st.integers(0, 2**16))
    if mode == "grid":
        domain = SearchDomain(
            dim=2,
            halfwidth=draw(st.sampled_from([0.85, 1.0, 1.3])),
            points_per_axis=draw(st.integers(3, 17)),
        )
    elif mode == "random":
        domain = SearchDomain(
            dim=draw(st.integers(2, 4)), halfwidth=1.0, mode="random",
            n_samples=draw(st.integers(20, 120)), seed=seed,
        )
    else:
        domain = SearchDomain(
            dim=draw(st.integers(2, 4)), halfwidth=1.0, mode="coordinate_descent",
            points_per_axis=draw(st.integers(3, 11)), restarts=2, iterations=3, seed=seed,
        )
    op = draw(
        st.one_of(
            st.sampled_from([0.25, 0.5]).map(lambda step: UniformQuantizer(step=step, clamp=1.0)),
            st.integers(0, 2).map(lambda keep: MagnitudePruner(keep=keep)),
        )
    )
    loss = LossSpec(kind=draw(st.sampled_from(["clipped_absolute", "clipped_hinge", "clipped_squared"])))
    p = draw(st.sampled_from([1.0, 2.0]))
    rng = np.random.default_rng(seed)
    d = domain.dim
    x = rng.normal(0.0, 0.6, size=(30, d))
    y = x @ rng.uniform(-0.9, 0.9, size=d) + rng.normal(0.0, 0.1, size=30)
    labelled = LabelledSample(inputs=x, targets=y)
    unlabelled = UnlabelledSample(inputs=rng.normal(0.0, 0.6, size=(40, d)))
    return labelled, unlabelled, op, loss, p, domain


EQUIVALENCE = settings(max_examples=40, deadline=None)
LAMBDAS = st.sampled_from([0.0, 0.05, 0.3, 1.0, 25.0])


def _approx_error(op, labelled, loss):
    return lambda w: empirical_error(apply_operator(op, linear_hypothesis(w)), labelled, loss)


def _regularised(op, labelled, loss, coef, sensitivity):
    """emp_err(A f) + coef * sensitivity(f) as a function of the weights."""
    approx = _approx_error(op, labelled, loss)
    return lambda w: approx(w) + coef * sensitivity(linear_hypothesis(w))


@EQUIVALENCE
@given(problems(), LAMBDAS)
def test_lambda_erm_equals_scalar_callback(problem, lam):
    labelled, unlabelled, op, loss, p, domain = problem
    out = lambda_erm(labelled, op, lam, EmpiricalSensitivity(unlabelled, p), loss, domain)

    def dhat(h):
        return empirical_sensitivity(h, op, unlabelled, p).value

    assert_same_search(out, *scalar_search(domain, _regularised(op, labelled, loss, lam, dhat)))


@EQUIVALENCE
@given(problems(), LAMBDAS)
def test_sensitivity_regularized_built_ins_equal_scalar_callbacks(problem, rho):
    labelled, unlabelled, op, loss, p, domain = problem
    budget = 1.3

    def dhat(h):
        return empirical_sensitivity(h, op, unlabelled, p).value

    def overline(h):
        return analytic_sensitivity_upper(h, op, budget).value

    for built_in, callback, kind in [
        (EmpiricalSensitivity(unlabelled, p), dhat, "empirical"),
        (AnalyticSensitivity(budget), overline, "analytic_upper"),
    ]:
        out = lambda_erm(labelled, op, rho, built_in, loss, domain)
        expected = scalar_search(domain, _regularised(op, labelled, loss, rho, callback))
        assert_same_search(out, *expected)
        assert (out.sensitivity_kind, out.lam) == (kind, rho)


@EQUIVALENCE
@given(problems(), st.sampled_from([1e-12, 0.01, 0.05, 0.2, math.inf]))
def test_constrained_erm_equals_scalar_loop(problem, t):
    # piecewise-constant objective: ties everywhere, and tiny t is often infeasible
    labelled, unlabelled, op, loss, p, domain = problem

    def dhat(w):
        return empirical_sensitivity(linear_hypothesis(w), op, unlabelled, p).value

    try:
        expected = scalar_search(
            domain, _approx_error(op, labelled, loss), lambda w: dhat(w) < t, dhat
        )
    except InfeasibleThresholdError as err:
        with pytest.raises(InfeasibleThresholdError) as got:
            constrained_erm(labelled, unlabelled, op, t, p, loss, domain)
        assert got.value.to_dict() == err.to_dict()
        return
    out = constrained_erm(labelled, unlabelled, op, t, p, loss, domain)
    assert_same_search(out, *expected)


def scalar_srm(labelled, unlabelled, op, limits, penalties, loss, p, domain):
    """The SRM objective evaluated per candidate, counting boundary hits and
    clamps on every evaluation; returns (weights, value, trace, k, hits, clamped)."""
    stats = {"hits": 0, "clamps": 0}

    def khat(w):
        d = empirical_sensitivity(linear_hypothesis(w), op, unlabelled, p).value
        for k, limit in enumerate(limits):
            if d <= limit:
                stats["hits"] += d == limit
                return k
        stats["clamps"] += 1
        return len(limits) - 1

    def objective(w):
        return empirical_error(linear_hypothesis(w), labelled, loss) + penalties[khat(w)]

    weights, value, trace = scalar_search(domain, objective)
    k = khat(weights)
    return weights, value, trace, k + 1, stats["hits"], stats["clamps"] > 0


def _srm_pair(problem, thresholds, epsilon_u):
    labelled, unlabelled, op, loss, p, domain = problem
    schedule = ThresholdSchedule(thresholds=thresholds)
    out = srm_learner(
        labelled, unlabelled, op, schedule, epsilon_u, lambda t: 0.2 * t, loss, domain, p=p
    )
    penalties = [
        2.0 * loss.lipschitz * 0.2 * (t + epsilon_u)
        + 3.0 * math.sqrt(math.log(1.0 / w) / (2.0 * labelled.m))
        for t, w in zip(schedule.thresholds, schedule.weights)
    ]
    limits = [t + epsilon_u for t in schedule.thresholds]
    weights, value, trace, k, hits, clamped = scalar_srm(
        labelled, unlabelled, op, limits, penalties, loss, p, domain
    )
    assert_same_search(out, weights, value, trace)
    assert (out.chosen_k, out.boundary_hits, out.clamped) == (k, hits, clamped)
    return out


@EQUIVALENCE
@given(
    problems(),
    st.sampled_from([(0.02, 0.05, 0.1), (1e-9, 2e-9), (0.05, 0.3, 2.0)]),
    st.sampled_from([0.0, 0.01]),
)
def test_srm_learner_equals_scalar_loop(problem, thresholds, epsilon_u):
    _srm_pair(problem, thresholds, epsilon_u)


def test_blocked_search_exact_at_thresholds():
    # thresholds and t set to a candidate's exact dhat: the blocked screen
    # must leave these borderline decisions to the scalar comparison
    _, labelled, unlabelled = _make_data(seed=21)
    domain = SearchDomain(dim=2, halfwidth=1.0, mode="grid", points_per_axis=21)
    problem = (labelled, unlabelled, OP, LOSS, 1.0, domain)
    cands = domain.candidate_matrix()
    d = [empirical_sensitivity(linear_hypothesis(w), OP, unlabelled, 1).value for w in cands]
    on = sorted(set(d))[3]
    out = _srm_pair(problem, (on, 4 * on), 0.0)
    assert out.boundary_hits >= d.count(on)

    def dhat(w):
        return empirical_sensitivity(linear_hypothesis(w), OP, unlabelled, 1).value

    expected = scalar_search(domain, _approx_error(OP, labelled, LOSS), lambda w: dhat(w) < on, dhat)
    assert_same_search(constrained_erm(labelled, unlabelled, OP, on, 1.0, LOSS, domain), *expected)


def test_constrained_erm_borderline_feasibility_is_scalar():
    # t equals the scalar dhat of the unconstrained minimiser, whose blocked
    # value U @ (w - Q(w)) rounds below it: that candidate is infeasible
    # (dhat < t is false), however the blocked screen rounds
    domain = SearchDomain(dim=2, halfwidth=1.0, mode="grid", points_per_axis=21)
    cands = domain.candidate_matrix()
    for seed in range(60):
        _, labelled, unlabelled = _make_data(seed=200 + seed)
        approx = _approx_error(OP, labelled, LOSS)
        best = cands[int(np.argmin([approx(w) for w in cands]))]
        t = empirical_sensitivity(linear_hypothesis(best), OP, unlabelled, 1).value
        blocked = float(np.mean(np.abs(unlabelled.inputs @ (best - OP.transform_weights(best)))))
        if blocked < t:
            break
    else:
        pytest.fail("no seed rounds the blocked sensitivity below the scalar one")

    def dhat(w):
        return empirical_sensitivity(linear_hypothesis(w), OP, unlabelled, 1).value

    out = constrained_erm(labelled, unlabelled, OP, t, 1.0, LOSS, domain)
    assert not np.array_equal(out.hypothesis.weights, best)
    assert_same_search(out, *scalar_search(domain, approx, lambda w: dhat(w) < t, dhat))
