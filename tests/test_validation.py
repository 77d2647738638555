"""Coverage-suite internals: the exact truths the suites compare with agree with
the Monte Carlo references, prop3's regulariser is the true sensitivity, and
each coverage suite fails when its bound calculator is too small."""

from __future__ import annotations

import math

import numpy as np
import pytest

from approx_sense import (
    BoundReport,
    IsotropicGaussian,
    LossSpec,
    SyntheticTask,
    UniformBox,
    UniformQuantizer,
    analytic_sensitivity_upper,
    linear_hypothesis,
    true_error_mc,
    true_sensitivity_mc,
)
from approx_sense import validation
from approx_sense.validation import (
    _gaussian_clipped_error,
    _LinearTrialContext,
    _uniform_box_abs_mean,
    run_suite,
)

N_MC = 200_000
GAUSSIAN_CASES = {
    # (weights, teacher, sd): residual sd s from 0.1 (noise only) to about 2.6
    "teacher": ([0.3, -0.2], [0.3, -0.2], 0.45),
    "near": ([0.5, 0.0, -0.25], [0.4, 0.1, -0.3], 0.45),
    "clip_active": ([1.0, -1.0, 1.0, -1.0, 1.0], [-0.8, 0.8, -0.8, 0.8, -0.8], 0.45),
    "wide": ([1.0, 1.0], [-0.8, -0.8], 0.5),
}


@pytest.mark.parametrize("rho", [1.0, 2.0])
@pytest.mark.parametrize("case", sorted(GAUSSIAN_CASES))
def test_gaussian_clipped_error_matches_true_error_mc(case, rho):
    """true_error_mc is public without a caller in the package: it is the
    Monte Carlo reference that the prop2, prop3 and prop4 suites' closed-form
    true errors are checked against."""
    weights, teacher, sd = GAUSSIAN_CASES[case]
    loss = LossSpec(kind="clipped_absolute", lipschitz=rho)
    task = SyntheticTask(linear_hypothesis(teacher), IsotropicGaussian(sd), label_noise_sd=0.1)
    mc = true_error_mc(linear_hypothesis(weights), task, loss, n_mc=N_MC, seed=len(case))
    exact = float(_gaussian_clipped_error(weights, np.array(teacher), sd, 0.1, loss)[0])
    assert abs(exact - mc.value) <= 4.0 * mc.standard_error, (exact, mc)


def test_gaussian_clipped_error_is_per_row():
    loss = LossSpec(kind="clipped_absolute", lipschitz=2.0)
    rows = np.random.default_rng(1).uniform(-1.0, 1.0, size=(6, 3))
    teacher = np.array([0.2, -0.4, 0.1])
    got = _gaussian_clipped_error(rows, teacher, 0.45, 0.1, loss)
    one_by_one = [_gaussian_clipped_error(w, teacher, 0.45, 0.1, loss)[0] for w in rows]
    assert np.array_equal(got, one_by_one)
    assert np.all((got > 0.0) & (got < loss.clip))


def test_gaussian_clipped_error_noise_only():
    # the closed form reads the residual sd from sd ||w - teacher|| and the
    # noise: at w = teacher only the noise is left, a half-normal mean
    loss = LossSpec(kind="clipped_absolute")
    got = float(_gaussian_clipped_error([0.1, 0.2], np.array([0.1, 0.2]), 0.45, 0.1, loss)[0])
    assert got == pytest.approx(0.1 * math.sqrt(2.0 / math.pi), rel=1e-12)


QUANT = UniformQuantizer(step=0.5, clamp=1.0)
UNIFORM_WEIGHTS = {
    "zero_residual": [0.5, -1.0],
    "one_zero_component": [0.2, 0.5],
    "equal_components": [0.7, -0.2],
    "random": list(np.random.default_rng(7).uniform(-1.0, 1.0, size=2)),
}


@pytest.mark.parametrize("case", sorted(UNIFORM_WEIGHTS))
def test_uniform_box_abs_mean_matches_true_sensitivity_mc(case):
    """true_sensitivity_mc is public without a caller in the package: at
    p = 1 it is the Monte Carlo reference that the lemma1 and prop10 suites'
    closed-form true 1-sensitivities are checked against."""
    weights = np.array(UNIFORM_WEIGHTS[case])
    residual = weights - QUANT.transform_weights(weights)
    task = SyntheticTask(linear_hypothesis([0.0, 0.0]), UniformBox(halfwidth=1.0))
    mc = true_sensitivity_mc(linear_hypothesis(weights), QUANT, task, 1.0, N_MC, seed=len(case))
    exact = float(_uniform_box_abs_mean(residual[None, :])[0])
    if case == "zero_residual":
        assert exact == mc.value == 0.0
    else:
        assert abs(exact - mc.value) <= 4.0 * mc.standard_error, (residual, exact, mc)


def test_uniform_box_abs_mean_closed_values():
    residuals = np.array([[0.0, 0.0], [0.2, 0.0], [0.0, -0.2], [0.2, -0.2], [-0.1, 0.2]])
    want = [0.0, 0.1, 0.1, 0.1 + 0.04 / 1.2, 0.1 + 0.01 / 1.2]
    assert _uniform_box_abs_mean(residuals) == pytest.approx(want, rel=1e-14)


def test_prop3_regulariser_is_true_sensitivity():
    # prop3 regularises with true_d1 as an analytic sensitivity; the two
    # round their products in different orders, so they agree to a few ulp
    ctx = _LinearTrialContext(0, 41, 5)
    budget = ctx.true_sensitivity.input_norm_budget
    for i in range(5):
        cands = ctx.trial(i)["cands"]
        got = [analytic_sensitivity_upper(linear_hypothesis(w), ctx.op, budget).value for w in cands]
        want = ctx.true_d1(cands - ctx.op.transform_weights(cands))
        assert np.all(np.abs(np.array(got) - want) <= 4 * np.spacing(want))


# suite -> the bounds calculator its right-hand side comes from, and a value
# that every trial violates (prop4's left-hand side is always 0)
SUITE_RHS = {
    "lemma1": ("sensitivity_deviation_bound", 0.0),
    "prop10": ("fast_rate_deviation_bound", 0.0),
    "prop2": ("joint_bounds", 0.0),
    "prop3": ("regularized_bound", 0.0),
    "prop4": ("lambda_equivalence_bound", -1.0),
}


@pytest.mark.parametrize("suite", sorted(SUITE_RHS))
def test_suite_fails_when_its_bound_is_too_small(monkeypatch, suite):
    name, value = SUITE_RHS[suite]
    report = BoundReport(name, value, (("constant", value),), 0.05, True, {})
    # joint_bounds returns its three reports at once
    result = (report,) * 3 if name == "joint_bounds" else report
    monkeypatch.setattr(validation, name, lambda *args, **kwargs: result)
    assert not run_suite(suite, trials=5, seed=0).passed


def test_cluster_dominance_checks_each_component_once(monkeypatch):
    # a trial draws one rotation per component and makes three bound calls
    # with the components; each rotation's orthogonality is checked once
    from approx_sense import radgeom

    counts = {"components": 0, "checks": 0}

    def counted(fn, key):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(validation, "_random_orthogonal",
                        counted(validation._random_orthogonal, "components"))
    monkeypatch.setattr(radgeom, "_check_rotation", counted(radgeom._check_rotation, "checks"))
    assert run_suite("cluster_dominance", trials=20, seed=3).passed
    assert counts["checks"] == counts["components"] >= 20


@pytest.mark.parametrize("suite, mean_slack", [
    ("cluster_dominance", "0x1.93ed106b80ab6p+1"),
    ("kernel_dominance", "0x1.99a5fb163fd93p-4"),
])
def test_dominance_suites_mean_slack_is_pinned(suite, mean_slack):
    # 30 trials take their streams from core.derived_rngs' hashed seed words;
    # the pinned values are those of one derived_rng per trial
    report = run_suite(suite, trials=30, seed=5)
    assert report.passed and report.mean_slack.hex() == mean_slack
