"""Sensitivity estimators and the stochastic variance check."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from approx_sense import (
    DeterministicOperatorError,
    InvalidParameterError,
    StochasticOperatorError,
    StochasticRounder,
    SyntheticTask,
    UniformBox,
    UniformQuantizer,
    UnlabelledSample,
    analytic_sensitivity_upper,
    apply_operator,
    empirical_sensitivity,
    expected_sensitivity,
    linear_hypothesis,
    predictions,
    true_sensitivity_mc,
    variance_condition_check,
)
from approx_sense.core import _p_mean, derived_rng
from approx_sense.sensitivity import SensitivityEstimate
from approx_sense.validation import suite_lemma1

QUANT = UniformQuantizer(step=0.5, clamp=1.0)


def _task(weights, law=None, seed=0):
    return SyntheticTask(
        teacher=linear_hypothesis(weights),
        input_law=law or UniformBox(halfwidth=1.0),
        label_noise_sd=0.0,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# empirical sensitivity
# ---------------------------------------------------------------------------


def test_empirical_sensitivity_on_grid_is_zero():
    h = linear_hypothesis([0.5, -1.0])
    sample = UnlabelledSample(inputs=np.random.default_rng(0).normal(size=(20, 2)))
    for p in (1.0, 2.0, 4.0):
        assert empirical_sensitivity(h, QUANT, sample, p).value == 0.0


def test_empirical_sensitivity_arithmetic():
    # w = 0.6 quantises to 0.5; gaps on S = {1, -2} are 0.1 and 0.2
    h = linear_hypothesis([0.6])
    sample = UnlabelledSample(inputs=[[1.0], [-2.0]])
    assert empirical_sensitivity(h, QUANT, sample, 1).value == pytest.approx(0.15, abs=1e-15)
    assert empirical_sensitivity(h, QUANT, sample, 2).value == pytest.approx(
        math.sqrt(0.025), abs=1e-15
    )


def test_empirical_sensitivity_rejects_stochastic_op():
    h = linear_hypothesis([0.3])
    sample = UnlabelledSample(inputs=[[1.0]])
    with pytest.raises(StochasticOperatorError, match="expected_sensitivity"):
        empirical_sensitivity(h, StochasticRounder(step=1.0, clamp=1.0), sample)


def test_p_must_be_at_least_one():
    h = linear_hypothesis([0.6])
    sample = UnlabelledSample(inputs=[[1.0]])
    with pytest.raises(InvalidParameterError):
        empirical_sensitivity(h, QUANT, sample, p=0.5)


def test_estimate_rejects_non_finite():
    with pytest.raises(InvalidParameterError, match="not finite"):
        SensitivityEstimate(p=2.0, value=math.inf, kind="empirical")
    with pytest.raises(InvalidParameterError, match="not finite"):
        SensitivityEstimate(p=1.0, value=0.5, kind="expected_stochastic", standard_error=math.nan)


def test_jensen_monotonicity_in_p():
    rng = np.random.default_rng(3)
    for _ in range(50):
        h = linear_hypothesis(rng.uniform(-1, 1, size=3))
        sample = UnlabelledSample(inputs=rng.normal(size=(15, 3)))
        op = UniformQuantizer(step=float(rng.uniform(0.1, 0.8)), clamp=1.0)
        v1 = empirical_sensitivity(h, op, sample, 1).value
        v2 = empirical_sensitivity(h, op, sample, 2).value
        v4 = empirical_sensitivity(h, op, sample, 4).value
        assert v1 <= v2 + 1e-12 and v2 <= v4 + 1e-12


# ---------------------------------------------------------------------------
# Monte Carlo true sensitivity
# ---------------------------------------------------------------------------


def test_true_sensitivity_zero_on_grid():
    est = true_sensitivity_mc(linear_hypothesis([0.5]), QUANT, _task([0.5]), 1, 1000, 1)
    assert est.value == 0.0


def test_true_sensitivity_uniform_integrals():
    # residual r = 0.1 on U[0, 1]-supported inputs via the shifted box law:
    # use U[-1, 1]: E|r x| = r/2 and sqrt(E (r x)^2) = r / sqrt(3)
    h = linear_hypothesis([0.6])
    task = _task([0.0])
    est1 = true_sensitivity_mc(h, QUANT, task, 1, 100_000, 7)
    assert abs(est1.value - 0.05) <= 3.0 * est1.standard_error
    est2 = true_sensitivity_mc(h, QUANT, task, 2, 100_000, 7)
    assert abs(est2.value - 0.1 / math.sqrt(3)) <= 3.0 * est2.standard_error


def test_true_sensitivity_deterministic_per_seed():
    h = linear_hypothesis([0.6, 0.2])
    task = _task([0.0, 0.0])
    a = true_sensitivity_mc(h, QUANT, task, 2, 500, 5)
    b = true_sensitivity_mc(h, QUANT, task, 2, 500, 5)
    assert a == b


# ---------------------------------------------------------------------------
# analytic upper bound
# ---------------------------------------------------------------------------


def test_analytic_upper_zero_on_grid():
    assert analytic_sensitivity_upper(linear_hypothesis([0.5]), QUANT, 2.0).value == 0.0


def test_analytic_upper_product():
    # ||w - Q(w)||_2 = 0.5 with w = (0.25, 0.25, 0.25, 0.25) under step 0.5
    h = linear_hypothesis([0.25, 0.25, 0.25, 0.25])
    est = analytic_sensitivity_upper(h, QUANT, 2.0)
    assert est.value == pytest.approx(1.0, rel=1e-12)


def test_analytic_upper_dominates_empirical():
    # unit-ball inputs: average feature norm is at most 1
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        h = linear_hypothesis(rng.uniform(-1, 1, size=d))
        raw = rng.normal(size=(20, d))
        inputs = raw / np.maximum(1.0, np.linalg.norm(raw, axis=1))[:, None]
        sample = UnlabelledSample(inputs=inputs)
        op = UniformQuantizer(step=float(rng.uniform(0.1, 0.9)), clamp=1.0)
        upper = analytic_sensitivity_upper(h, op, 1.0).value
        assert empirical_sensitivity(h, op, sample, 1).value <= upper + 1e-12


def test_uniform_boundedness_constant():
    # Cauchy-Schwarz: every pointwise gap is at most the uniform constant
    # C = sup ||w - Q(w)||_2 * max ||x||_2, as the lemma1, prop4 and prop10
    # suites compute it
    rng = np.random.default_rng(13)
    weights = rng.uniform(-1, 1, size=(40, 2))
    inputs = rng.normal(size=(30, 2))
    sup_residual = float(np.max(np.linalg.norm(weights - QUANT.transform_weights(weights), axis=1)))
    C = sup_residual * float(np.max(np.linalg.norm(inputs, axis=1)))
    from approx_sense.sensitivity import pointwise_gaps

    for w in weights:
        assert np.all(pointwise_gaps(linear_hypothesis(w), QUANT, inputs) <= C + 1e-12)


# ---------------------------------------------------------------------------
# stochastic operators
# ---------------------------------------------------------------------------


def test_expected_sensitivity_two_outcome():
    # at w = 0.3, step 1, single input x = 1:
    # gap is 0.3 with prob 0.7 and 0.7 with prob 0.3, so the mean is 0.42
    op = StochasticRounder(step=1.0, clamp=1.0)
    h = linear_hypothesis([0.3])
    sample = UnlabelledSample(inputs=[[1.0]])
    est = expected_sensitivity(h, op, sample, p=1, n_omega=4000, seed=2)
    assert abs(est.value - 0.42) <= 3.0 * est.standard_error


def test_expected_sensitivity_fine_grid_vanishes():
    op = StochasticRounder(step=1e-6, clamp=1.0)
    h = linear_hypothesis([0.3])
    sample = UnlabelledSample(inputs=[[1.0]])
    est = expected_sensitivity(h, op, sample, p=1, n_omega=50, seed=3)
    assert est.value <= 1e-6


def test_expected_sensitivity_deterministic_per_seed():
    op = StochasticRounder(step=0.5, clamp=1.0)
    h = linear_hypothesis([0.3, -0.2])
    sample = UnlabelledSample(inputs=np.random.default_rng(1).normal(size=(10, 2)))
    a = expected_sensitivity(h, op, sample, 1, 100, 9)
    assert a == expected_sensitivity(h, op, sample, 1, 100, 9)


def test_expected_sensitivity_rejects_deterministic_op():
    with pytest.raises(DeterministicOperatorError):
        expected_sensitivity(
            linear_hypothesis([0.3]), QUANT, UnlabelledSample(inputs=[[1.0]]), 1, 10, 0
        )


def test_variance_condition_two_outcome():
    """variance_condition_check is public without a caller in the package: it
    is a Monte Carlo check of the paper's variance condition for stochastic
    approximation operators,
    E_omega ||A_omega f - f||^2_(L2 over the sample) <= (alpha C(f))^2."""
    # E |A f(1) - f(1)|^2 = 0.3 * 0.49 + 0.7 * 0.09 = 0.21
    op = StochasticRounder(step=1.0, clamp=1.0)
    h = linear_hypothesis([0.3])
    sample = UnlabelledSample(inputs=[[1.0]])
    (report,) = variance_condition_check(op, [h], sample, alpha=0.5, n_omega=4000, seed=4)
    assert abs(report.lhs - 0.21) <= 3.0 * report.lhs_standard_error
    assert report.holds == (report.lhs <= 0.25)


def test_variance_condition_on_grid_holds_for_any_alpha():
    op = StochasticRounder(step=0.5, clamp=1.0)
    h = linear_hypothesis([0.5])  # already on the grid: no randomness survives
    sample = UnlabelledSample(inputs=[[1.0], [2.0]])
    (report,) = variance_condition_check(op, [h], sample, alpha=1e-9, n_omega=50, seed=5)
    assert report.lhs == 0.0 and report.holds


def test_variance_condition_alpha_zero_fails_with_nonzero_lhs():
    op = StochasticRounder(step=1.0, clamp=1.0)
    h = linear_hypothesis([0.3])
    sample = UnlabelledSample(inputs=[[1.0]])
    (report,) = variance_condition_check(op, [h], sample, alpha=0.0, n_omega=200, seed=6)
    assert report.lhs > 0 and not report.holds


def test_variance_condition_weight_norm_capacity():
    op = StochasticRounder(step=1.0, clamp=1.0)
    h = linear_hypothesis([0.3, 0.4])
    sample = UnlabelledSample(inputs=[[1.0, 0.0]])
    (report,) = variance_condition_check(
        op, [h], sample, alpha=2.0, capacity_fn="weight_norm", n_omega=50, seed=7
    )
    assert report.capacity == pytest.approx(0.5)
    assert report.threshold == pytest.approx(1.0)


def reference_draws(op, h, inputs, key, n_omega, value):
    """The per-draw loop: one operator draw and one prediction pass per draw."""
    base = predictions(h, inputs)
    vals = np.empty(n_omega)
    for i in range(n_omega):
        drawn = apply_operator(op, h, noise_seed=derived_rng(*key, i))
        vals[i] = value(base, predictions(drawn, inputs))
    return vals


def _mean_se(vals):
    n = len(vals)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 40),
    on_grid=st.booleans(),
    step=st.sampled_from([0.1, 0.5, 1.0]),
    p=st.sampled_from([1.0, 2.0, 3.5]),
    n_omega=st.integers(1, 80),
    seed=st.integers(0, 2**16),
)
@example(d=1, on_grid=False, step=0.5, p=1.0, n_omega=50, seed=1)
@example(d=3, on_grid=True, step=0.5, p=2.0, n_omega=20, seed=2)
@example(d=40, on_grid=False, step=0.1, p=1.0, n_omega=80, seed=3)  # every draw distinct
def test_batched_draws_equal_per_draw_loop(d, on_grid, step, p, n_omega, seed):
    rng = np.random.default_rng(seed)
    op = StochasticRounder(step=step, clamp=4.0 * step)
    weights = step * (rng.integers(-3, 4, size=(2, d)) if on_grid else rng.uniform(-3.5, 3.5, (2, d)))
    hs = [linear_hypothesis(w) for w in weights]
    sample = UnlabelledSample(inputs=rng.normal(size=(int(rng.integers(1, 30)), d)))

    est = expected_sensitivity(hs[0], op, sample, p, n_omega, seed)
    vals = reference_draws(op, hs[0], sample.inputs, (seed, 4), n_omega,
                           lambda base, drawn: _p_mean(base - drawn, p))
    assert (est.value, est.standard_error) == _mean_se(vals)

    reports = variance_condition_check(op, hs, sample, alpha=1.0, n_omega=n_omega, seed=seed)
    for j, (h, report) in enumerate(zip(hs, reports)):
        sq = reference_draws(op, h, sample.inputs, (seed, 5, j), n_omega,
                             lambda base, drawn: float(np.mean((drawn - base) ** 2)))
        assert (report.lhs, report.lhs_standard_error) == _mean_se(sq)


def test_expected_sensitivity_value_is_pinned():
    # 4,100 draws span two blocks of core.derived_rngs' hashed seed words;
    # the value and its error are those of one derived_rng per draw
    rng = np.random.default_rng(5)
    h = linear_hypothesis(rng.uniform(-1.0, 1.0, 6))
    sample = UnlabelledSample(inputs=rng.uniform(-1.0, 1.0, (200, 6)))
    est = expected_sensitivity(h, StochasticRounder(step=0.25, clamp=1.0), sample, 1.0, 4100, 2026)
    assert (est.value.hex(), est.standard_error.hex()) == (
        "0x1.f8d61e7a8f7ddp-4", "0x1.776b887fe928ep-12")


# ---------------------------------------------------------------------------
# coverage (reduced-trial variants of the acceptance suites)
# ---------------------------------------------------------------------------


def test_deviation_coverage_small():
    report = suite_lemma1(trials=60, seed=3)
    assert report.coverage >= report.floor
    # fast-rate bound covers the same deviations at the same floor
    fast_violations = dict(report.stats)["fast_rate_violations"]
    assert 1.0 - fast_violations / report.trials >= report.floor
