"""Bound calculators: itemised arithmetic, reductions, and report invariants."""

from __future__ import annotations

import json
import math

import pytest

from approx_sense import (
    InvalidParameterError,
    RadEstimate,
    fast_rate_deviation_bound,
    hoeffding_term,
    joint_bounds,
    lambda_equivalence_bound,
    regularized_bound,
    sensitivity_deviation_bound,
    srm_selection_bound,
    srm_uniform_bound,
    stochastic_bound,
    uniform_restricted_bound,
)
from approx_sense.bounds import BoundReport, Constituent


def term_sum(report):
    return math.fsum(v for _, v in report.terms)


# ---------------------------------------------------------------------------
# hoeffding term
# ---------------------------------------------------------------------------


def test_hoeffding_values():
    assert hoeffding_term(3.0, 40.0, 50) == pytest.approx(
        3.0 * math.sqrt(math.log(40.0) / 100.0), rel=1e-15
    )
    assert hoeffding_term(3.0, 40.0, 10**12) == pytest.approx(0.0, abs=1e-5)
    assert hoeffding_term(3.0, 1.0, 50) == 0.0


def test_hoeffding_validation():
    with pytest.raises(InvalidParameterError):
        hoeffding_term(3.0, 0.5, 50)
    with pytest.raises(InvalidParameterError):
        hoeffding_term(3.0, 2.0, 0)
    with pytest.raises(InvalidParameterError):
        hoeffding_term(-1.0, 2.0, 50)
    assert hoeffding_term(2.0, 4.0, 8) == pytest.approx(2.0 * math.sqrt(math.log(4.0) / 16.0))


# ---------------------------------------------------------------------------
# deviation bounds
# ---------------------------------------------------------------------------


def test_deviation_bound_formula():
    bound = sensitivity_deviation_bound(0.0, 1.0, 50, 0.05)
    assert bound.value == pytest.approx(3.0 * math.sqrt(math.log(40.0) / 100.0), rel=1e-12)
    assert bound.term("rademacher_term") == 0.0


def test_deviation_bound_large_m_limit():
    bound = sensitivity_deviation_bound(0.1, 1.0, 10**12, 0.05)
    assert bound.value == pytest.approx(0.2, abs=1e-5)


def test_deviation_bound_rejects_bad_delta():
    with pytest.raises(InvalidParameterError):
        sensitivity_deviation_bound(0.0, 1.0, 50, 2.0)


def test_fast_rate_formula():
    bound = fast_rate_deviation_bound(0.05, 0.1, 1.0, 100, 0.1)
    expected = (
        0.3 + 0.1 * math.sqrt(2.0 * math.log(10.0) / 100.0) + 6.0 * math.log(10.0) / 100.0
    )
    assert bound.value == pytest.approx(expected, rel=1e-12)
    labels = {label for label, _ in bound.terms}
    assert labels == {"rademacher_term", "variance_term", "fast_rate_term"}


def test_fast_rate_t_zero_drops_variance_term():
    bound = fast_rate_deviation_bound(0.05, 0.0, 1.0, 100, 0.1)
    assert bound.term("variance_term") == 0.0
    assert bound.value == pytest.approx(0.3 + 6.0 * math.log(10.0) / 100.0, rel=1e-12)


def test_fast_rate_decays_like_one_over_m():
    # with rad = 0 and t = 0 the bound is exactly 6 C ln(1/delta) / m
    b1 = fast_rate_deviation_bound(0.0, 0.0, 1.0, 100, 0.1).value
    b2 = fast_rate_deviation_bound(0.0, 0.0, 1.0, 200, 0.1).value
    assert b1 == pytest.approx(2.0 * b2, rel=1e-12)


# ---------------------------------------------------------------------------
# uniform restricted
# ---------------------------------------------------------------------------


def test_uniform_restricted_confidence_only():
    report = uniform_restricted_bound(0.0, 0.0, 1.0, 50, 0.05)
    assert report.value == pytest.approx(3.0 * math.sqrt(math.log(40.0) / 100.0), rel=1e-15)


def test_uniform_restricted_rad_linearity():
    a = uniform_restricted_bound(0.1, 0.05, 2.0, 50, 0.05)
    b = uniform_restricted_bound(0.1, 0.10, 2.0, 50, 0.05)
    assert b.term("complexity") == pytest.approx(2.0 * a.term("complexity"), rel=1e-15)


def test_report_terms_sum_and_digest():
    report = uniform_restricted_bound(0.1, 0.05, 1.0, 50, 0.05)
    assert report.value == pytest.approx(term_sum(report), abs=1e-12)
    assert len(report.inputs_digest) == 16
    again = uniform_restricted_bound(0.1, 0.05, 1.0, 50, 0.05)
    assert report.inputs_digest == again.inputs_digest
    other = uniform_restricted_bound(0.1, 0.06, 1.0, 50, 0.05)
    assert report.inputs_digest != other.inputs_digest
    payload = report.to_dict()
    json.dumps(payload)  # serialisable
    assert payload["certified"] is True


# ---------------------------------------------------------------------------
# srm uniform
# ---------------------------------------------------------------------------


def test_report_rejects_non_finite_terms_and_sums():
    # a term that overflows to inf, and finite terms whose sum overflows
    with pytest.raises(InvalidParameterError, match="uniform_restricted is not finite"):
        uniform_restricted_bound(0.1, 1e308, 1e308, 50, 0.05)
    with pytest.raises(InvalidParameterError, match="stochastic_expected is not finite"):
        stochastic_bound(1e308, 1e308, 0.1, 1.0, 50, 0.05)
    with pytest.raises(InvalidParameterError, match="must equal the sum"):
        BoundReport(name="x", value=math.nan, terms=(("a", 0.5),), delta=0.05, certified=True,
                    inputs={})


def test_srm_uniform_weight_term():
    report = srm_uniform_bound(0.0, 0.0, 1.0, 1.0, 50, 0.05)
    assert report.term("weight_confidence") == 0.0
    report = srm_uniform_bound(0.0, 0.0, 2.0**-3, 1.0, 50, 0.05)
    assert report.term("weight_confidence") == pytest.approx(
        3.0 * math.sqrt(3.0 * math.log(2.0) / 100.0), rel=1e-15
    )


def test_srm_uniform_monotone_in_weight():
    values = [
        srm_uniform_bound(0.1, 0.05, w, 1.0, 50, 0.05).value for w in (1.0, 0.5, 0.25, 0.125)
    ]
    assert all(b >= a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# joint bounds
# ---------------------------------------------------------------------------


def test_joint_bounds_t_zero_coincide():
    vs_best, approx, full = joint_bounds(0.15, 0.2, 0.05, 1.0, 0.0, 50, 0.05)
    assert approx.value == full.value


def test_joint_bounds_difference_is_rho_t():
    for rho, t in ((1.0, 0.1), (2.0, 0.3)):
        _, approx, full = joint_bounds(0.1, 0.2, 0.05, rho, t, 50, 0.05)
        assert full.value - approx.value == pytest.approx(rho * t, rel=1e-12)


def test_joint_bounds_arithmetic():
    _, _, full = joint_bounds(0.2, 0.2, 0.05, 1.0, 0.1, 50, 0.05)
    expected = 0.2 + 0.2 + 0.1 + 4.0 * math.sqrt(math.log(180.0) / 100.0)
    assert full.value == pytest.approx(expected, rel=1e-14)


# ---------------------------------------------------------------------------
# regularized (adaptive threshold)
# ---------------------------------------------------------------------------


def test_regularized_scalar_arithmetic():
    report = regularized_bound(0.1, 1.0, 0.05, 0.0, 100, 0.05)
    expected = 0.2 + 4.0 * math.sqrt(math.log(160.0) / 200.0)
    assert report.value == pytest.approx(expected, rel=1e-14)
    assert report.name == "regularized_adaptive"


def test_regularized_empirical_variant_constants():
    plain = regularized_bound(0.1, 1.0, 0.05, 0.0, 100, 0.05)
    empirical = regularized_bound(0.1, 1.0, 0.05, 0.0, 100, 0.05, epsilon_u=0.0)
    assert empirical.name == "regularized_adaptive_empirical"
    assert empirical.term("confidence") == pytest.approx(
        5.0 * math.sqrt(math.log(320.0) / 200.0), rel=1e-14
    )
    assert empirical.term("confidence") != plain.term("confidence")
    assert empirical.term("estimation_slack") == 0.0


def test_regularized_epsilon_scaling():
    a = regularized_bound(0.1, 2.0, 0.05, 0.0, 100, 0.05, epsilon_u=0.1)
    b = regularized_bound(0.1, 2.0, 0.05, 0.0, 100, 0.05, epsilon_u=0.2)
    assert b.term("estimation_slack") == pytest.approx(2.0 * a.term("estimation_slack"))


def test_regularized_grid_takes_infimum():
    report = regularized_bound([0.5, 0.1, 0.3], 1.0, [0.05, 0.2, 0.6], 0.0, 100, 0.05)
    assert report.term("adaptive_tradeoff") == pytest.approx(0.5, rel=1e-15)
    assert dict(report.metadata)["argmin_t"] == 0.2


# ---------------------------------------------------------------------------
# lambda equivalence
# ---------------------------------------------------------------------------


def test_lambda_equivalence_arithmetic():
    report = lambda_equivalence_bound(1.0, 0.05, 50, 0.05, 1.0, 0.1)
    expected = 0.2 + 6.0 * math.sqrt(math.log(160.0) / 100.0) + 0.2
    assert report.value == pytest.approx(expected, rel=1e-14)
    assert report.name == "lambda_equivalence"


def test_lambda_equivalence_zero_lambda_ignores_epsilon():
    a = lambda_equivalence_bound(1.0, 0.05, 50, 0.05, 0.0, 0.1)
    b = lambda_equivalence_bound(1.0, 0.05, 50, 0.05, 0.0, 5.0)
    assert a.value == b.value


def test_lambda_equivalence_analytic_form_drops_term():
    with_eps = lambda_equivalence_bound(1.0, 0.05, 50, 0.05, 1.0, 0.1)
    without = lambda_equivalence_bound(1.0, 0.05, 50, 0.05, 1.0)
    assert without.name == "analytic_lambda_equivalence"
    assert with_eps.value - without.value == pytest.approx(0.2, rel=1e-12)
    assert all(label != "estimation_slack" for label, _ in without.terms)


# ---------------------------------------------------------------------------
# stochastic
# ---------------------------------------------------------------------------


def test_stochastic_all_zero_constituents():
    report = stochastic_bound(0.0, 0.0, 0.0, 1.0, 100, 0.1)
    assert report.value == pytest.approx(math.sqrt(math.log(10.0) / 200.0), rel=1e-14)


def test_stochastic_linear_in_sensitivity():
    a = stochastic_bound(0.1, 0.1, 0.05, 2.0, 100, 0.1)
    b = stochastic_bound(0.1, 0.2, 0.05, 2.0, 100, 0.1)
    assert b.value - a.value == pytest.approx(2.0 * 0.1, rel=1e-12)


def test_stochastic_certified_flag_tracks_mc_constituents():
    certified = stochastic_bound(0.1, 0.1, 0.05, 1.0, 100, 0.1)
    assert certified.certified
    mc = stochastic_bound(Constituent(0.1, certified=False), 0.1, 0.05, 1.0, 100, 0.1)
    assert not mc.certified
    mc_rad = stochastic_bound(
        0.1,
        0.1,
        RadEstimate(value=0.05, method="monte_carlo", m=10, standard_error=0.01),
        1.0,
        100,
        0.1,
    )
    assert not mc_rad.certified
    exact_rad = stochastic_bound(
        0.1, 0.1, RadEstimate(value=0.05, method="exact_enumeration", m=10), 1.0, 100, 0.1
    )
    assert exact_rad.certified


# ---------------------------------------------------------------------------
# srm selection
# ---------------------------------------------------------------------------


def test_srm_selection_single_and_outer_term():
    report = srm_selection_bound([0.2], [0.05], [1.0], 1.0, 50, 0.05)
    outer = 4.0 * math.sqrt(math.log(120.0) / 100.0)
    assert report.term("outer_confidence") == pytest.approx(outer, rel=1e-14)
    assert report.value == pytest.approx(0.2 + 0.1 + 0.0 + outer, rel=1e-12)


def test_srm_selection_dominated_entry_ignored():
    base = srm_selection_bound([0.2, 0.25], [0.05, 0.05], [0.5, 0.5], 1.0, 50, 0.05)
    extended = srm_selection_bound(
        [0.2, 0.25, 5.0], [0.05, 0.05, 0.05], [0.5, 0.25, 0.125], 1.0, 50, 0.05
    )
    assert base.term("class_best_error") == extended.term("class_best_error")
    assert dict(extended.metadata)["argmin_k"] == 1.0


def test_srm_selection_validation():
    with pytest.raises(InvalidParameterError):
        srm_selection_bound([], [], [], 1.0, 50, 0.05)
    with pytest.raises(InvalidParameterError):
        srm_selection_bound([0.1], [0.05], [1.5], 1.0, 50, 0.05)
    # every threshold's error and complexity, not only the selected one's
    with pytest.raises(InvalidParameterError, match="rad_Ht_k must be >= 0"):
        srm_selection_bound([0.1], [-0.5], [0.5], 1.0, 50, 0.1)
    with pytest.raises(InvalidParameterError, match="rad_Ht_k must be >= 0"):
        srm_selection_bound([0.1, 0.9], [0.05, -0.01], [0.5, 0.5], 1.0, 50, 0.1)
    with pytest.raises(InvalidParameterError, match="err_star_k must be >= 0"):
        srm_selection_bound([0.1, -0.2], [0.05, 0.05], [0.5, 0.5], 1.0, 50, 0.1)


# ---------------------------------------------------------------------------
# global report invariants
# ---------------------------------------------------------------------------


def test_all_reports_nonnegative_and_decreasing_in_m():
    makers = [
        lambda m: uniform_restricted_bound(0.1, 0.05, 1.0, m, 0.05),
        lambda m: srm_uniform_bound(0.1, 0.05, 0.25, 1.0, m, 0.05),
        lambda m: joint_bounds(0.1, 0.1, 0.05, 1.0, 0.1, m, 0.05)[1],
        lambda m: regularized_bound(0.1, 1.0, 0.05, 0.05, m, 0.05),
        lambda m: lambda_equivalence_bound(1.0, 0.05, m, 0.05, 0.5, 0.1),
        lambda m: stochastic_bound(0.1, 0.1, 0.05, 1.0, m, 0.05),
        lambda m: srm_selection_bound([0.1], [0.05], [0.5], 1.0, m, 0.05),
    ]
    for make in makers:
        previous = math.inf
        for m in (10, 50, 200, 1000):
            report = make(m)
            assert report.value >= 0
            assert report.value <= previous
            assert report.value == pytest.approx(term_sum(report), abs=1e-12)
            previous = report.value


def test_delta_validated():
    with pytest.raises(InvalidParameterError):
        uniform_restricted_bound(0.1, 0.05, 1.0, 50, 1.5)


CALCULATORS = {
    "uniform_restricted": lambda d: uniform_restricted_bound(0.1, 0.05, 1.0, 50, d),
    "srm_uniform": lambda d: srm_uniform_bound(0.1, 0.05, 0.25, 1.0, 50, d),
    "joint": lambda d: joint_bounds(0.1, 0.1, 0.05, 1.0, 0.1, 50, d),
    "regularized": lambda d: regularized_bound(0.1, 1.0, 0.05, 0.05, 50, d),
    "lambda_equivalence": lambda d: lambda_equivalence_bound(1.0, 0.05, 50, d, 0.5, 0.1),
    "stochastic": lambda d: stochastic_bound(0.1, 0.1, 0.05, 1.0, 50, d),
    "srm_selection": lambda d: srm_selection_bound([0.1], [0.05], [0.5], 1.0, 50, d),
    "sensitivity_deviation": lambda d: sensitivity_deviation_bound(0.05, 1.0, 50, d),
    "fast_rate_deviation": lambda d: fast_rate_deviation_bound(0.05, 0.1, 1.0, 50, d),
}


@pytest.mark.parametrize("make", CALCULATORS.values(), ids=CALCULATORS)
def test_zero_delta_is_an_invalid_parameter(make):
    # delta is checked before any term divides by it
    with pytest.raises(InvalidParameterError):
        make(0.0)


# a negative complexity is reported under the name of the caller's parameter
NEGATIVE_COMPLEXITY = {
    "uniform_restricted": ("rad_Ht", lambda: uniform_restricted_bound(0.1, -0.5, 1.0, 50, 0.05)),
    "srm_uniform": ("rad_Ht_k", lambda: srm_uniform_bound(0.1, -0.5, 0.25, 1.0, 50, 0.05)),
    "joint": ("rad_HA", lambda: joint_bounds(0.1, 0.1, -0.5, 1.0, 0.1, 50, 0.05)),
    "regularized": ("rad_HA", lambda: regularized_bound(0.1, 1.0, 0.05, -0.5, 50, 0.05)),
    "lambda_equivalence": ("rad_HA",
                           lambda: lambda_equivalence_bound(1.0, -0.5, 50, 0.05, 0.5, 0.1)),
    "stochastic": ("exp_rad", lambda: stochastic_bound(0.1, 0.1, -0.5, 1.0, 50, 0.05)),
    "srm_selection": ("rad_Ht_k",
                      lambda: srm_selection_bound([0.1], [-0.5], [0.5], 1.0, 50, 0.05)),
    "sensitivity_deviation": ("rad_of_sensitivity_class",
                              lambda: sensitivity_deviation_bound(-0.5, 1.0, 50, 0.05)),
    "fast_rate_deviation": ("rad", lambda: fast_rate_deviation_bound(-0.5, 0.1, 1.0, 50, 0.05)),
}


@pytest.mark.parametrize("name, make", NEGATIVE_COMPLEXITY.values(), ids=NEGATIVE_COMPLEXITY)
def test_negative_complexity_names_the_callers_parameter(name, make):
    with pytest.raises(InvalidParameterError) as excinfo:
        make()
    assert excinfo.value.message == f"{name} must be >= 0"
