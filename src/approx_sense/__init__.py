"""Sensitivity-aware statistical learning toolkit.

Estimate how much an approximation operator (quantisation, pruning,
stochastic rounding) perturbs a predictor, learn predictors that stay
accurate under approximation, and evaluate the generalisation guarantees
that tie the two together.

``import approx_sense`` imports no submodule.  Each exported name imports
its module on first access (PEP 562), so ``from approx_sense import
lambda_erm`` loads ``learners`` and what it imports, and nothing else.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "core": (
        "ApproxOperator",
        "CLIP_MARGIN",
        "FeatureMap",
        "Hypothesis",
        "IdentityMap",
        "LabelledSample",
        "LossSpec",
        "MagnitudePruner",
        "PolynomialMap",
        "RbfMap",
        "StochasticRounder",
        "UniformQuantizer",
        "UnlabelledSample",
        "apply_operator",
        "empirical_error",
        "linear_hypothesis",
        "loss_values",
        "predictions",
    ),
    "synthetic": (
        "GaussianMixture",
        "IsotropicGaussian",
        "MCEstimate",
        "SyntheticTask",
        "UniformBox",
        "derived_rng",
        "generate",
        "true_error_mc",
    ),
    "sensitivity": (
        "SensitivityEstimate",
        "analytic_sensitivity_upper",
        "empirical_sensitivity",
        "expected_sensitivity",
        "true_sensitivity_mc",
        "variance_condition_check",
    ),
    "radgeom": (
        "EXACT_ENUMERATION_CAP",
        "GeometryModel",
        "RadEstimate",
        "SensitivityPointSet",
        "cluster_bound",
        "crude_bounds",
        "exact_rademacher_pointset",
        "exact_rademacher_rows",
        "exact_rademacher_support",
        "kernel_sensitivity_class_bound",
        "mc_rademacher_pointset",
        "mc_rademacher_rows",
        "operator_norm_lower_estimate",
        "positive_orthant_ball_sup",
        "rotated_union_bound",
    ),
    "learners": (
        "AnalyticSensitivity",
        "EmpiricalSensitivity",
        "LearnerOutput",
        "SearchDomain",
        "ThresholdSchedule",
        "constrained_erm",
        "lambda_erm",
        "lambda_grid_srm",
        "make_restricted_rad_estimator",
        "srm_learner",
    ),
    "bounds": (
        "BoundReport",
        "fast_rate_deviation_bound",
        "hoeffding_term",
        "joint_bounds",
        "lambda_equivalence_bound",
        "regularized_bound",
        "sensitivity_deviation_bound",
        "srm_selection_bound",
        "srm_uniform_bound",
        "stochastic_bound",
        "uniform_restricted_bound",
    ),
    "validation": ("CoverageReport", "SUITES", "run_suite"),
    "errors": (
        "ApproxSenseError",
        "ConfigError",
        "DeterministicOperatorError",
        "DimensionMismatchError",
        "EnumerationCapError",
        "InfeasibleThresholdError",
        "InvalidParameterError",
        "MissingInputError",
        "StochasticOperatorError",
        "UnknownSuiteError",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)


def __getattr__(name: str):
    # any other name raises AttributeError, so that ``from approx_sense import
    # learners`` falls back to importing the submodule
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups do not come here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
