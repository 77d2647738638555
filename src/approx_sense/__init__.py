"""Sensitivity-aware statistical learning toolkit.

Estimate how much an approximation operator (quantisation, pruning,
stochastic rounding) perturbs a predictor, learn predictors that stay
accurate under approximation, and evaluate the generalisation guarantees
that tie the two together.

``import approx_sense`` imports no submodule.  Each exported name imports
its module on first access (PEP 562), so ``from approx_sense import
lambda_erm`` loads ``learners`` and what it imports, and nothing else.  The
CLI binds its names from the same table (``_bind``).
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
        "derived_rng",
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
        "Cluster",
        "EXACT_ENUMERATION_CAP",
        "Ellipse",
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
        "Constituent",
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
    "dataio": (
        "append_csv_row",
        "format_float",
        "read_matrix_csv",
        "read_sample_csv",
        "write_sample_csv",
    ),
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


def _bind(namespace: dict, *modules: str) -> None:
    """Import each module and bind the names the package exports from it in
    ``namespace``, keeping a name already bound there."""
    for module in modules:
        loaded = importlib.import_module(f".{module}", __name__)
        for name in _EXPORTS[module]:
            namespace.setdefault(name, getattr(loaded, name))


def _lazy_getattr(namespace: dict, owner: str):
    """A module ``__getattr__`` (PEP 562) that binds an exported name, and
    the other exports of its module, in ``namespace`` on first access.  Any
    other name raises AttributeError, so that ``from approx_sense import
    learners`` falls back to importing the submodule."""

    def __getattr__(name: str):
        module = _OWNER.get(name)
        if module is None:
            raise AttributeError(f"module {owner!r} has no attribute {name!r}")
        _bind(namespace, module)  # later lookups do not come here
        return namespace[name]

    return __getattr__


__getattr__ = _lazy_getattr(globals(), __name__)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
