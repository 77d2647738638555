"""Sensitivity-aware statistical learning toolkit.

Estimate how much an approximation operator (quantisation, pruning,
stochastic rounding) perturbs a predictor, learn predictors that stay
accurate under approximation, and evaluate the generalisation guarantees
that tie the two together.
"""

from .core import (
    ApproxOperator,
    CLIP_MARGIN,
    FeatureMap,
    Hypothesis,
    IdentityMap,
    LabelledSample,
    LossSpec,
    MagnitudePruner,
    PolynomialMap,
    RbfMap,
    StochasticRounder,
    UniformQuantizer,
    UnlabelledSample,
    apply_operator,
    empirical_error,
    linear_hypothesis,
    loss_values,
    predictions,
)
from .synthetic import (
    GaussianMixture,
    IsotropicGaussian,
    MCEstimate,
    SyntheticTask,
    UniformBox,
    derived_rng,
    generate,
    true_error_mc,
)
from .sensitivity import (
    SensitivityEstimate,
    analytic_sensitivity_upper,
    empirical_sensitivity,
    expected_sensitivity,
    true_sensitivity_mc,
    variance_condition_check,
)
from .radgeom import (
    EXACT_ENUMERATION_CAP,
    GeometryModel,
    RadEstimate,
    SensitivityPointSet,
    cluster_bound,
    crude_bounds,
    exact_rademacher_pointset,
    exact_rademacher_rows,
    exact_rademacher_support,
    kernel_sensitivity_class_bound,
    mc_rademacher_pointset,
    mc_rademacher_rows,
    operator_norm_lower_estimate,
    positive_orthant_ball_sup,
    rotated_union_bound,
)
from .learners import (
    AnalyticSensitivity,
    EmpiricalSensitivity,
    LearnerOutput,
    SearchDomain,
    ThresholdSchedule,
    constrained_erm,
    lambda_erm,
    lambda_grid_srm,
    make_restricted_rad_estimator,
    srm_learner,
)
from .bounds import (
    BoundReport,
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
from .validation import CoverageReport, SUITES, run_suite
from .errors import (
    ApproxSenseError,
    ConfigError,
    DeterministicOperatorError,
    DimensionMismatchError,
    EnumerationCapError,
    InfeasibleThresholdError,
    InvalidParameterError,
    MissingInputError,
    StochasticOperatorError,
    UnknownSuiteError,
)

__version__ = "0.1.0"
