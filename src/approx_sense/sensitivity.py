"""Approximation sensitivity: how far predictions move under a weight transform.

The p-sensitivity of a hypothesis is the p-norm average of |f(x) - Af(x)| over
inputs, either in expectation (estimated by Monte Carlo) or over a concrete
sample.  The deviation bounds that tie the two together are in ``bounds``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ApproxOperator,
    Hypothesis,
    UnlabelledSample,
    _allocating,
    _check_number,
    _distinct_rows,
    _mc_mean_se,
    _p_mean,
    _without_none,
    apply_operator,
    derived_rng,
    derived_rngs,
    predictions,
)
from .errors import DeterministicOperatorError, InvalidParameterError, StochasticOperatorError
from .synthetic import SyntheticTask

SENSITIVITY_KINDS = ("empirical", "monte_carlo_true", "analytic_upper", "expected_stochastic")


@dataclass(frozen=True)
class SensitivityEstimate:
    p: float
    value: float
    kind: str
    provenance: str = ""
    standard_error: float | None = None

    def __post_init__(self):
        if self.kind not in SENSITIVITY_KINDS:
            raise InvalidParameterError(f"unknown sensitivity kind {self.kind!r}")
        if not all(map(math.isfinite, (self.value, self.standard_error or 0.0))):
            raise InvalidParameterError(f"{self.kind} sensitivity is not finite: {self.to_dict()}")
        if self.value < 0:
            raise InvalidParameterError("sensitivity value must be >= 0")

    to_dict = _without_none


def pointwise_gaps(h: Hypothesis, op: ApproxOperator, inputs: np.ndarray) -> np.ndarray:
    """|f(x) - Af(x)| per input row, for a deterministic operator."""
    if not op.deterministic:
        raise StochasticOperatorError(
            "pointwise gaps of a stochastic operator are undefined; "
            "use expected_sensitivity instead"
        )
    approx = apply_operator(op, h)
    return np.abs(predictions(h, inputs) - predictions(approx, inputs))


def empirical_sensitivity(
    h: Hypothesis,
    op: ApproxOperator,
    sample: UnlabelledSample,
    p: float = 1.0,
) -> SensitivityEstimate:
    """((1/m) sum |f(x) - Af(x)|^p)^(1/p) over the sample."""
    p = _check_number("p", p, 1)
    gaps = pointwise_gaps(h, op, sample.inputs)
    return SensitivityEstimate(
        p=p, value=_p_mean(gaps, p), kind="empirical", provenance=sample.source_id
    )


def true_sensitivity_mc(
    h: Hypothesis,
    op: ApproxOperator,
    task: SyntheticTask,
    p: float = 1.0,
    n_mc: int = 10_000,
    seed: int = 0,
) -> SensitivityEstimate:
    """Monte Carlo estimate of the expected p-sensitivity over fresh input draws.

    The standard error of the p-th power mean is propagated through the
    1/p root by the delta method.
    """
    p = _check_number("p", p, 1)
    if n_mc < 1:
        raise InvalidParameterError("n_mc must be >= 1")
    rng = derived_rng(seed, 3)
    inputs = task.draw_inputs(rng, n_mc)
    mean_p, se_mean = _mc_mean_se(pointwise_gaps(h, op, inputs) ** p)
    value = mean_p ** (1.0 / p)
    se = se_mean / (p * mean_p ** (1.0 - 1.0 / p)) if mean_p > 0 else 0.0
    return SensitivityEstimate(
        p=p,
        value=value,
        kind="monte_carlo_true",
        provenance=f"mc:{seed}:{n_mc}",
        standard_error=se,
    )


def analytic_sensitivity_upper(
    h: Hypothesis,
    op: ApproxOperator,
    input_norm_budget: float,
) -> SensitivityEstimate:
    """Certified over-estimate ||w - Q(w)||_2 * budget of the 1-sensitivity.

    Valid via Cauchy-Schwarz whenever ``input_norm_budget`` upper-bounds the
    average feature norm of the inputs the hypothesis will meet.
    """
    if input_norm_budget < 0:
        raise InvalidParameterError("input_norm_budget must be >= 0")
    if not op.deterministic:
        raise StochasticOperatorError("analytic upper bound needs a deterministic operator")
    approx = apply_operator(op, h)
    residual = float(np.linalg.norm(h.weights - approx.weights))
    return SensitivityEstimate(
        p=1.0,
        value=residual * input_norm_budget,
        kind="analytic_upper",
        provenance=f"budget:{input_norm_budget!r}",
    )


def _per_draw(
    op: ApproxOperator, h: Hypothesis, inputs, n_omega: int, stream, value
) -> np.ndarray:
    """``value(base, drawn)`` per operator draw, draw i from the generator
    ``stream(i)``: the predictions of ``h`` and of its draw on ``inputs``.

    ``stream`` is a core.derived_rngs function, which makes each draw's
    generator without hashing its seed again.  Each generator draws as
    ``apply_operator`` would; the draws are rounded as one block, and each
    distinct drawn weight vector is evaluated once with the matrix-vector
    product of ``predictions``, so every value is bit-equal to its own
    per-draw evaluation.
    """
    feats = h.feature_map.transform(np.asarray(inputs, dtype=float))
    base = feats @ h.weights
    # the whole table, before any draw: a count too large fails here
    with _allocating(f"operator draws for n_omega={n_omega}, d={len(h.weights)}"):
        uniforms = np.empty((n_omega, len(h.weights)))
    for i, row in enumerate(uniforms):
        stream(i).random(out=row)
    distinct, inverse = _distinct_rows(op.round_with(h.weights, uniforms))
    return np.array([value(base, feats @ row) for row in distinct])[inverse]


def expected_sensitivity(
    h: Hypothesis,
    op: ApproxOperator,
    sample: UnlabelledSample,
    p: float = 1.0,
    n_omega: int = 100,
    seed: int = 0,
) -> SensitivityEstimate:
    """Mean empirical p-sensitivity over n_omega independent operator draws."""
    p = _check_number("p", p, 1)
    if op.deterministic:
        raise DeterministicOperatorError(
            "operator is deterministic; use empirical_sensitivity instead"
        )
    if n_omega < 1:
        raise InvalidParameterError("n_omega must be >= 1")
    vals = _per_draw(op, h, sample.inputs, n_omega, derived_rngs(seed, 4, count=n_omega),
                     lambda base, drawn: _p_mean(base - drawn, p))
    value, se = _mc_mean_se(vals)
    return SensitivityEstimate(
        p=p,
        value=value,
        kind="expected_stochastic",
        provenance=f"omega:{seed}:{n_omega}",
        standard_error=se,
    )


# ---------------------------------------------------------------------------
# Stochastic variance condition
# ---------------------------------------------------------------------------

CAPACITY_FUNCTIONS = ("constant_one", "weight_norm")


@dataclass(frozen=True)
class VarianceConditionReport:
    """Per-hypothesis check of E_omega ||A f - f||^2_(L2 empirical) <= (alpha C(f))^2."""

    lhs: float
    lhs_standard_error: float
    capacity: float
    threshold: float
    holds: bool
    n_omega: int = field(default=0)


def variance_condition_check(
    op: ApproxOperator,
    hypotheses: list[Hypothesis],
    sample: UnlabelledSample,
    alpha: float,
    capacity_fn: str = "constant_one",
    n_omega: int = 200,
    seed: int = 0,
) -> list[VarianceConditionReport]:
    """Monte Carlo check of the stochastic-operator variance condition."""
    if capacity_fn not in CAPACITY_FUNCTIONS:
        raise InvalidParameterError(f"unknown capacity function {capacity_fn!r}")
    if op.deterministic:
        raise DeterministicOperatorError("variance condition applies to stochastic operators")
    if alpha < 0:
        raise InvalidParameterError("alpha must be >= 0")
    if n_omega < 1:
        raise InvalidParameterError("n_omega must be >= 1")
    reports = []
    for j, h in enumerate(hypotheses):
        sq = _per_draw(op, h, sample.inputs, n_omega, derived_rngs(seed, 5, j, count=n_omega),
                       lambda base, drawn: float(np.mean((drawn - base) ** 2)))
        lhs, se = _mc_mean_se(sq)
        cap = 1.0 if capacity_fn == "constant_one" else float(np.linalg.norm(h.weights))
        threshold = (alpha * cap) ** 2
        reports.append(
            VarianceConditionReport(
                lhs=lhs,
                lhs_standard_error=se,
                capacity=cap,
                threshold=threshold,
                holds=lhs <= threshold,
                n_omega=n_omega,
            )
        )
    return reports
