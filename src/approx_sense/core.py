"""Core model types: samples, feature maps, hypotheses, approximation operators, losses.

Hypotheses are generalised-linear predictors x -> <w, phi(x)> over an explicit
finite-dimensional feature map.  Approximation operators act on the weight
vector only, so the approximate predictor is x -> <Q(w), phi(x)>.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    StochasticOperatorError,
)

#: Losses are clipped at 1 - CLIP_MARGIN so the bound B = 1 is strict.
CLIP_MARGIN = 2.0**-20


def _as_matrix(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise InvalidParameterError(f"{name} must be a 2-d array, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise InvalidParameterError(f"{name} needs at least one row")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"{name} contains non-finite entries")
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabelledSample:
    """m input rows with one real target per row."""

    inputs: np.ndarray
    targets: np.ndarray
    source_id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "inputs", _as_matrix(self.inputs, "inputs"))
        targets = np.asarray(self.targets, dtype=float)
        if targets.ndim != 1 or targets.shape[0] != self.inputs.shape[0]:
            raise DimensionMismatchError(
                f"targets length {targets.shape} does not match {self.inputs.shape[0]} input rows"
            )
        if not np.all(np.isfinite(targets)):
            raise InvalidParameterError("targets contain non-finite entries")
        targets.flags.writeable = False
        object.__setattr__(self, "targets", targets)

    @property
    def m(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class UnlabelledSample:
    """m_u input rows, no targets."""

    inputs: np.ndarray
    source_id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "inputs", _as_matrix(self.inputs, "inputs"))

    @property
    def m(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


# ---------------------------------------------------------------------------
# Feature maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityMap:
    """phi(x) = x."""

    input_dim: int

    @property
    def feature_dim(self) -> int:
        return self.input_dim

    def transform(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=float)
        if inputs.shape[-1] != self.input_dim:
            raise DimensionMismatchError(
                f"expected input dimension {self.input_dim}, got {inputs.shape[-1]}"
            )
        return inputs


@dataclass(frozen=True)
class PolynomialMap:
    """All monomials of total degree <= degree, constant term included.

    Monomials are ordered by total degree, then lexicographically in the
    coordinate indices, so the feature layout is reproducible.
    """

    input_dim: int
    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise InvalidParameterError("polynomial degree must be >= 1")

    def _monomials(self) -> list[tuple[int, ...]]:
        out: list[tuple[int, ...]] = []
        for deg in range(self.degree + 1):
            out.extend(itertools.combinations_with_replacement(range(self.input_dim), deg))
        return out

    @property
    def feature_dim(self) -> int:
        return len(self._monomials())

    def transform(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=float)
        if inputs.shape[-1] != self.input_dim:
            raise DimensionMismatchError(
                f"expected input dimension {self.input_dim}, got {inputs.shape[-1]}"
            )
        single = inputs.ndim == 1
        x = np.atleast_2d(inputs)
        cols = []
        for mono in self._monomials():
            if not mono:
                cols.append(np.ones(x.shape[0]))
            else:
                cols.append(np.prod(x[:, list(mono)], axis=1))
        feats = np.column_stack(cols)
        return feats[0] if single else feats


@dataclass(frozen=True)
class RbfMap:
    """phi_j(x) = exp(-||x - c_j||^2 / (2 width^2)) for fixed centers c_j."""

    centers: np.ndarray
    width: float

    def __post_init__(self):
        centers = _as_matrix(self.centers, "centers")
        object.__setattr__(self, "centers", centers)
        if self.width <= 0:
            raise InvalidParameterError("rbf width must be positive")
        try:
            finite = math.isfinite(2.0 * self.width**2)
        except OverflowError:
            finite = False
        if not finite:
            raise InvalidParameterError(
                f"rbf width {self.width} is too large: 2 width^2 overflows"
            )

    @property
    def input_dim(self) -> int:
        return self.centers.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.centers.shape[0]

    def transform(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=float)
        if inputs.shape[-1] != self.input_dim:
            raise DimensionMismatchError(
                f"expected input dimension {self.input_dim}, got {inputs.shape[-1]}"
            )
        single = inputs.ndim == 1
        x = np.atleast_2d(inputs)
        sq = ((x[:, None, :] - self.centers[None, :, :]) ** 2).sum(axis=2)
        feats = np.exp(-sq / (2.0 * self.width**2))
        return feats[0] if single else feats


FeatureMap = IdentityMap | PolynomialMap | RbfMap


# ---------------------------------------------------------------------------
# Hypotheses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Hypothesis:
    """Weight vector paired with a feature map; predicts <weights, phi(x)>."""

    weights: np.ndarray
    feature_map: FeatureMap

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise InvalidParameterError("weights must be a 1-d vector")
        if not np.all(np.isfinite(w)):
            raise InvalidParameterError("weights contain non-finite entries")
        if w.shape[0] != self.feature_map.feature_dim:
            raise DimensionMismatchError(
                f"weight length {w.shape[0]} does not match feature dimension "
                f"{self.feature_map.feature_dim}"
            )
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


def linear_hypothesis(weights) -> Hypothesis:
    """Shorthand for a hypothesis over the identity feature map."""
    w = np.asarray(weights, dtype=float)
    return Hypothesis(weights=w, feature_map=IdentityMap(input_dim=w.shape[0]))


def predictions(h: Hypothesis, inputs: np.ndarray) -> np.ndarray:
    """Vectorised predictions for a matrix of input rows."""
    return h.feature_map.transform(np.asarray(inputs, dtype=float)) @ h.weights


# ---------------------------------------------------------------------------
# Approximation operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformQuantizer:
    """Round each coordinate to the nearest multiple of ``step`` after clamping.

    Exact midpoints round to the even multiple (numpy's round-half-even),
    which keeps the operator deterministic and idempotent.
    """

    step: float
    clamp: float
    deterministic: bool = field(default=True, init=False)

    def __post_init__(self):
        if self.step <= 0:
            raise InvalidParameterError("quantizer step must be positive")
        if self.clamp <= 0:
            raise InvalidParameterError("quantizer clamp range must be positive")

    def transform_weights(self, w: np.ndarray, rng=None) -> np.ndarray:
        clipped = np.clip(w, -self.clamp, self.clamp)
        return self.step * np.round(clipped / self.step)


@dataclass(frozen=True)
class MagnitudePruner:
    """Keep the ``keep`` largest-magnitude coordinates, zero the rest.

    Equal magnitudes are resolved in favour of the lower index.  A 2-d
    argument is pruned row by row.
    """

    keep: int
    deterministic: bool = field(default=True, init=False)

    def __post_init__(self):
        if self.keep < 0:
            raise InvalidParameterError("keep count must be >= 0")

    def transform_weights(self, w: np.ndarray, rng=None) -> np.ndarray:
        if self.keep > w.shape[-1]:
            raise InvalidParameterError(
                f"keep count {self.keep} exceeds weight dimension {w.shape[-1]}"
            )
        out = np.zeros_like(w)
        if self.keep == 0:
            return out
        kept = np.argsort(-np.abs(w), axis=-1, kind="stable")[..., : self.keep]
        np.put_along_axis(out, kept, np.take_along_axis(w, kept, axis=-1), axis=-1)
        return out


@dataclass(frozen=True)
class StochasticRounder:
    """Unbiased rounding to an adjacent grid point: P(up) = fractional part."""

    step: float
    clamp: float
    deterministic: bool = field(default=False, init=False)

    def __post_init__(self):
        if self.step <= 0:
            raise InvalidParameterError("rounder step must be positive")
        if self.clamp <= 0:
            raise InvalidParameterError("rounder clamp range must be positive")

    def transform_weights(self, w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        clipped = np.clip(w, -self.clamp, self.clamp)
        lo = self.step * np.floor(clipped / self.step)
        frac = (clipped - lo) / self.step
        up = rng.random(w.shape[0]) < frac
        return lo + self.step * up


ApproxOperator = UniformQuantizer | MagnitudePruner | StochasticRounder


def apply_operator(
    op: ApproxOperator,
    h: Hypothesis,
    noise_seed: int | np.random.Generator | None = None,
) -> Hypothesis:
    """Return the hypothesis with transformed weights; the feature map is kept.

    Deterministic operators ignore ``noise_seed``; stochastic ones require it.
    """
    if op.deterministic:
        new_w = op.transform_weights(np.asarray(h.weights, dtype=float))
    else:
        if noise_seed is None:
            raise StochasticOperatorError(
                "stochastic operator needs a noise_seed to resolve its randomness"
            )
        rng = (
            noise_seed
            if isinstance(noise_seed, np.random.Generator)
            else np.random.default_rng(np.random.SeedSequence(noise_seed))
        )
        new_w = op.transform_weights(np.asarray(h.weights, dtype=float), rng)
    return Hypothesis(weights=new_w, feature_map=h.feature_map)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

LOSS_KINDS = ("clipped_absolute", "clipped_hinge", "clipped_squared")


@dataclass(frozen=True)
class LossSpec:
    """Bounded rho-Lipschitz loss, clipped at 1 - CLIP_MARGIN.

    clipped_absolute: min(rho * |a - y|, clip)
    clipped_hinge:    min(rho * max(0, 1 - a * clip(y, -1, 1)), clip); the
                      target is clamped to [-1, 1] so the Lipschitz constant
                      in the prediction argument is exactly rho for every y.
    clipped_squared:  min(rho^2 / (4 clip) * (a - y)^2, clip), whose steepest
                      slope (at the clip boundary) is exactly rho.
    """

    kind: str
    lipschitz: float = 1.0
    bound: float = field(default=1.0, init=False)

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise InvalidParameterError(f"unknown loss kind {self.kind!r}")
        if self.lipschitz <= 0:
            raise InvalidParameterError("lipschitz constant must be positive")

    @property
    def clip(self) -> float:
        return 1.0 - CLIP_MARGIN


def loss_values(spec: LossSpec, preds, targets) -> np.ndarray:
    """Vectorised loss evaluation; every value lies in [0, 1)."""
    a = np.asarray(preds, dtype=float)
    y = np.asarray(targets, dtype=float)
    rho = spec.lipschitz
    clip = spec.clip
    if spec.kind == "clipped_absolute":
        raw = rho * np.abs(a - y)
    elif spec.kind == "clipped_hinge":
        raw = rho * np.maximum(0.0, 1.0 - a * np.clip(y, -1.0, 1.0))
    else:  # clipped_squared
        raw = (rho**2 / (4.0 * clip)) * (a - y) ** 2
    return np.minimum(raw, clip)


def empirical_error(h: Hypothesis, sample: LabelledSample, spec: LossSpec) -> float:
    """Mean loss of the hypothesis on the sample; lies in [0, 1)."""
    preds = predictions(h, sample.inputs)
    return float(loss_values(spec, preds, sample.targets).mean())
