"""Synthetic tasks: seeded input laws, teacher-labelled data, Monte Carlo error.

Every random draw is derived from an explicit 64-bit seed through
``core.derived_rng`` with an integer spawn key, so results are
bit-reproducible and independent of call scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Checked, Hypothesis, LabelledSample, LossSpec, UnlabelledSample, _allocating,
                   _mc_mean_se, derived_rng, loss_values, param, predictions)
from .errors import InvalidParameterError


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo mean with its sample standard error."""

    value: float
    standard_error: float
    n: int


# ---------------------------------------------------------------------------
# Input laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformBox(Checked):
    """Coordinates i.i.d. uniform on [-halfwidth, halfwidth]."""

    halfwidth: float = param(1.0, low=0, strict=True)

    def draw(self, rng: np.random.Generator, m: int, dim: int) -> np.ndarray:
        return rng.uniform(-self.halfwidth, self.halfwidth, size=(m, dim))


@dataclass(frozen=True)
class IsotropicGaussian(Checked):
    sd: float = param(1.0, low=0, strict=True)

    def draw(self, rng: np.random.Generator, m: int, dim: int) -> np.ndarray:
        return rng.normal(0.0, self.sd, size=(m, dim))


@dataclass(frozen=True)
class GaussianMixture(Checked):
    """Equal-weight mixture of isotropic components at the given centers."""

    centers: np.ndarray
    sd: float = param(1.0, low=0, strict=True)

    def __post_init__(self):
        super().__post_init__()
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if not np.all(np.isfinite(centers)):
            raise InvalidParameterError("mixture centers must be finite")
        centers.flags.writeable = False
        object.__setattr__(self, "centers", centers)

    def draw(self, rng: np.random.Generator, m: int, dim: int) -> np.ndarray:
        if self.centers.shape[1] != dim:
            raise InvalidParameterError(
                f"mixture centers have dimension {self.centers.shape[1]}, expected {dim}"
            )
        comp = rng.integers(self.centers.shape[0], size=m)
        return self.centers[comp] + rng.normal(0.0, self.sd, size=(m, dim))


InputLaw = UniformBox | IsotropicGaussian | GaussianMixture


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticTask(Checked):
    """A teacher hypothesis plus an input law; labels get gaussian noise."""

    teacher: Hypothesis
    input_law: InputLaw
    label_noise_sd: float = param(0.0, low=0)
    seed: int = 0

    @property
    def input_dim(self) -> int:
        return self.teacher.feature_map.input_dim

    def draw_inputs(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return self.input_law.draw(rng, m, self.input_dim)

    def label(self, rng: np.random.Generator, inputs: np.ndarray) -> np.ndarray:
        targets = predictions(self.teacher, inputs)
        if self.label_noise_sd > 0:
            targets = targets + rng.normal(0.0, self.label_noise_sd, size=inputs.shape[0])
        return targets


def generate(
    task: SyntheticTask, m: int, labelled: bool = True
) -> LabelledSample | UnlabelledSample:
    """Draw m i.i.d. points from the task; label them with the teacher if asked.

    The draw is a pure function of ``task.seed`` (labelled and unlabelled
    requests use separate derived streams).
    """
    if m < 1:
        raise InvalidParameterError("m must be >= 1")
    stream = 0 if labelled else 1
    rng = derived_rng(task.seed, stream)
    with _allocating(f"a sample of m={m} points of dimension {task.input_dim}"):
        inputs = task.draw_inputs(rng, m)
        targets = task.label(rng, inputs) if labelled else None
    source = f"synthetic:{task.seed}:{stream}"
    if not labelled:
        return UnlabelledSample(inputs=inputs, source_id=source)
    return LabelledSample(inputs=inputs, targets=targets, source_id=source)


def true_error_mc(
    h: Hypothesis,
    task: SyntheticTask,
    spec: LossSpec,
    n_mc: int,
    seed: int,
) -> MCEstimate:
    """Monte Carlo estimate of the expected loss of h on the task distribution."""
    if n_mc < 1:
        raise InvalidParameterError("n_mc must be >= 1")
    rng = derived_rng(seed, 2)
    inputs = task.draw_inputs(rng, n_mc)
    targets = task.label(rng, inputs)
    value, se = _mc_mean_se(loss_values(spec, predictions(h, inputs), targets))
    return MCEstimate(value=value, standard_error=se, n=n_mc)
