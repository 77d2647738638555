"""Core model types: samples, feature maps, hypotheses, approximation operators, losses.

Hypotheses are generalised-linear predictors x -> <w, phi(x)> over an explicit
finite-dimensional feature map.  Approximation operators act on the weight
vector only, so the approximate predictor is x -> <Q(w), phi(x)>.

It also holds the rules the other modules share: parameter checks, seeded
streams, Monte Carlo means with their standard errors, the p-mean, and the
error a failed allocation becomes.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    StochasticOperatorError,
)

#: Losses are clipped at 1 - CLIP_MARGIN so the bound B = 1 is strict.
CLIP_MARGIN = 2.0**-20
_FLOAT_MAX = sys.float_info.max


def param(default=MISSING, *, type="number", low=None, strict=False, enum=()):
    """A dataclass field with its one rule, read by Checked and by the CLI's
    config check: a JSON type (for the CLI only), and the allowed values or a
    lower bound (exclusive when ``strict``)."""
    rule = {"type": type, "low": low, "strict": strict, "enum": enum}
    return field(default=default, metadata=rule)


def _in_range(value, low, strict=False) -> bool:
    """Whether ``value`` is a finite number > ``low`` (``strict``) or >= ``low``.
    NaN fails every comparison; an int too large for a float is not finite."""
    return abs(value) <= _FLOAT_MAX and (value > low if strict else value >= low)


def _check_number(name: str, value, low, strict=False) -> float:
    """``value`` as a float, or InvalidParameterError when it is not a
    finite number > ``low`` (``strict``) or >= ``low``."""
    if not _in_range(value, low, strict):
        raise InvalidParameterError(
            f"{name} must be a finite number {'>' if strict else '>='} {low}, got {value!r}")
    return float(value)


@functools.cache
def _rules(cls) -> tuple:
    return tuple((f.name, f.metadata["low"], f.metadata["strict"], f.metadata["enum"])
                 for f in fields(cls) if f.metadata)


class Checked:
    """Base of a dataclass whose fields carry param rules.  Constructing one
    raises InvalidParameterError naming the first field whose value is not
    one of its allowed values, or not a finite number within its bound.
    Values are compared, not type-checked, so numpy scalars pass."""

    def __post_init__(self):
        for name, low, strict, enum in _rules(type(self)):
            value = getattr(self, name)
            if enum:
                if value not in enum:
                    raise InvalidParameterError(
                        f"{type(self).__name__} {name} must be one of {list(enum)}, got {value!r}")
            elif not _in_range(value, low, strict):  # name the field only on failure
                _check_number(f"{type(self).__name__} {name}", value, low, strict)


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


def _without_none(record) -> dict:
    """A dataclass instance's fields, without those that are None (not
    copied, as dataclasses.asdict would, at several times the cost)."""
    return {f.name: v for f in fields(record) if (v := getattr(record, f.name)) is not None}


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """Counter-based seed split: child streams are indexed by ``key`` integers.

    One call costs about 15 us, most of it in SeedSequence's hash; a loop
    over an index takes its streams from ``derived_rngs``.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


# numpy's SeedSequence hash constants and pool size (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL = 4
_STREAM_BLOCK = 4096  # indices whose seed words derived_rngs hashes at once


def _words32(n: int) -> list[int]:
    """SeedSequence's split of a non-negative integer: its 32-bit words,
    low first, and one word for 0."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hashmix(value, consts: list):
    """SeedSequence's hashmix of ``value`` (an int or a uint32 array) with the
    hash constant ``consts[0]``, which it advances by ``consts[1]``."""
    old = consts[0]
    consts[0] = new = old * consts[1] & _MASK32
    value = (value ^ old) * new & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of two 32-bit values, both ints or both arrays."""
    result = _MIX_MULT_L * x - _MIX_MULT_R * y & _MASK32
    return result ^ result >> 16


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """The 4 uint64 state words that a SeedSequence generates for PCG64,
    computed ahead; PCG64's one ``generate_state(4, np.uint64)`` call reads
    them.  Such a generator cannot ``spawn``."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


class _DerivedRngs:
    """derived_rng(seed, *key, i) for 0 <= i < count.  The pool that
    SeedSequence mixes from the seed and key words is computed once; the
    index words are mixed in, and the PCG64 state words generated, with
    uint32 array arithmetic for the block of up to _STREAM_BLOCK indices that
    holds i.  Only that block's words are kept (32 B per index), and each
    Generator is made when its index is read."""

    def __init__(self, seed: int, key: tuple, count: int):
        # with a spawn key (the index is one) the seed words are padded to the pool
        run = _words32(seed)
        entropy = run + [0] * (_POOL - len(run)) + [w for k in key for w in _words32(k)]
        consts = [_INIT_A, _MULT_A]
        pool = [_hashmix(w, consts) for w in entropy[:_POOL]]
        for src in range(_POOL):
            for dst in range(_POOL):
                if src != dst:
                    pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
        for w in entropy[_POOL:]:
            for dst in range(_POOL):
                pool[dst] = _mix(pool[dst], _hashmix(w, consts))
        self.pool, self.hash_const, self.count = pool, consts[0], count
        self.start, self.words = 0, np.empty((0, 4), np.uint64)

    def _block(self, start: int, stop: int) -> np.ndarray:
        """The PCG64 state words of indices start..stop-1, one row each; the
        block lies in one 4096-aligned range, so only its low word varies."""
        n = stop - start
        pool = [np.full(n, p, np.uint32) for p in self.pool]
        low = np.arange(start & _MASK32, (start & _MASK32) + n, dtype=np.uint32)
        consts = [self.hash_const, _MULT_A]
        for w in [low] + [np.full(n, w, np.uint32) for w in _words32(start)[1:]]:
            for dst in range(_POOL):
                pool[dst] = _mix(pool[dst], _hashmix(w, consts))
        state = np.empty((n, 2 * _POOL), "<u4")
        consts = [_INIT_B, _MULT_B]
        for k in range(2 * _POOL):
            state[:, k] = _hashmix(pool[k % _POOL], consts)
        return state.view("<u8").astype(np.uint64, copy=False)

    def __call__(self, i: int) -> np.random.Generator:
        offset = i - self.start
        if not 0 <= offset < len(self.words):
            if not 0 <= i < self.count:
                raise IndexError(f"stream index {i} is outside range({self.count})")
            self.start = i - i % _STREAM_BLOCK
            self.words = self._block(self.start, min(self.start + _STREAM_BLOCK, self.count))
            offset = i - self.start
        return np.random.Generator(np.random.PCG64(_SeedWords(self.words[offset])))


def derived_rngs(seed: int, *key: int, count: int):
    """The function i -> derived_rng(seed, *key, i) for 0 <= i < count: each
    generator in the same state, at a sixth of the cost per index.

    The seed and key are checked here, with derived_rng's errors.  Memory
    stays bounded for any count (_DerivedRngs), and an index is read
    directly, without those below it.
    """
    np.random.SeedSequence(entropy=seed, spawn_key=(*key, 0))  # derived_rng's checks
    return _DerivedRngs(int(seed), tuple(map(int, key)), count)


def _mc_mean_se(draws: np.ndarray) -> tuple[float, float]:
    """(mean, standard error) of Monte Carlo draws; one draw has error 0."""
    n = len(draws)
    se = float(draws.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return float(draws.mean()), se


def _row_means(x: np.ndarray) -> np.ndarray:
    """x.mean(axis=1) by mean's own sum and division, without its overhead."""
    return np.add.reduce(x, axis=1) / x.shape[1]


def _p_means(G: np.ndarray, p: float) -> np.ndarray:
    """((1/m) sum_j |G_ij|^p)^(1/p) for each row i of a 2-d array with m
    columns.  Each root is taken per scalar: an array ** (1/p) can differ from
    it in the last bit."""
    powers = np.abs(G)
    if p == 1.0:  # x ** 1.0 == x: skipping the powers and roots changes no bit
        return _row_means(powers)
    powers **= p
    return np.array([mean ** (1.0 / p) for mean in _row_means(powers)])


def _p_mean(vals: np.ndarray, p: float) -> float:
    """((1/m) sum |v|^p)^(1/p) over the m values: _p_means of one row."""
    return float(_p_means(vals[None], p)[0])


class _allocating:
    """Context manager that turns a failed allocation in its block into
    InvalidParameterError "cannot allocate {what}".  A class, not
    contextlib.contextmanager, which costs about three times as much per use."""

    def __init__(self, what: str):
        self.what = what

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        # ValueError: more than numpy can index
        if kind is not None and issubclass(kind, (MemoryError, ValueError)):
            raise InvalidParameterError(f"cannot allocate {self.what}") from exc


def _row_keys(a: np.ndarray) -> np.ndarray:
    """One np.void item per row of a 2-d array with at least one column: the
    bytes of the row of ``a + 0.0``, so rows with equal values have equal keys,
    -0.0 and 0.0 alike.  ``.tolist()`` gives them as bytes."""
    b = np.ascontiguousarray(a + 0.0)
    return b.view(np.dtype((np.void, b.itemsize * b.shape[1]))).reshape(-1)


def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, inverse): the distinct rows of a 2-d array with at least one
    column, in order of first occurrence, and for each row of ``a`` the index
    of its distinct row, so ``rows[inverse]`` equals ``a`` up to signs of zeros.

    Rows compare by their ``_row_keys``, sorted by a 1-d np.unique, which on
    small blocks is several times faster than np.unique(axis=0).
    """
    _, first, inverse = np.unique(_row_keys(a), return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return a[first[order]], rank[inverse]


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


def _feature_inputs(fmap, inputs) -> np.ndarray:
    """``inputs`` as floats, whose last axis must be the map's input_dim."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.shape[-1] != fmap.input_dim:
        raise DimensionMismatchError(
            f"expected input dimension {fmap.input_dim}, got {inputs.shape[-1]}"
        )
    return inputs


@dataclass(frozen=True)
class IdentityMap(Checked):
    """phi(x) = x."""

    input_dim: int = param(type="integer", low=1)

    @property
    def feature_dim(self) -> int:
        return self.input_dim

    def transform(self, inputs: np.ndarray) -> np.ndarray:
        return _feature_inputs(self, inputs)


@dataclass(frozen=True)
class PolynomialMap(Checked):
    """All monomials of total degree <= degree, constant term included.

    Monomials are ordered by total degree, then lexicographically in the
    coordinate indices, so the feature layout is reproducible.
    """

    input_dim: int = param(type="integer", low=1)
    degree: int = param(type="integer", low=1)

    def _monomials(self) -> list[tuple[int, ...]]:
        out: list[tuple[int, ...]] = []
        for deg in range(self.degree + 1):
            out.extend(itertools.combinations_with_replacement(range(self.input_dim), deg))
        return out

    @property
    def feature_dim(self) -> int:
        # the count of monomials, without listing them (about 110 B each)
        return math.comb(self.input_dim + self.degree, self.degree)

    def transform(self, inputs: np.ndarray) -> np.ndarray:
        inputs = _feature_inputs(self, inputs)
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
class RbfMap(Checked):
    """phi_j(x) = exp(-||x - c_j||^2 / (2 width^2)) for fixed centers c_j."""

    centers: np.ndarray
    width: float = param(low=0, strict=True)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "centers", _as_matrix(self.centers, "centers"))
        # transform divides by 2 width^2, which must be a positive finite float
        # (a float product overflows to inf, where ** would raise)
        width = float(self.width)
        denominator = 2.0 * (width * width)
        if denominator == math.inf:
            raise InvalidParameterError(
                f"rbf width {self.width} is too large: 2 width^2 overflows"
            )
        if denominator == 0:
            raise InvalidParameterError(
                f"rbf width {self.width} is too small: 2 width^2 underflows to 0"
            )

    @property
    def input_dim(self) -> int:
        return self.centers.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.centers.shape[0]

    def transform(self, inputs: np.ndarray) -> np.ndarray:
        inputs = _feature_inputs(self, inputs)
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
class UniformQuantizer(Checked):
    """Round each coordinate to the nearest multiple of ``step`` after clamping.

    Exact midpoints round to the even multiple (numpy's round-half-even),
    which keeps the operator deterministic and idempotent.
    """

    step: float = param(low=0, strict=True)
    clamp: float = param(low=0, strict=True)
    deterministic: bool = field(default=True, init=False)

    def transform_weights(self, w: np.ndarray, rng=None) -> np.ndarray:
        clipped = np.clip(w, -self.clamp, self.clamp)
        return self.step * np.round(clipped / self.step)


@dataclass(frozen=True)
class MagnitudePruner(Checked):
    """Keep the ``keep`` largest-magnitude coordinates, zero the rest.

    Equal magnitudes are resolved in favour of the lower index.  A 2-d
    argument is pruned row by row.
    """

    keep: int = param(type="integer", low=0)
    deterministic: bool = field(default=True, init=False)

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
class StochasticRounder(Checked):
    """Unbiased rounding to an adjacent grid point: P(up) = fractional part."""

    step: float = param(low=0, strict=True)
    clamp: float = param(low=0, strict=True)
    deterministic: bool = field(default=False, init=False)

    def transform_weights(self, w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self.round_with(w, rng.random(w.shape[0]))

    def round_with(self, w: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Round ``w`` up where the uniform draw is below its fractional part.

        The arithmetic is elementwise: rows of uniforms give one rounded row
        each, bit-equal to a ``transform_weights`` call that drew that row.
        """
        clipped = np.clip(w, -self.clamp, self.clamp)
        lo = self.step * np.floor(clipped / self.step)
        frac = (clipped - lo) / self.step
        return lo + self.step * (uniforms < frac)


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
        rng = noise_seed if isinstance(noise_seed, np.random.Generator) else derived_rng(noise_seed)
        new_w = op.transform_weights(np.asarray(h.weights, dtype=float), rng)
    return Hypothesis(weights=new_w, feature_map=h.feature_map)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LossSpec(Checked):
    """Bounded rho-Lipschitz loss, clipped at 1 - CLIP_MARGIN.

    clipped_absolute: min(rho * |a - y|, clip)
    clipped_hinge:    min(rho * max(0, 1 - a * clip(y, -1, 1)), clip); the
                      target is clamped to [-1, 1] so the Lipschitz constant
                      in the prediction argument is exactly rho for every y.
    clipped_squared:  min(rho^2 / (4 clip) * (a - y)^2, clip), whose steepest
                      slope (at the clip boundary) is exactly rho.
    """

    kind: str = param(type="string", enum=("clipped_absolute", "clipped_hinge", "clipped_squared"))
    lipschitz: float = param(1.0, low=0, strict=True)
    bound: float = field(default=1.0, init=False)

    def __post_init__(self):
        super().__post_init__()
        rho = float(self.lipschitz)
        if self.kind == "clipped_squared" and rho * rho == math.inf:
            raise InvalidParameterError(
                f"lipschitz constant {self.lipschitz} is too large for clipped_squared: "
                "rho^2 overflows"
            )

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
