"""Rademacher complexity of sensitivity sets.

Everything here works with the sign-average convention

    rad(T) = (1/m) E_sigma sup_{t in T} <sigma, t>,   sigma uniform on {-1,+1}^m,

evaluated exactly (sign enumeration, m <= 22), by Monte Carlo over sigma, or
in closed/certified form for structured geometries: p-norm ellipses, their
axis-aligned or rotated unions, clustered unions, p-balls restricted to the
positive orthant, and the weight-distortion bound for generalised-linear
classes.

A component of a union or of a clustered model is a value: an Ellipse (mu,
and a rotation V or None for the identity) or a Cluster (a center and an
Ellipse).  Each is checked once, when it is made, and keeps what every bound
reads (m, V's column 1-norms, whether V is the identity); the closed forms
take these values and check only that their lengths agree.  This module
knows no file format: the CLI (cli._geometry) checks a geometry file and
makes its values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Checked, _allocating, _check_number, _mc_mean_se, _without_none, derived_rng
from .errors import EnumerationCapError, InvalidParameterError

EXACT_ENUMERATION_CAP = 22
_CHUNK_BITS = 14  # sign patterns are enumerated 2^14 rows at a time
_SLICE_BITS = 11  # each chunk is multiplied out 2^11 rows at a time, in cache
ORTHOGONALITY_TOL = 1e-10
# operator_norm_lower_estimate: exhaustive sign search up to this m, greedy
# sign flipping from this many random starts above it
_OPERATOR_NORM_EXACT_M = 16
_GREEDY_STARTS = 20

RAD_METHODS = ("exact_enumeration", "monte_carlo", "closed_form", "certified_upper")


@dataclass(frozen=True)
class RadEstimate:
    value: float
    method: str
    m: int
    standard_error: float | None = None
    n_sigma: int | None = None
    seed: int | None = None
    note: str | None = None

    def __post_init__(self):
        if self.method not in RAD_METHODS:
            raise InvalidParameterError(f"unknown method {self.method!r}")
        if not all(map(math.isfinite, (self.value, self.standard_error or 0.0))):
            raise InvalidParameterError(f"{self.method} estimate is not finite: {self.to_dict()}")
        if self.method == "exact_enumeration" and self.m > EXACT_ENUMERATION_CAP:
            raise EnumerationCapError(
                f"exact enumeration capped at m = {EXACT_ENUMERATION_CAP}, got {self.m}"
            )

    @property
    def certified(self) -> bool:
        return self.method != "monte_carlo"

    to_dict = _without_none


@dataclass(frozen=True)
class SensitivityPointSet:
    """Rows are per-hypothesis gap profiles (|f(x_k) - Af(x_k)|)_k over a sample."""

    points: np.ndarray

    def __post_init__(self):
        pts = _check_rows(self.points).copy()
        if not np.all(np.isfinite(pts)):
            raise InvalidParameterError("point set contains non-finite entries")
        if np.any(pts < 0):
            raise InvalidParameterError("sensitivity points must be non-negative")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def m(self) -> int:
        return self.points.shape[1]


# ---------------------------------------------------------------------------
# Norm helpers
# ---------------------------------------------------------------------------


def conjugate_exponent(p: float) -> float:
    """Hoelder conjugate; p = 1 maps to infinity (max norm)."""
    _check_number("p", p, 1)
    if p == 1:
        return math.inf
    return p / (p - 1.0)


def dual_norm(v: np.ndarray, p: float) -> float | np.ndarray:
    """||v|| in the conjugate exponent of p, over the last axis: a float for
    a vector, an array of row norms for a matrix."""
    q = conjugate_exponent(p)
    v = np.abs(np.asarray(v, dtype=float))
    norm = v.max(axis=-1) if math.isinf(q) else (v**q).sum(axis=-1) ** (1.0 / q)
    return float(norm) if norm.ndim == 0 else norm


def _sign_chunks(m: int, half: bool = False, bits: int = _CHUNK_BITS):
    """Sign patterns k < 2^m (sigma_j = +1 iff bit j of k is set), or with ``half``
    k < 2^(m-1), in blocks of 2^bits rows.  The low-bit block is built once, with
    every high column -1 as block 0 has them, and yielded as one read-only
    buffer.  Block c differs from block c - 1 only in the high columns of the
    bits that c ^ (c - 1) sets, so only those are rewritten.  With bits = 11
    (_SLICE_BITS) the buffer is about 360 KB at m = 22, small enough to stay in
    cache, where a 2^14-row block is 2.8 MB."""
    n_patterns = 1 << (m - 1 if half else m)
    low = np.arange(min(n_patterns, 1 << bits))[:, None]
    block = ((low >> np.arange(m)) & 1) * 2.0 - 1.0
    view = block.view()
    view.flags.writeable = False
    for c in range(n_patterns // len(block)):
        for j in range((c ^ (c - 1)).bit_length() if c else 0):
            block[:, bits + j] = 1.0 if (c >> j) & 1 else -1.0
        yield view


def _check_rows(rows) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.ndim != 2 or 0 in rows.shape:
        raise InvalidParameterError(f"need a non-empty 2-d row set, got shape {rows.shape}")
    return rows


# ---------------------------------------------------------------------------
# Enumeration and Monte Carlo oracles
# ---------------------------------------------------------------------------


def _check_enumeration_m(m: int) -> None:
    if m < 1:
        raise InvalidParameterError(f"exact enumeration needs m >= 1, got {m}")
    if m > EXACT_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"exact enumeration capped at m = {EXACT_ENUMERATION_CAP} "
            f"(got {m}); use the Monte Carlo estimator instead"
        )


def exact_rademacher_rows(rows: np.ndarray) -> float:
    """Exact (1/m) 2^-m sum over sign patterns of max_i <sigma, row_i>.

    Chunk n-1-c of 2^14 patterns is chunk c negated, rows reversed, so only
    half the chunks are multiplied out; partials stay in chunk order, so the
    result is bit-stable.  Each chunk is multiplied in 2^11-row slices, each
    taken from _sign_chunks' 2^11-row block (only its high columns change from
    slice to slice), against the ``rows.T`` view into one reused transposed
    buffer, which keeps every product's bits while the max/min reductions run
    along its contiguous axis.
    """
    # a GEMM's last bit may depend on the memory layout of its operands, not
    # only on their numbers: enumerate a C-contiguous copy
    rows = np.ascontiguousarray(_check_rows(rows))
    m = rows.shape[1]
    _check_enumeration_m(m)
    n_chunks = 1 << max(m - _CHUNK_BITS, 0)
    mirror = n_chunks > 1
    chunk = 1 << min(m, _CHUNK_BITS)
    sub = min(chunk, 1 << _SLICE_BITS)
    buf = np.empty((len(rows), sub))
    hi, lo = np.empty(chunk), np.empty(chunk)
    partial_sums = [0.0] * n_chunks
    for k, sigma in enumerate(_sign_chunks(m, half=mirror, bits=_SLICE_BITS)):
        c, s = divmod(k * sub, chunk)
        np.matmul(sigma, rows.T, out=buf.T)
        np.maximum.reduce(buf, axis=0, out=hi[s:s + sub])
        if mirror:
            np.minimum.reduce(buf, axis=0, out=lo[s:s + sub])
        if s + sub == chunk:
            partial_sums[c] = float(hi.sum())
            if mirror:
                partial_sums[-1 - c] = float(np.negative(lo, out=lo)[::-1].sum())
    return math.fsum(partial_sums) / (1 << m) / m


def exact_rademacher_pointset(ps: SensitivityPointSet) -> RadEstimate:
    value = exact_rademacher_rows(ps.points)
    return RadEstimate(value=value, method="exact_enumeration", m=ps.m)


def exact_rademacher_support(support_fn, m: int) -> float:
    """Exact enumeration where the per-sign supremum is an analytic support value.

    ``support_fn`` receives a block of sign rows and returns, for each row
    sigma, sup over the body of <sigma, x>.  The rows are a read-only buffer
    that the next chunk overwrites.
    """
    _check_enumeration_m(m)
    vals = [float(np.sum(support_fn(sig))) for sig in _sign_chunks(m)]
    return math.fsum(vals) / (1 << m) / m


def _mc_signs(n_sigma: int, m: int, seed: int) -> np.ndarray:
    """The Monte Carlo oracles' (n_sigma, m) sign draws: one stream per seed.

    A fresh C-contiguous float64 array of ±1.0.  Callers multiply it as is,
    and a GEMM's last bit can depend on the layout of its operands.
    """
    if n_sigma < 1:
        raise InvalidParameterError("n_sigma must be >= 1")
    n = n_sigma * m
    bitgen = derived_rng(seed, 6).bit_generator
    with _allocating(f"Monte Carlo signs for n_sigma={n_sigma}, m={m}"):
        # sign j of draw i is the top bit of 32-bit half i*m + j of the raw
        # 64-bit words, low half first (the words are read little-endian on
        # any host): +1 for 1, -1 for 0.  That is the bit integers(0, 2)
        # returns on the same generator.  As int32 the top bit is the sign,
        # so (~h >> 31) | 1 maps it to ±1 in place, and the cast to float is
        # the only pass over 8-byte values.
        halves = bitgen.random_raw((n + 1) // 2).astype("<u8", copy=False).view("<i4")
        np.invert(halves, out=halves)
        halves >>= 31
        halves |= 1
        return halves[:n].reshape(n_sigma, m).astype(float)


def mc_rademacher_rows(rows: np.ndarray, n_sigma: int, seed: int) -> tuple[float, float]:
    """Unbiased Monte Carlo estimate (value, standard error) over sign draws."""
    # multiply a C-contiguous copy, as exact_rademacher_rows does
    rows = np.ascontiguousarray(_check_rows(rows))
    m = rows.shape[1]
    return _mc_mean_se((_mc_signs(n_sigma, m, seed) @ rows.T).max(axis=1) / m)


def mc_rademacher_pointset(ps: SensitivityPointSet, n_sigma: int, seed: int) -> RadEstimate:
    value, se = mc_rademacher_rows(ps.points, n_sigma, seed)
    return RadEstimate(
        value=value,
        method="monte_carlo",
        m=ps.m,
        standard_error=se,
        n_sigma=n_sigma,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Closed forms and certified bounds
# ---------------------------------------------------------------------------


def _check_mu(mu: np.ndarray) -> np.ndarray:
    """``mu`` as a read-only float copy, if it is a non-empty vector of
    positive finite semi-axes."""
    mu = np.array(mu, dtype=float)
    if mu.ndim != 1 or mu.shape[0] < 1:
        raise InvalidParameterError("mu must be a non-empty vector")
    if not (mu.min() > 0 and mu.max() < math.inf):  # NaN fails both
        raise InvalidParameterError("every semi-axis must be positive and finite")
    mu.flags.writeable = False
    return mu


def _check_rotation(V: np.ndarray, m: int) -> np.ndarray:
    """``V`` as a read-only float copy with its memory layout, if it is an
    orthogonal m x m matrix."""
    V = np.array(V, dtype=float)
    if V.shape != (m, m):
        raise InvalidParameterError(f"rotation must be {m}x{m}, got {V.shape}")
    if np.abs(V.T @ V - np.eye(m)).max() > ORTHOGONALITY_TOL:
        raise InvalidParameterError("rotation matrix is not orthogonal within tolerance")
    V.flags.writeable = False
    return V


# eq=False: the fields are arrays, so a value equals only itself
@dataclass(frozen=True, eq=False)
class Ellipse(Checked):
    """The p-ellipse V diag(mu) B_p: semi-axes ``mu`` (positive, finite)
    along the columns of the orthogonal ``V``; V = None is the identity,
    never formed (O(m) where an m x m V costs O(m^3)).

    Checked once, here; the bounds read ``m``, ``column_l1`` (V's column
    1-norms, None for V = None) and ``identity`` (V is I within
    ORTHOGONALITY_TOL) without checking again.
    """

    mu: np.ndarray
    V: np.ndarray | None = None
    m: int = field(init=False)
    column_l1: np.ndarray | None = field(init=False)
    identity: bool = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        mu = _check_mu(self.mu)
        m = len(mu)
        V = column_l1 = None
        identity = True
        if self.V is not None:
            V = _check_rotation(self.V, m)
            column_l1 = np.abs(V).sum(axis=0)
            identity = bool(np.abs(V - np.eye(m)).max() <= ORTHOGONALITY_TOL)
        for name, value in (("mu", mu), ("V", V), ("m", m), ("column_l1", column_l1),
                            ("identity", identity)):
            object.__setattr__(self, name, value)

    def operator_norm(self, p: float) -> tuple[float, bool]:
        """(value, exact flag): the certified over-estimate
        || (mu_k ||V_k||_1)_k || in the conjugate norm of the p -> 1 operator
        norm of V diag(mu), which is that norm exactly when V = I (column
        1-norms are 1) and when p = 1 (the conjugate max norm picks the best
        column)."""
        if self.column_l1 is None:
            return dual_norm(self.mu, p), True
        return dual_norm(self.mu * self.column_l1, p), p == 1 or self.identity


@dataclass(frozen=True, eq=False)
class Cluster(Checked):
    """An ellipse translated to ``center``, a vector of the ellipse's length."""

    center: np.ndarray
    ellipse: Ellipse

    def __post_init__(self):
        super().__post_init__()
        center = np.array(self.center, dtype=float)
        if center.shape != (self.ellipse.m,):
            raise InvalidParameterError(f"every center must have length {self.ellipse.m}")
        center.flags.writeable = False
        object.__setattr__(self, "center", center)


def rotated_union_bound(ellipses, p: float) -> RadEstimate:
    """Upper bound (1/m) max_i N_i for a union of rotated p-ellipses.

    N_i is the exact p->1 operator norm of V_i diag(mu_i) when available
    (V_i = I or p = 1) and its certified over-estimate otherwise
    (Ellipse.operator_norm): with every V_i = None an axis-aligned union or
    p-ellipse has its exact complexity.
    """
    if not len(ellipses):
        raise InvalidParameterError("need at least one component")
    m = ellipses[0].m
    vals = []
    all_exact = True
    for ellipse in ellipses:
        if ellipse.m != m:
            raise InvalidParameterError(f"mu has length {ellipse.m}, expected {m}")
        value, exact = ellipse.operator_norm(p)
        vals.append(value)
        all_exact = all_exact and exact
    method = "closed_form" if all_exact else "certified_upper"
    return RadEstimate(value=max(vals) / m, method=method, m=m)


def cluster_bound(clusters, p: float) -> RadEstimate:
    """Rotated-union term plus the center displacement term.

    value = (1/m) max_i N_i + max_i ||c_i||_2 sqrt(2 ln l) / m, with l the
    number of clusters.  All centers at the origin recovers the union bound.
    """
    union = rotated_union_bound([c.ellipse for c in clusters], p)
    m, l = union.m, len(clusters)
    norms = np.linalg.norm(np.stack([c.center for c in clusters]), axis=1)
    displacement = float(np.max(norms) * np.sqrt(2.0 * np.log(l)) / m)
    return RadEstimate(value=union.value + displacement, method="certified_upper", m=m)


def crude_bounds(R_p: float, p: float) -> tuple[float, float]:
    """Magnitude sandwich (R_p / (2 * 2^(1/p)), R_p) for near-filling sets."""
    _check_number("R_p", R_p, 0)
    conjugate_exponent(p)  # validates p
    return (R_p / (2.0 * 2.0 ** (1.0 / p)), R_p)


def positive_orthant_ball_sup(sigma, radius: float, p: float) -> float | np.ndarray:
    """Support value of the positive-orthant p-ball: radius times the dual
    norm of the positive part of sigma, over the last axis as in dual_norm."""
    _check_number("radius", radius, 0)
    return radius * dual_norm(np.maximum(np.asarray(sigma, dtype=float), 0.0), p)


def kernel_sensitivity_class_bound(
    sup_weight_sensitivity: float,
    gram_diagonal,
) -> RadEstimate:
    """Weight-distortion bound (1/m) sup ||w - Q(w)|| sqrt(sum_k k(x_k, x_k)).

    Implements the sharper 1/m form that the derivation actually yields
    (the displayed statement carries a looser 1/sqrt(m) factor); the note
    records the discrepancy.
    """
    if sup_weight_sensitivity < 0:
        raise InvalidParameterError("sup_weight_sensitivity must be >= 0")
    diag = np.asarray(gram_diagonal, dtype=float)
    if diag.ndim != 1 or diag.shape[0] < 1:
        raise InvalidParameterError("gram_diagonal must be a non-empty vector")
    if np.any(diag < 0):
        raise InvalidParameterError("gram diagonal entries must be >= 0")
    m = diag.shape[0]
    value = sup_weight_sensitivity * float(np.sqrt(diag.sum())) / m
    return RadEstimate(
        value=value,
        method="certified_upper",
        m=m,
        note="1/m proof form; the displayed statement uses the looser 1/sqrt(m) factor",
    )


# ---------------------------------------------------------------------------
# Diagnostic lower estimate for the p -> 1 operator norm
# ---------------------------------------------------------------------------


def operator_norm_lower_estimate(V, mu, p: float, seed: int = 0) -> float:
    """Numeric estimate of ||V diag(mu)||_{p->1} = max_s ||(V L)^T s|| dual.

    Exhaustive over sign vectors for m <= 16, otherwise greedy sign flipping
    from 20 random starts.  Never used inside certified bounds: the value is
    exact when exhaustive and otherwise a lower estimate up to rounding (the
    greedy scores round differently and can exceed the maximum by an ulp).
    """
    ellipse = Ellipse(mu, np.asarray(V, dtype=float))  # a V of None is rejected, not I
    m = ellipse.m
    M = ellipse.V * ellipse.mu[None, :]  # V @ diag(mu)

    def score(signs: np.ndarray) -> float:
        return dual_norm(M.T @ signs, p)

    if m <= _OPERATOR_NORM_EXACT_M:
        # the score is even in sigma: one of each +-sigma pair is enough
        q = conjugate_exponent(p)
        best = 0.0
        for sigma in _sign_chunks(m, half=True):
            vals = np.abs(sigma @ M)  # each row: |M^T s|
            block_best = vals.max() if math.isinf(q) else (vals**q).sum(axis=1).max() ** (1.0 / q)
            best = max(best, float(block_best))
        return best

    rng = derived_rng(seed, 7)
    best = 0.0
    for _ in range(_GREEDY_STARTS):
        signs = rng.integers(0, 2, size=m).astype(float) * 2.0 - 1.0
        current = score(signs)
        improved = True
        while improved:
            improved = False
            for k in range(m):
                signs[k] = -signs[k]
                trial = score(signs)
                if trial > current:
                    current = trial
                    improved = True
                else:
                    signs[k] = -signs[k]
        best = max(best, current)
    return best


# perfbench/spans.py looks up GeometryModel.rademacher here and skips a
# missing method; geometry files are read by cli._geometry
GeometryModel = None
