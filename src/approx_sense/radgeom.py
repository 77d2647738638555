"""Rademacher complexity of sensitivity sets.

Everything here works with the sign-average convention

    rad(T) = (1/m) E_sigma sup_{t in T} <sigma, t>,   sigma uniform on {-1,+1}^m,

evaluated exactly (sign enumeration, m <= 22), by Monte Carlo over sigma, or
in closed/certified form for structured geometries: p-norm ellipses, their
axis-aligned or rotated unions, clustered unions, p-balls restricted to the
positive orthant, and the weight-distortion bound for generalised-linear
classes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import ApproxOperator, Hypothesis, UnlabelledSample
from .errors import EnumerationCapError, InvalidParameterError
from .sensitivity import pointwise_gaps

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

    def to_dict(self) -> dict:
        return {key: value for key, value in asdict(self).items() if value is not None}


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
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def m(self) -> int:
        return self.points.shape[1]


def sensitivity_pointset(
    hypotheses: list[Hypothesis],
    op: ApproxOperator,
    sample: UnlabelledSample,
) -> SensitivityPointSet:
    if not hypotheses:
        raise InvalidParameterError("need at least one hypothesis")
    rows = np.stack([pointwise_gaps(h, op, sample.inputs) for h in hypotheses])
    return SensitivityPointSet(points=rows)


# ---------------------------------------------------------------------------
# Norm helpers
# ---------------------------------------------------------------------------


def conjugate_exponent(p: float) -> float:
    """Hoelder conjugate; p = 1 maps to infinity (max norm)."""
    if p < 1:
        raise InvalidParameterError("p must be >= 1")
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


def _sign_chunks(m: int, half: bool = False):
    """Sign patterns k < 2^m (sigma_j = +1 iff bit j of k is set), or with ``half``
    k < 2^(m-1), in 2^14-row chunks.  The low-bit block is built once and each
    chunk rewrites only its constant high columns of the same read-only buffer."""
    n_patterns = 1 << (m - 1 if half else m)
    low = np.arange(min(n_patterns, 1 << _CHUNK_BITS))[:, None]
    block = ((low >> np.arange(m)) & 1) * 2.0 - 1.0
    view = block.view()
    view.flags.writeable = False
    for c in range(n_patterns // len(block)):
        block[:, _CHUNK_BITS:] = ((c >> np.arange(m - _CHUNK_BITS)) & 1) * 2.0 - 1.0
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

    Chunk n-1-c is chunk c negated, rows reversed, so only half the chunks are
    multiplied out; partials stay in chunk order, so the result is bit-stable.
    Each chunk is multiplied in 2^11-row slices against the ``rows.T`` view into
    one reused transposed buffer, which keeps every product's bits while the
    max/min reductions run along its contiguous axis.
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
    for c, sigma in enumerate(_sign_chunks(m, half=mirror)):
        for s in range(0, chunk, sub):
            np.matmul(sigma[s:s + sub], rows.T, out=buf.T)
            np.maximum.reduce(buf, axis=0, out=hi[s:s + sub])
            if mirror:
                np.minimum.reduce(buf, axis=0, out=lo[s:s + sub])
        partial_sums[c] = float(hi.sum())
        if mirror:
            partial_sums[-1 - c] = float(np.negative(lo, out=lo)[::-1].sum())
    return math.fsum(partial_sums) / (1 << m) / m


def exact_rademacher_pointset(ps: SensitivityPointSet) -> RadEstimate:
    # sign sums that overflow make the value non-finite, which RadEstimate
    # rejects with a structured error: numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
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
    """The Monte Carlo oracles' (n_sigma, m) sign draws: one stream per seed."""
    if n_sigma < 1:
        raise InvalidParameterError("n_sigma must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(6,)))
    return rng.integers(0, 2, size=(n_sigma, m)).astype(float) * 2.0 - 1.0


def _mc_mean_se(sups: np.ndarray, m: int) -> tuple[float, float]:
    """(value, standard error) from each sign draw's supremum of <sigma, row>."""
    draws = sups / m
    n_sigma = len(draws)
    se = float(draws.std(ddof=1) / np.sqrt(n_sigma)) if n_sigma > 1 else 0.0
    return float(draws.mean()), se


def mc_rademacher_rows(rows: np.ndarray, n_sigma: int, seed: int) -> tuple[float, float]:
    """Unbiased Monte Carlo estimate (value, standard error) over sign draws."""
    # multiply a C-contiguous copy, as exact_rademacher_rows does
    rows = np.ascontiguousarray(_check_rows(rows))
    m = rows.shape[1]
    return _mc_mean_se((_mc_signs(n_sigma, m, seed) @ rows.T).max(axis=1), m)


def mc_rademacher_pointset(ps: SensitivityPointSet, n_sigma: int, seed: int) -> RadEstimate:
    with np.errstate(over="ignore", invalid="ignore"):  # as in exact_rademacher_pointset
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


def _check_mu(mu: np.ndarray, m: int | None = None) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1 or mu.shape[0] < 1:
        raise InvalidParameterError("mu must be a non-empty vector")
    if np.any(mu <= 0) or not np.all(np.isfinite(mu)):
        raise InvalidParameterError("every semi-axis must be positive and finite")
    if m is not None and mu.shape[0] != m:
        raise InvalidParameterError(f"mu has length {mu.shape[0]}, expected {m}")
    return mu


def _check_rotation(V: np.ndarray, m: int) -> np.ndarray:
    V = np.asarray(V, dtype=float)
    if V.shape != (m, m):
        raise InvalidParameterError(f"rotation must be {m}x{m}, got {V.shape}")
    if np.max(np.abs(V.T @ V - np.eye(m))) > ORTHOGONALITY_TOL:
        raise InvalidParameterError("rotation matrix is not orthogonal within tolerance")
    return V


def ellipse_rademacher(mu, p: float, m: int) -> RadEstimate:
    """Exact complexity of an axis-aligned p-ellipse: dual norm of mu over m."""
    mu = _check_mu(mu, m)
    return RadEstimate(value=dual_norm(mu, p) / m, method="closed_form", m=m)


def union_ellipse_bound(mus, p: float, m: int) -> RadEstimate:
    """Largest member dual norm over m; independent of how many ellipses unite.

    For axis-aligned unions this value is exact, not just an upper bound.
    """
    if not len(mus):
        raise InvalidParameterError("need at least one ellipse")
    vals = [dual_norm(_check_mu(mu, m), p) for mu in mus]
    return RadEstimate(value=max(vals) / m, method="closed_form", m=m)


def _rotated_component_norm(V: np.ndarray, mu: np.ndarray, p: float, m: int) -> tuple[float, bool]:
    """Return (operator-norm value, exact flag) for one rotated ellipse.

    The general-p value is the certified over-estimate
    || (mu_k ||V_k||_1)_k || in the conjugate norm, which collapses to the
    exact operator norm when V = I (column 1-norms are 1) and when p = 1
    (conjugate max norm picks the best column).
    """
    column_l1 = np.abs(V).sum(axis=0)
    value = dual_norm(mu * column_l1, p)
    exact = p == 1 or bool(np.max(np.abs(V - np.eye(m))) <= ORTHOGONALITY_TOL)
    return value, exact


def rotated_union_bound(components, p: float, m: int) -> RadEstimate:
    """Upper bound (1/m) max_i N_i for a union of rotated p-ellipses.

    N_i is the exact p->1 operator norm of V_i Lambda_i when available
    (V_i = I or p = 1) and its certified over-estimate otherwise.
    """
    if not len(components):
        raise InvalidParameterError("need at least one component")
    vals = []
    all_exact = True
    for V, mu in components:
        mu = _check_mu(mu, m)
        V = _check_rotation(V, m)
        value, exact = _rotated_component_norm(V, mu, p, m)
        vals.append(value)
        all_exact = all_exact and exact
    method = "closed_form" if all_exact else "certified_upper"
    return RadEstimate(value=max(vals) / m, method=method, m=m)


def cluster_bound(components, p: float, m: int) -> RadEstimate:
    """Rotated-union term plus the center displacement term.

    value = (1/m) max_i N_i + max_i ||c_i||_2 sqrt(2 ln l) / m, with l the
    number of clusters.  All centers at the origin recovers the union bound.
    """
    if not len(components):
        raise InvalidParameterError("need at least one component")
    union = rotated_union_bound([(V, mu) for _, V, mu in components], p, m)
    centers = np.atleast_2d(np.asarray([c for c, _, _ in components], dtype=float))
    if centers.shape[1] != m:
        raise InvalidParameterError(f"centers must have length {m}")
    l = len(components)
    displacement = float(np.max(np.linalg.norm(centers, axis=1)) * np.sqrt(2.0 * np.log(l)) / m)
    return RadEstimate(value=union.value + displacement, method="certified_upper", m=m)


def crude_bounds(R_p: float, p: float) -> tuple[float, float]:
    """Magnitude sandwich (R_p / (2 * 2^(1/p)), R_p) for near-filling sets."""
    if R_p < 0:
        raise InvalidParameterError("R_p must be >= 0")
    conjugate_exponent(p)  # validates p >= 1
    return (R_p / (2.0 * 2.0 ** (1.0 / p)), R_p)


def positive_orthant_ball_sup(sigma, radius: float, p: float) -> float | np.ndarray:
    """Support value of the positive-orthant p-ball: radius times the dual
    norm of the positive part of sigma, over the last axis as in dual_norm."""
    if radius < 0:
        raise InvalidParameterError("radius must be >= 0")
    return radius * dual_norm(np.maximum(np.asarray(sigma, dtype=float), 0.0), p)


def massart_bound(point_rows) -> float:
    """Finite-set bound: max row 2-norm times sqrt(2 ln N) / m."""
    rows = _check_rows(point_rows)
    n, m = rows.shape
    if n == 1:
        return 0.0
    return float(np.max(np.linalg.norm(rows, axis=1)) * np.sqrt(2.0 * np.log(n)) / m)


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


def crude_decomposition_bound(rad_H: float, rad_HA: float) -> float:
    """Sum of class complexities; tight exactly when the approximating class
    is a singleton."""
    if rad_H < 0 or rad_HA < 0:
        raise InvalidParameterError("inputs must be >= 0")
    return rad_H + rad_HA


# ---------------------------------------------------------------------------
# Diagnostic lower estimate for the p -> 1 operator norm
# ---------------------------------------------------------------------------


def operator_norm_lower_estimate(V, mu, p: float, seed: int = 0) -> float:
    """Numeric estimate of ||V diag(mu)||_{p->1} = max_s ||(V L)^T s|| dual.

    Exhaustive over sign vectors for m <= 16, otherwise greedy sign flipping
    from 20 random starts.  Never used inside certified bounds: the value is
    exact when exhaustive and a lower estimate otherwise.
    """
    mu = _check_mu(mu)
    m = mu.shape[0]
    V = _check_rotation(np.asarray(V, dtype=float), m)
    M = V * mu[None, :]  # V @ diag(mu)

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

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
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


# ---------------------------------------------------------------------------
# Geometry models with JSON round-trip
# ---------------------------------------------------------------------------


# the field each geometry variant reads besides "variant" and "p"
_GEOMETRY_FIELDS = {"pball": "radius", "ellipse": "mu", "axis_union": "mus",
                    "rotated_union": "components", "clustered": "components"}


def _geometry_field(d, key, at: str = "", numeric: bool = True):
    """``d[key]`` as a float array, or as a list when not ``numeric``;
    InvalidParameterError names the field when it is missing or neither."""
    field = f"{at}{key}"
    try:
        value = d[key]
    except (KeyError, IndexError, TypeError):
        raise InvalidParameterError(f"geometry field {field!r} is missing", field=field) from None
    if not numeric and isinstance(value, list) and value:
        return value
    if numeric:
        try:
            return np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            pass
    kind = "numeric" if numeric else "a non-empty list"
    raise InvalidParameterError(f"geometry field {field!r} is not {kind}", field=field)


def _geometry_number(d: dict, key: str) -> float:
    value = _geometry_field(d, key)
    if value.ndim or not np.isfinite(value):
        raise InvalidParameterError(f"geometry field {key!r} must be a finite number", field=key)
    return float(value)


@dataclass(frozen=True)
class GeometryModel:
    """Structured description of a sensitivity point set.

    variant: pball | ellipse | axis_union | rotated_union | clustered
    """

    variant: str
    p: float
    radius: float | None = None
    mu: np.ndarray | None = None
    mus: tuple | None = None
    components: tuple | None = None

    def __post_init__(self):
        conjugate_exponent(self.p)
        if self.variant not in _GEOMETRY_FIELDS:
            raise InvalidParameterError(f"unknown geometry variant {self.variant!r}")

    @property
    def m(self) -> int:
        if self.variant == "pball":
            raise InvalidParameterError("a p-ball geometry does not fix the sample size")
        if self.variant == "ellipse":
            return len(self.mu)
        if self.variant == "axis_union":
            return len(self.mus[0])
        return len(self.components[0][-1])

    def rademacher(self) -> RadEstimate:
        if self.variant == "pball":
            lower, upper = crude_bounds(self.radius, self.p)
            return RadEstimate(
                value=upper,
                method="certified_upper",
                m=0,
                note=f"crude sandwich lower bound {format(lower, '.17g')}",
            )
        if self.variant == "ellipse":
            return ellipse_rademacher(self.mu, self.p, self.m)
        if self.variant == "axis_union":
            return union_ellipse_bound(self.mus, self.p, self.m)
        if self.variant == "rotated_union":
            return rotated_union_bound(self.components, self.p, self.m)
        return cluster_bound(self.components, self.p, self.m)

    def to_dict(self) -> dict:
        d: dict = {"variant": self.variant, "p": self.p}
        if self.variant == "pball":
            d["radius"] = self.radius
        elif self.variant == "ellipse":
            d["mu"] = [float(v) for v in self.mu]
        elif self.variant == "axis_union":
            d["mus"] = [[float(v) for v in mu] for mu in self.mus]
        elif self.variant == "rotated_union":
            d["components"] = [
                {"V": [[float(v) for v in row] for row in V], "mu": [float(v) for v in mu]}
                for V, mu in self.components
            ]
        else:
            d["components"] = [
                {
                    "center": [float(v) for v in c],
                    "V": [[float(v) for v in row] for row in V],
                    "mu": [float(v) for v in mu],
                }
                for c, V, mu in self.components
            ]
        return d

    @staticmethod
    def from_dict(d: dict) -> "GeometryModel":
        variant = d.get("variant") if isinstance(d, dict) else None
        if not isinstance(variant, str) or variant not in _GEOMETRY_FIELDS:
            raise InvalidParameterError(
                f"unknown geometry variant {variant!r}; choose one of {sorted(_GEOMETRY_FIELDS)}",
                field="variant",
            )
        p = _geometry_number(d, "p")
        key = _GEOMETRY_FIELDS[variant]
        if variant == "pball":
            return GeometryModel(variant, p, radius=_geometry_number(d, key))
        if variant == "ellipse":
            return GeometryModel(variant, p, mu=_check_mu(_geometry_field(d, key)))
        if variant == "axis_union":
            mus = _geometry_field(d, key, numeric=False)
            mus = tuple(_check_mu(_geometry_field(mus, i, "mus/")) for i in range(len(mus)))
            if len({len(mu) for mu in mus}) > 1:
                raise InvalidParameterError("all union members must share the sample size")
            return GeometryModel(variant, p, mus=mus)
        comps = []
        for i, comp in enumerate(_geometry_field(d, key, numeric=False)):
            mu = _check_mu(_geometry_field(comp, "mu", f"components/{i}/"))
            V = _check_rotation(_geometry_field(comp, "V", f"components/{i}/"), len(mu))
            if variant == "clustered":
                c = _geometry_field(comp, "center", f"components/{i}/")
                if c.shape != mu.shape:
                    raise InvalidParameterError("cluster center must match the sample size")
                comps.append((c, V, mu))
            else:
                comps.append((V, mu))
        return GeometryModel(variant, p, components=tuple(comps))
