"""Learning algorithms over a searchable weight domain.

All objectives involve a quantised weight transform, so they are piecewise
constant in the weights; search is therefore exhaustive on small grids (the
oracle mode used by the tests) and seeded random sampling or coordinate
descent in higher dimension.  Ties always resolve to the lowest enumeration
index, which keeps every learner deterministic.

Grid and random search screen candidates in blocks, then re-score a few of
them exactly:

* **Screen.**  ``_Workspace.blocks`` is the one place that cuts a grid or
  random domain's candidates into blocks.  A ``_Block`` computes its lambda-
  and t-free values when first read: Q(C), emp_err(Q(C)) once per distinct
  Q(w) (core._distinct_rows finds them), emp_err(C), ||C - Q(C)|| and the
  empirical sensitivities as one product U @ (C - Q(C)).T.  An objective
  combines them with lambda, t or the penalties.  These values differ from a
  per-candidate evaluation by rounding only (about 1e-13 here).  Each screen
  carries a margin, SCREEN_MARGIN times the magnitudes its values are summed
  from, that bounds this with a wide safety factor.
* **Re-score.**  Only candidates whose screened value lies within twice
  the margin of the running screened minimum are re-scored exactly, and in
  enumeration order the first strict minimum is kept.  Every skipped
  candidate is strictly beaten by an earlier one, so the weights, the
  objective value and the trace equal those of a scalar loop over all
  candidates, and ties still go to the lowest enumeration index.  Every
  block's margin bounds its own rounding, so where the blocks are cut
  changes only how many rows are re-scored, not the result.
* **Discrete decisions are exact.**  A candidate whose screened sensitivity
  lies within the tolerance of a threshold (feasibility dhat < t, the SRM
  index d <= t_k + eps_u) takes the exact row form, so boundary hits,
  clamps and the infeasibility payload match a scalar loop too.

Coordinate descent evaluates every row of a half-sweep exactly.  Its
restarts run in lockstep: each half-sweep of a coordinate (the axis values
below the current one, then the rest) is one batch holding every active
restart's rows, and each restart keeps its segment's first minimum when that
is strictly below its own running best.  A batch holds at most restarts x
points_per_axis rows, too few for a screen to save anything.

Exact values come in batches, ``exact_rows`` and ``evaluate``, one call per
block's re-scored rows or per half-sweep.  Each value equals the public
functions' per-candidate value bit for bit (``empirical_error`` on
``apply_operator``, ``empirical_sensitivity``,
``analytic_sensitivity_upper``): every product is a stacked matrix-vector
product, np.matmul(F, W[:, :, None]), which runs the same per-row kernel as
F @ w, where a GEMM over the rows would sum in another order; row means
reduce each row as a 1-d mean does; and each row's p-mean is core._p_means,
whose one-row case the empirical sensitivity takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bounds import hoeffding_term
from .core import (
    ApproxOperator,
    Checked,
    FeatureMap,
    Hypothesis,
    IdentityMap,
    LabelledSample,
    LossSpec,
    UnlabelledSample,
    _allocating,
    _check_number,
    _distinct_rows,
    _in_range,
    _mc_mean_se,
    _p_means,
    _row_keys,
    _row_means,
    apply_operator,
    derived_rng,
    loss_values,
    param,
)
from .errors import DimensionMismatchError, InfeasibleThresholdError, InvalidParameterError
from .radgeom import RadEstimate, _mc_signs

GRID_POINT_CAP = 1_000_000
#: Screening margin relative to the magnitudes a screened value is summed from.
SCREEN_MARGIN = 1e-9
#: Float64 elements in one block temporary (sample rows x candidates): ~1 MB.
BLOCK_ELEMENTS = 1 << 17


# ---------------------------------------------------------------------------
# Search domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchDomain(Checked):
    """Box [-halfwidth, halfwidth]^dim with a search mode.

    grid                exhaustive over a regular lattice (the oracle mode)
    random              seeded uniform draws from the box
    coordinate_descent  seeded random starts refined by per-axis sweeps
    """

    dim: int = param(type="integer", low=1)
    halfwidth: float = param(low=0, strict=True)
    mode: str = param("grid", type="string", enum=("grid", "random", "coordinate_descent"))
    points_per_axis: int = param(11, type="integer", low=2)
    n_samples: int = param(200, type="integer", low=1)
    restarts: int = param(4, type="integer", low=1)
    iterations: int = param(20, type="integer", low=1)
    seed: int = param(0, type="integer", low=0)

    def _draw(self, stream: int, count: int, name: str) -> np.ndarray:
        """``count`` seeded uniform points of the box, from generator stream
        ``stream``; ``name`` is the parameter that sets ``count``."""
        rng = derived_rng(self.seed, stream)
        with _allocating(f"search points for {name}={count}, dim={self.dim}"):
            return rng.uniform(-self.halfwidth, self.halfwidth, size=(count, self.dim))

    def axis_values(self) -> np.ndarray:
        return np.linspace(-self.halfwidth, self.halfwidth, self.points_per_axis)

    def candidate_matrix(self) -> np.ndarray:
        """Enumerated candidates for the grid and random modes."""
        if self.mode == "grid":
            if self.points_per_axis**self.dim > GRID_POINT_CAP:
                raise InvalidParameterError(
                    f"grid would hold {self.points_per_axis}^{self.dim} points; "
                    f"cap is {GRID_POINT_CAP}"
                )
            axes = [self.axis_values()] * self.dim
            mesh = np.meshgrid(*axes, indexing="ij")
            return np.stack([m.ravel() for m in mesh], axis=1)
        if self.mode == "random":
            return self._draw(9, self.n_samples, "n_samples")
        raise InvalidParameterError("coordinate_descent does not enumerate a candidate matrix")


@dataclass(frozen=True)
class SearchResult:
    weights: np.ndarray
    value: float
    trace: tuple[float, ...]


# Objectives are objects with
#   ws: the _Workspace, which holds the search domain and its blocks;
#   screen(block) -> (values, margin): every row of the _Block evaluated from
#       its lambda- and t-free columns, inf where infeasible, each value within
#       ``margin`` of its exact value; screening counts as evaluating the rows
#       (diagnostics and counters update here); grid and random search;
#   exact_rows(W) -> ndarray: the exact objective of every row of W, each
#       equal to a per-candidate evaluation bit for bit, free of side effects;
#   evaluate(W) -> ndarray: exact_rows(W), inf where a row is infeasible; like
#       screen, it counts as evaluating the rows; coordinate descent;
#   min_diag: smallest sensitivity seen, for the infeasibility error (inf
#       when the objective has no constraint).


def _raise_infeasible(min_diag: float) -> None:
    raise InfeasibleThresholdError(
        "no feasible point in the search domain",
        min_sensitivity=None if math.isinf(min_diag) else min_diag,
    )


def _improvements(objective, C, values, margin, best) -> list[tuple[int, float]]:
    """Strict improvements on ``best`` over the rows of C, in row order, given
    their screened ``values`` and the screen's ``margin``.

    A row is re-scored only when its screened lower bound undercuts every
    screened upper bound before it (and ``best``); any other row is strictly
    beaten by an earlier one.
    """
    upper = np.minimum.accumulate(np.concatenate(([best], values[:-1] + margin)))
    rows = np.flatnonzero(values - margin < upper)
    found = []
    exact = objective.exact_rows(C[rows]).tolist() if len(rows) else []
    for i, val in zip(rows.tolist(), exact):
        if val < best:
            best = val
            found.append((i, val))
    return found


def _search(objective) -> SearchResult:
    if objective.ws.domain.mode == "coordinate_descent":
        return _search_coordinate_descent(objective)
    best_w, best_val = None, math.inf
    trace: list[float] = []
    for block in objective.ws.blocks:
        values, margin = objective.screen(block)
        for i, val in _improvements(objective, block.C, values, margin, best_val):
            best_w, best_val = block.C[i], val
            trace.append(val)
    if best_w is None:
        _raise_infeasible(objective.min_diag)
    return SearchResult(weights=best_w.copy(), value=best_val, trace=tuple(trace))


def _search_coordinate_descent(objective) -> SearchResult:
    """Seeded restarts refined by per-coordinate sweeps, all restarts in
    lockstep (see the module docstring): each one moves as if it ran alone."""
    domain = objective.ws.domain
    axis = domain.axis_values()
    starts = domain._draw(8, domain.restarts, "restarts")
    W = axis[np.argmin(np.abs(axis[None, None, :] - starts[:, :, None]), axis=2)]
    vals = [math.inf] * domain.restarts

    def sweep(active: list[int], j: int, segments: list[np.ndarray]) -> set[int]:
        """Try each active restart's w with coordinate j set to each value of
        its segment in turn; the restarts that moved."""
        counts = [len(s) for s in segments]
        moved = set()
        if not sum(counts):
            return moved
        C = np.repeat(W[active], counts, axis=0)
        C[:, j] = np.concatenate(segments)
        values = objective.evaluate(C)
        for r, lo, n in zip(active, np.cumsum(counts) - counts, counts):
            if not n:
                continue
            i = lo + int(np.argmin(values[lo : lo + n]))  # the segment's first minimum
            if values[i] < vals[r]:
                vals[r] = float(values[i])
                W[r] = C[i]
                moved.add(r)
        return moved

    active = list(range(domain.restarts))
    sweep(active, 0, list(W[:, :1]))  # the start points themselves
    for _ in range(domain.iterations):
        improved: set[int] = set()
        for j in range(domain.dim):
            # the current value is skipped only until the coordinate first moves
            here = np.argmax(W[active, j][:, None] == axis, axis=1).tolist()
            moved = sweep(active, j, [axis[:h] for h in here])
            later = sweep(active, j, [axis[h:] if r in moved else axis[h + 1 :]
                                      for r, h in zip(active, here)])
            improved |= moved | later
        active = [r for r in active if r in improved]
        if not active:
            break
    best_w = None
    best_val = math.inf
    trace: list[float] = []
    for w, val in zip(W, vals):
        if val < best_val:
            best_val = val
            best_w = w
            trace.append(val)
    if best_w is None:
        _raise_infeasible(objective.min_diag)
    return SearchResult(weights=best_w.copy(), value=best_val, trace=tuple(trace))


# ---------------------------------------------------------------------------
# Learner scaffolding
# ---------------------------------------------------------------------------


def _check_prior(weights: list | tuple) -> list[float]:
    """The prior weights as floats, checked before converting: an integer too
    large for a float fails the range check, not float()."""
    if (not all(_in_range(w, 0, strict=True) for w in weights)
            or sum(map(float, weights)) > 1.0 + 1e-12):
        raise InvalidParameterError(
            f"weights must be finite numbers > 0 summing to at most 1, got {list(weights)}"
        )
    return [float(w) for w in weights]


@dataclass(frozen=True)
class ThresholdSchedule:
    """Increasing sensitivity thresholds with prior weights summing to <= 1."""

    thresholds: tuple[float, ...]
    weights: tuple[float, ...] = ()

    def __post_init__(self):
        ts = tuple(self.thresholds)
        if not ts:
            raise InvalidParameterError("schedule needs at least one threshold")
        if not all(_in_range(t, 0, strict=True) for t in ts):
            raise InvalidParameterError(f"thresholds must be finite numbers > 0, got {list(ts)}")
        ts = tuple(float(t) for t in ts)
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise InvalidParameterError("thresholds must be strictly increasing")
        ws = tuple(self.weights) or tuple(2.0 ** -(k + 1) for k in range(len(ts)))
        if len(ws) != len(ts):
            raise InvalidParameterError("weights must match thresholds in length")
        object.__setattr__(self, "thresholds", ts)
        object.__setattr__(self, "weights", tuple(_check_prior(ws)))

    def __len__(self) -> int:
        return len(self.thresholds)


@dataclass(frozen=True)
class EmpiricalSensitivity:
    """Regulariser: the empirical p-sensitivity of f under the learner's
    operator on ``sample``, as ``empirical_sensitivity`` computes it."""

    sample: UnlabelledSample
    p: float = 1.0
    kind = "empirical"


@dataclass(frozen=True)
class AnalyticSensitivity(Checked):
    """Regulariser: ||w - Q(w)||_2 * input_norm_budget under the learner's
    operator, as ``analytic_sensitivity_upper`` computes it."""

    input_norm_budget: float = param(low=0)
    kind = "analytic_upper"


@dataclass(frozen=True)
class LearnerOutput:
    """What a learner returns: the minimiser, its approximation, and the trail."""

    hypothesis: Hypothesis
    approx_hypothesis: Hypothesis
    objective_value: float
    objective_trace: tuple[float, ...]
    chosen_t: float | None = None
    chosen_k: int | None = None
    lam: float | None = None
    sensitivity_kind: str | None = None
    boundary_hits: int = 0
    clamped: bool = False
    per_lambda: list[dict] | None = None


def _reach(feats: np.ndarray | None) -> float:
    """Largest absolute row sum: bounds |<row, w>| per unit of max |w_j|."""
    return 0.0 if feats is None else float(np.abs(feats).sum(axis=1).max())


def _abs_max(values: np.ndarray) -> float:
    return float(np.max(np.abs(values), initial=0.0))


def _stacked(F: np.ndarray, W: np.ndarray) -> np.ndarray:
    """F @ w for every row w of W, as one stacked matrix-vector product whose
    rows equal the products F @ w bit for bit.  A GEMM (F @ W.T) sums in
    another order and can differ in the last bit."""
    return np.matmul(F, W[:, :, None])[:, :, 0]


class _Workspace:
    """Precomputed feature matrices, the exact row forms (empirical errors
    memoised per Q(w)), their block forms with the margins that bound
    block-versus-exact rounding, and the search domain's blocks.  Every learner builds one, so its checks
    are the learners' shared input checks."""

    def __init__(
        self,
        op: ApproxOperator,
        loss: LossSpec | None,
        feature_map: FeatureMap | None,
        labelled: LabelledSample,
        unlabelled: UnlabelledSample | None,
        p: float,
        domain: SearchDomain,
    ):
        if feature_map is None:
            feature_map = IdentityMap(input_dim=labelled.dim)
        if domain.dim != feature_map.feature_dim:
            raise DimensionMismatchError(
                f"search domain has dim {domain.dim}, "
                f"but the feature map has {feature_map.feature_dim} features"
            )
        if not op.deterministic:
            raise InvalidParameterError("learners require a deterministic operator")
        self.p = _check_number("p", p, 1)
        self.op = op
        self.loss = loss
        self.feature_map = feature_map
        self.domain = domain
        self.lab_feats = feature_map.transform(labelled.inputs)
        self.targets = labelled.targets
        self.unlab_feats = None if unlabelled is None else feature_map.transform(unlabelled.inputs)
        self._emp_cache: dict[bytes, float] = {}
        rows = max(f.shape[0] for f in (self.lab_feats, self.unlab_feats) if f is not None)
        self.block_size = max(1, BLOCK_ELEMENTS // rows)
        # rounding of a sum of n terms differs by at most ~n eps between orders
        self.rel_margin = max(
            SCREEN_MARGIN, 64 * np.finfo(float).eps * (rows + feature_map.feature_dim)
        )
        self.lab_reach = _reach(self.lab_feats)
        self.unlab_reach = _reach(self.unlab_feats)

    @cached_property
    def blocks(self) -> list[_Block]:
        """The grid or random domain's candidates in blocks of block_size rows."""
        C = self.domain.candidate_matrix()
        step = self.block_size
        return [_Block(self, C[lo : lo + step]) for lo in range(0, len(C), step)]

    # -- exact row forms: per-candidate values, bit for bit (module docstring)

    def exact_emp_errors(self, W: np.ndarray) -> np.ndarray:
        """empirical_error of every row of W."""
        return _row_means(loss_values(self.loss, _stacked(self.lab_feats, W), self.targets))

    def exact_approx_emp_errors(self, Q: np.ndarray) -> np.ndarray:
        """exact_emp_errors of every row of Q, memoised per row: tied candidates
        of a piecewise-constant objective share one evaluation (-0.0 and 0.0
        are one key)."""
        cache = self._emp_cache
        keys = _row_keys(Q).tolist()
        missing = {key: i for i, key in enumerate(keys) if key not in cache}
        if missing:
            rows = Q if len(missing) == len(Q) else Q[list(missing.values())]
            cache.update(zip(missing, self.exact_emp_errors(rows).tolist()))
        return np.array([cache[key] for key in keys])

    def exact_dhats(self, W: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """empirical_sensitivity of every row of W, given its rows Q(W)."""
        products = _stacked(self.unlab_feats, np.concatenate((W, Q)))
        return _p_means(products[: len(W)] - products[len(W) :], self.p)

    # -- block forms --------------------------------------------------------

    def emp_errors(self, W: np.ndarray) -> np.ndarray:
        """emp_error of every row of W."""
        return loss_values(self.loss, self.lab_feats @ W.T, self.targets[:, None]).mean(axis=0)

    def approx_emp_errors(self, Q: np.ndarray) -> np.ndarray:
        """emp_error of every row of Q, computed once per distinct row."""
        distinct, inverse = _distinct_rows(Q)
        return self.emp_errors(distinct)[inverse]

    def emp_scale(self, W: np.ndarray) -> float:
        """Magnitude the emp_errors of W are summed from (losses are <= 1 and
        rho-Lipschitz in the prediction)."""
        return 1.0 + self.loss.lipschitz * self.lab_reach * _abs_max(W)

    def margin(self, values: np.ndarray, scale: float) -> float:
        """Bound on |screened - exact| for values summed from ``scale``."""
        return self.rel_margin * (scale + _abs_max(values[np.isfinite(values)]))

    def output(self, result: SearchResult, **extras) -> LearnerOutput:
        h = Hypothesis(weights=result.weights, feature_map=self.feature_map)
        return LearnerOutput(
            hypothesis=h,
            approx_hypothesis=apply_operator(self.op, h),
            objective_value=result.value,
            objective_trace=result.trace,
            **extras,
        )


class _Block:
    """One block of candidates C with its values that depend on neither
    lambda, t nor the penalties, each computed the first time it is read."""

    def __init__(self, ws: _Workspace, C: np.ndarray):
        self.ws = ws
        self.C = C

    @cached_property
    def Q(self) -> np.ndarray:
        return self.ws.op.transform_weights(self.C)

    @cached_property
    def dhats(self) -> np.ndarray:
        """dhat of every row, as one product U @ (C - Q).T."""
        gaps = self.ws.unlab_feats @ (self.C - self.Q).T
        np.abs(gaps, out=gaps)
        if self.ws.p != 1.0:  # x ** 1.0 == x: skipping the pass changes no bit
            gaps **= self.ws.p
        return np.mean(gaps, axis=0) ** (1.0 / self.ws.p)

    @cached_property
    def dhat_scale(self) -> float:
        """Bounds every gap the dhats are summed from (p-means are 1-Lipschitz)."""
        return self.ws.unlab_reach * (_abs_max(self.C) + _abs_max(self.Q))

    @cached_property
    def dhat_tol(self) -> float:
        """Bound on |screened - exact| for the dhats."""
        return self.ws.rel_margin * self.dhat_scale

    @cached_property
    def approx_emp_errors(self) -> np.ndarray:
        return self.ws.approx_emp_errors(self.Q)

    @cached_property
    def emp_errors(self) -> np.ndarray:
        return self.ws.emp_errors(self.C)

    @cached_property
    def residual_norms(self) -> np.ndarray:
        """||C - Q|| per row; off from the exact norm by a relative few eps."""
        return np.linalg.norm(self.C - self.Q, axis=1)


class _Regularised:
    """emp_err(Q(w)) + coef * S(w) for a built-in sensitivity S: the empirical
    one on the workspace's unlabelled sample, or with ``budget`` the analytic
    bound."""

    min_diag = math.inf

    def __init__(self, ws: _Workspace, coef: float, budget: float | None = None):
        self.ws = ws
        self.coef = coef
        self.budget = budget

    def exact_rows(self, W: np.ndarray) -> np.ndarray:
        Q = self.ws.op.transform_weights(W)
        if self.budget is None:
            sens = self.ws.exact_dhats(W, Q)
        else:  # analytic_sensitivity_upper's norm: sqrt of each row's dot product
            R = W - Q
            sens = np.sqrt(np.matmul(R[:, None, :], R[:, :, None])[:, 0, 0]) * self.budget
        return self.ws.exact_approx_emp_errors(Q) + self.coef * sens

    evaluate = exact_rows  # every row is feasible and nothing is counted

    def screen(self, block: _Block):
        scale = self.ws.emp_scale(block.Q)
        if self.budget is None:
            sens = block.dhats
            scale += self.coef * block.dhat_scale
        else:
            sens = block.residual_norms * self.budget
        values = block.approx_emp_errors + self.coef * sens
        return values, self.ws.margin(values, scale)


class _Constrained:
    """emp_err(Q(w)) over candidates whose dhat is strictly below t."""

    def __init__(self, ws: _Workspace, t: float):
        self.ws = ws
        self.t = t
        self.min_diag = math.inf

    def exact_rows(self, W: np.ndarray) -> np.ndarray:
        return self.ws.exact_approx_emp_errors(self.ws.op.transform_weights(W))

    def evaluate(self, W: np.ndarray) -> np.ndarray:
        ws, Q = self.ws, self.ws.op.transform_weights(W)
        d = ws.exact_dhats(W, Q)
        self.min_diag = min(self.min_diag, float(d.min()))
        feasible = d < self.t
        values = np.full(len(W), math.inf)
        if feasible.any():  # only the feasible rows' Q(w) are evaluated
            values[feasible] = ws.exact_approx_emp_errors(Q[feasible])
        return values

    def screen(self, block: _Block):
        ws, d, tol = self.ws, block.dhats, block.dhat_tol
        feasible = d < self.t
        near = np.flatnonzero(np.abs(d - self.t) <= tol)
        if len(near):
            feasible[near] = ws.exact_dhats(block.C[near], block.Q[near]) < self.t
        lowest = float(d.min())
        if lowest - tol < self.min_diag:
            near = np.flatnonzero(d <= lowest + 2.0 * tol)
            exact = ws.exact_dhats(block.C[near], block.Q[near])
            self.min_diag = min(self.min_diag, float(exact.min()))
        values = np.full(len(d), math.inf)
        if feasible.any():  # only the feasible rows' Q(w) are evaluated
            values[feasible] = ws.approx_emp_errors(block.Q[feasible])
        return values, ws.margin(values, ws.emp_scale(block.Q))


class _Structural:
    """emp_err(w) + penalties[k], k the first index with dhat(w) <= limits[k]
    (clamped to the last); counts boundary hits and clamps per evaluation."""

    min_diag = math.inf

    def __init__(self, ws: _Workspace, limits: list[float], penalties: list[float]):
        self.ws = ws
        self.limits = np.array(limits)
        # indexed by the unclamped level k (len(limits) above every limit): the
        # penalty charged, the last one above every limit, and the limit a
        # boundary hit equals, none above every limit
        self.penalties = np.array(penalties + penalties[-1:])
        self.hit_limits = np.append(self.limits, math.nan)
        self.boundary_hits = 0
        self.clamps = 0

    def levels(self, W: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unclamped index of every row of W (len(limits) above them all),
        given its rows Q(W), and whether its exact dhat equals that limit."""
        d = self.ws.exact_dhats(W, Q)
        k = np.searchsorted(self.limits, d, side="left")  # the first limit >= d
        return k, d == self.hit_limits[k]

    def _exact(self, W: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """levels(W) and the exact objective of every row of W."""
        k, hits = self.levels(W, self.ws.op.transform_weights(W))
        return k, hits, self.ws.exact_emp_errors(W) + self.penalties[k]

    def exact_rows(self, W: np.ndarray) -> np.ndarray:
        return self._exact(W)[2]

    def evaluate(self, W: np.ndarray) -> np.ndarray:
        k, hits, values = self._exact(W)
        self.boundary_hits += int(np.count_nonzero(hits))
        self.clamps += int(np.count_nonzero(k == len(self.limits)))
        return values

    def screen(self, block: _Block):
        d, tol = block.dhats, block.dhat_tol
        k = np.searchsorted(self.limits, d, side="left")
        near = np.flatnonzero(np.any(np.abs(d[:, None] - self.limits) <= tol, axis=1))
        if len(near):
            k[near], hits = self.levels(block.C[near], block.Q[near])
            self.boundary_hits += int(np.count_nonzero(hits))
        self.clamps += int(np.count_nonzero(k == len(self.limits)))
        values = block.emp_errors + self.penalties[k]
        return values, self.ws.margin(values, self.ws.emp_scale(block.C))


# ---------------------------------------------------------------------------
# Learners
# ---------------------------------------------------------------------------


def constrained_erm(
    labelled: LabelledSample,
    unlabelled: UnlabelledSample,
    op: ApproxOperator,
    t: float,
    p: float,
    loss: LossSpec,
    domain: SearchDomain,
    feature_map: FeatureMap | None = None,
) -> LearnerOutput:
    """Minimise the empirical error of the approximated predictor subject to
    the empirical sensitivity staying strictly below ``t``.

    Raises InfeasibleThresholdError (carrying the smallest achievable
    sensitivity) when no candidate qualifies.
    """
    if not (t == math.inf or _in_range(t, 0, strict=True)):  # t = inf: the vacuous constraint
        raise InvalidParameterError(f"t must be > 0, got {t!r}")
    ws = _Workspace(op, loss, feature_map, labelled, unlabelled, p, domain)
    return ws.output(_search(_Constrained(ws, t)), chosen_t=t)


def srm_learner(
    labelled: LabelledSample,
    unlabelled: UnlabelledSample,
    op: ApproxOperator,
    schedule: ThresholdSchedule,
    epsilon_u: float,
    rad_estimator,
    loss: LossSpec,
    domain: SearchDomain,
    p: float = 1.0,
    feature_map: FeatureMap | None = None,
) -> LearnerOutput:
    """Structural risk minimisation over the threshold schedule.

    Each candidate f is charged the penalty of the smallest threshold index
    k with empirical sensitivity <= t_k + epsilon_u:

        emp_err(f) + 2 rho rad(t_k + eps_u) + 3 sqrt(ln(1 / w_k) / (2m)).

    Candidates above the last threshold are clamped to the last index so the
    learner stays total; ``rad_estimator`` maps a threshold to a RadEstimate
    for the restricted class.
    """
    _check_number("epsilon_u", epsilon_u, 0)
    ws = _Workspace(op, loss, feature_map, labelled, unlabelled, p, domain)
    m = labelled.m
    rho = loss.lipschitz
    penalties = []
    for t_k, w_k in zip(schedule.thresholds, schedule.weights):
        rad = rad_estimator(t_k + epsilon_u)
        rad_value = rad.value if isinstance(rad, RadEstimate) else float(rad)
        penalties.append(2.0 * rho * rad_value + hoeffding_term(3.0, 1.0 / w_k, m))

    objective = _Structural(ws, [t_k + epsilon_u for t_k in schedule.thresholds], penalties)
    result = _search(objective)
    W = result.weights[None]
    levels, hits = objective.levels(W, op.transform_weights(W))
    level, hit = int(levels[0]), bool(hits[0])
    chosen = min(level, len(schedule) - 1)
    return ws.output(
        result,
        chosen_k=chosen + 1,
        chosen_t=schedule.thresholds[chosen],
        boundary_hits=objective.boundary_hits + hit,
        clamped=objective.clamps > 0 or level == len(schedule),
    )


def lambda_erm(
    labelled: LabelledSample,
    op: ApproxOperator,
    lam: float,
    sensitivity: EmpiricalSensitivity | AnalyticSensitivity,
    loss: LossSpec,
    domain: SearchDomain,
    feature_map: FeatureMap | None = None,
) -> LearnerOutput:
    """Minimise emp_err(Af) + lambda * S(f), the regularised learner.

    S is the empirical p-sensitivity on an unlabelled sample
    (EmpiricalSensitivity) or its analytic upper bound
    ||w - Q(w)||_2 * input_norm_budget (AnalyticSensitivity), which needs no
    unlabelled data.  Sensitivity-regularised ERM is lambda = rho.
    """
    _check_number("lambda", lam, 0)
    if isinstance(sensitivity, EmpiricalSensitivity):
        ws = _Workspace(op, loss, feature_map, labelled, sensitivity.sample, sensitivity.p, domain)
        objective = _Regularised(ws, lam)
    elif isinstance(sensitivity, AnalyticSensitivity):
        ws = _Workspace(op, loss, feature_map, labelled, None, 1.0, domain)
        objective = _Regularised(ws, lam, sensitivity.input_norm_budget)
    else:
        raise InvalidParameterError(
            "the regulariser must be EmpiricalSensitivity or AnalyticSensitivity, "
            f"not {type(sensitivity).__name__}"
        )
    return ws.output(_search(objective), lam=lam, sensitivity_kind=sensitivity.kind)


def lambda_grid_srm(
    labelled: LabelledSample,
    unlabelled: UnlabelledSample,
    op: ApproxOperator,
    lambdas,
    weights,
    p: float,
    loss: LossSpec,
    domain: SearchDomain,
    feature_map: FeatureMap | None = None,
) -> LearnerOutput:
    """Run the lambda-regularised learner (empirical sensitivity) per
    candidate value on one workspace and keep the one minimising
    emp_err(A f) + 3 sqrt(ln(1 / w_k) / (2m)).

    The per-candidate table is attached to the returned output.
    """
    lambdas, weights = list(lambdas), list(weights)
    if not lambdas:
        raise InvalidParameterError("need at least one lambda")
    if len(weights) != len(lambdas):
        raise InvalidParameterError("weights must match lambdas in length")
    weights = _check_prior(weights)
    if not all(_in_range(lam, 0) for lam in lambdas):
        raise InvalidParameterError(f"lambdas must be finite numbers >= 0, got {lambdas}")
    lambdas = [float(v) for v in lambdas]
    ws = _Workspace(op, loss, feature_map, labelled, unlabelled, p, domain)
    m = labelled.m

    table = []
    results = []
    for lam, w_k in zip(lambdas, weights):
        result = _search(_Regularised(ws, lam))
        emp = float(ws.exact_approx_emp_errors(op.transform_weights(result.weights[None]))[0])
        penalty = hoeffding_term(3.0, 1.0 / w_k, m)
        table.append({"lambda": lam, "empirical_error": emp, "penalty": penalty,
                      "score": emp + penalty})
        results.append(result)
    best = min(range(len(table)), key=lambda i: table[i]["score"])
    return ws.output(results[best], lam=lambdas[best], per_lambda=table)


def make_restricted_rad_estimator(
    domain: SearchDomain,
    labelled: LabelledSample,
    unlabelled: UnlabelledSample,
    op: ApproxOperator,
    p: float = 1.0,
    n_sigma: int = 512,
    seed: int = 0,
    feature_map: FeatureMap | None = None,
):
    """Default SRM penalty estimator.

    Realises the sensitivity-restricted class as the subset of the search
    grid whose empirical sensitivity (on the unlabelled sample) is at most
    the threshold, and Monte Carlo estimates the Rademacher complexity of its
    prediction rows on the labelled inputs.  The signs are drawn and
    multiplied out once, here; each threshold takes a maximum over a prefix
    of the same sign sums, so the estimate is non-decreasing in the threshold
    once the class is non-empty.
    """
    ws = _Workspace(op, None, feature_map, labelled, unlabelled, p, domain)
    candidates = np.concatenate([block.C for block in ws.blocks])
    dhats = np.concatenate([block.dhats for block in ws.blocks])
    order = np.argsort(dhats, kind="stable")
    sorted_dhats = dhats[order]
    rows = np.ascontiguousarray((ws.lab_feats @ candidates.T).T[order])
    m = labelled.m
    # every threshold's class is a prefix of the rows sorted by d-hat, and
    # every call shares one sign draw: each draw's supremum over the k least
    # sensitive candidates is the maximum of its first k sign sums
    sums = _mc_signs(n_sigma, m, seed) @ rows.T

    def estimator(threshold: float) -> RadEstimate:
        k = int(np.searchsorted(sorted_dhats, threshold, side="right"))
        value, se = _mc_mean_se(sums[:, :k].max(axis=1) / m) if k else (0.0, 0.0)
        return RadEstimate(
            value=value,
            method="monte_carlo",
            m=m,
            standard_error=se,
            n_sigma=n_sigma,
            seed=seed,
            note=None if k else "restricted class empty at this threshold",
        )

    return estimator
