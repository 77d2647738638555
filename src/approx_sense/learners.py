"""Learning algorithms over a searchable weight domain.

All objectives involve a quantised weight transform, so they are piecewise
constant in the weights; search is therefore exhaustive on small grids (the
oracle mode used by the tests) and seeded random sampling or coordinate
descent in higher dimension.  Ties always resolve to the lowest enumeration
index, which keeps every learner deterministic.

Search screens candidates in blocks, then re-scores a few of them exactly:

* **Screen.**  ``_Workspace.blocks`` is the one place that cuts a grid or
  random domain's candidates into blocks; a descent sweep (every axis value
  of one coordinate) is a block of its own.  A ``_Block`` computes its
  lambda- and t-free values when first read: Q(C), emp_err(Q(C)) once per
  distinct Q(w) (core._distinct_rows finds them), emp_err(C), ||C - Q(C)||
  and the empirical sensitivities as one product U @ (C - Q(C)).T.  An
  objective combines them with lambda, t or the penalties.  These values
  differ from a per-candidate evaluation by rounding only (about 1e-13
  here).  Each screen carries a margin, SCREEN_MARGIN times the magnitudes
  its values are summed from, that bounds this with a wide safety factor.
* **Re-score.**  In enumeration order, the scalar objective is run only on
  candidates whose screened value lies within twice the margin of the
  running screened minimum, and the first strict minimum is kept.  Every
  skipped candidate is strictly beaten by an earlier one, so the weights,
  the objective value and the trace equal those of the scalar loop over all
  candidates, and ties still go to the lowest enumeration index.
* **Discrete decisions are exact.**  A candidate whose screened sensitivity
  lies within the tolerance of a threshold (feasibility dhat < t, the SRM
  index d <= t_k + eps_u) takes the scalar check, so boundary hits, clamps
  and the infeasibility payload match the scalar loop too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import hoeffding_term
from .core import (
    ApproxOperator,
    FeatureMap,
    Hypothesis,
    IdentityMap,
    LabelledSample,
    LossSpec,
    UnlabelledSample,
    _distinct_rows,
    apply_operator,
    loss_values,
)
from .errors import DimensionMismatchError, InfeasibleThresholdError, InvalidParameterError
from .radgeom import RadEstimate, _mc_mean_se, _mc_signs

GRID_POINT_CAP = 1_000_000
#: Screening margin relative to the magnitudes a screened value is summed from.
SCREEN_MARGIN = 1e-9
#: Float64 elements in one block temporary (sample rows x candidates): ~1 MB.
BLOCK_ELEMENTS = 1 << 17


# ---------------------------------------------------------------------------
# Search domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchDomain:
    """Box [-halfwidth, halfwidth]^dim with a search mode.

    grid                exhaustive over a regular lattice (the oracle mode)
    random              seeded uniform draws from the box
    coordinate_descent  seeded random starts refined by per-axis sweeps
    """

    dim: int
    halfwidth: float
    mode: str = "grid"
    points_per_axis: int = 11
    n_samples: int = 200
    restarts: int = 4
    iterations: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidParameterError("dim must be >= 1")
        if self.halfwidth <= 0:
            raise InvalidParameterError("halfwidth must be positive")
        if self.mode not in ("grid", "random", "coordinate_descent"):
            raise InvalidParameterError(f"unknown search mode {self.mode!r}")
        if self.points_per_axis < 2:
            raise InvalidParameterError("points_per_axis must be >= 2")
        if self.n_samples < 1 or self.restarts < 1 or self.iterations < 1:
            raise InvalidParameterError("search budget parameters must be >= 1")

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
            rng = np.random.default_rng(np.random.SeedSequence(entropy=self.seed, spawn_key=(9,)))
            return rng.uniform(-self.halfwidth, self.halfwidth, size=(self.n_samples, self.dim))
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
#       ``margin`` of exact(row); screening counts as evaluating the rows
#       (diagnostics and counters update here);
#   exact(w) -> float: the scalar objective, free of side effects;
#   min_diag: smallest sensitivity seen, for the infeasibility error (inf
#       when the objective has no constraint).


def _raise_infeasible(min_diag: float) -> None:
    raise InfeasibleThresholdError(
        "no feasible point in the search domain",
        min_sensitivity=None if math.isinf(min_diag) else min_diag,
    )


def _scan(objective, block: _Block, best: float) -> list[tuple[int, float]]:
    """Strict improvements on ``best`` over the block's rows, in row order.

    A row is re-scored only when its screened lower bound undercuts every
    screened upper bound before it (and ``best``); any other row is strictly
    beaten by an earlier one.
    """
    if len(block.C) == 0:
        return []
    values, margin = objective.screen(block)
    upper = np.minimum.accumulate(np.concatenate(([best], values[:-1] + margin)))
    found = []
    for i in np.flatnonzero(values - margin < upper):
        val = objective.exact(block.C[i])
        if val < best:
            best = val
            found.append((int(i), val))
    return found


def _search(objective) -> SearchResult:
    if objective.ws.domain.mode == "coordinate_descent":
        return _search_coordinate_descent(objective)
    best_w, best_val = None, math.inf
    trace: list[float] = []
    for block in objective.ws.blocks:
        for i, val in _scan(objective, block, best_val):
            best_w, best_val = block.C[i], val
            trace.append(val)
    if best_w is None:
        _raise_infeasible(objective.min_diag)
    return SearchResult(weights=best_w.copy(), value=best_val, trace=tuple(trace))


def _search_coordinate_descent(objective) -> SearchResult:
    domain = objective.ws.domain
    axis = domain.axis_values()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=domain.seed, spawn_key=(8,)))
    starts = rng.uniform(-domain.halfwidth, domain.halfwidth, size=(domain.restarts, domain.dim))
    best_w = None
    best_val = math.inf
    trace: list[float] = []

    def sweep(w: np.ndarray, val: float, j: int, values: np.ndarray):
        """Try w with coordinate j set to each of ``values`` in turn."""
        block = np.repeat(w[None, :], len(values), axis=0)
        block[:, j] = values
        found = _scan(objective, _Block(objective.ws, block), val)
        if not found:
            return w, val, False
        i, val = found[-1]
        return block[i].copy(), val, True

    for start in starts:
        w = axis[np.argmin(np.abs(axis[None, :] - start[:, None]), axis=1)]
        w, val, _ = sweep(w, math.inf, 0, w[:1])  # the start point itself
        for _ in range(domain.iterations):
            improved = False
            for j in range(domain.dim):
                # the current value is skipped only until the coordinate first moves
                here = int(np.flatnonzero(axis == w[j])[0])
                w, val, moved = sweep(w, val, j, axis[:here])
                w, val, later = sweep(w, val, j, axis[here:] if moved else axis[here + 1 :])
                improved = improved or moved or later
            if not improved:
                break
        if val < best_val:
            best_val = val
            best_w = w
            trace.append(val)
    if best_w is None or math.isinf(best_val):
        _raise_infeasible(objective.min_diag)
    return SearchResult(weights=best_w.copy(), value=best_val, trace=tuple(trace))


# ---------------------------------------------------------------------------
# Learner scaffolding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdSchedule:
    """Increasing sensitivity thresholds with prior weights summing to <= 1."""

    thresholds: tuple[float, ...]
    weights: tuple[float, ...] = ()

    def __post_init__(self):
        ts = tuple(float(t) for t in self.thresholds)
        if not ts:
            raise InvalidParameterError("schedule needs at least one threshold")
        if any(t <= 0 for t in ts):
            raise InvalidParameterError("thresholds must be positive")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise InvalidParameterError("thresholds must be strictly increasing")
        ws = tuple(float(w) for w in self.weights)
        if not ws:
            ws = tuple(2.0 ** -(k + 1) for k in range(len(ts)))
        if len(ws) != len(ts):
            raise InvalidParameterError("weights must match thresholds in length")
        if any(w <= 0 for w in ws) or sum(ws) > 1.0 + 1e-12:
            raise InvalidParameterError("weights must be positive and sum to at most 1")
        object.__setattr__(self, "thresholds", ts)
        object.__setattr__(self, "weights", ws)

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
class AnalyticSensitivity:
    """Regulariser: ||w - Q(w)||_2 * input_norm_budget under the learner's
    operator, as ``analytic_sensitivity_upper`` computes it."""

    input_norm_budget: float
    kind = "analytic_upper"

    def __post_init__(self):
        if self.input_norm_budget < 0:
            raise InvalidParameterError("input_norm_budget must be >= 0")


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


class _lazy:
    """functools.cached_property without the lock that Python < 3.12 shares
    across instances, on which parallel validation trials' blocks would wait.
    Not a data descriptor: once stored, the instance's value is read."""

    def __init__(self, compute):
        self.compute = compute

    def __get__(self, obj, owner=None):
        value = obj.__dict__[self.compute.__name__] = self.compute(obj)
        return value


def _reach(feats: np.ndarray | None) -> float:
    """Largest absolute row sum: bounds |<row, w>| per unit of max |w_j|."""
    return 0.0 if feats is None else float(np.abs(feats).sum(axis=1).max())


def _abs_max(values: np.ndarray) -> float:
    return float(np.max(np.abs(values), initial=0.0))


class _Workspace:
    """Precomputed feature matrices, memoised per-weight statistics, their
    block forms with the margins that bound block-versus-scalar rounding,
    and the search domain's blocks.  Every learner builds one, so its checks
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
        if p < 1:
            raise InvalidParameterError("p must be >= 1")
        self.op = op
        self.loss = loss
        self.feature_map = feature_map
        self.domain = domain
        self.p = float(p)
        self.lab_feats = feature_map.transform(labelled.inputs)
        self.targets = labelled.targets
        self.unlab_feats = None if unlabelled is None else feature_map.transform(unlabelled.inputs)
        self._dhat_cache: dict[bytes, float] = {}
        self._emp_cache: dict[bytes, float] = {}
        rows = max(f.shape[0] for f in (self.lab_feats, self.unlab_feats) if f is not None)
        self.block_size = max(1, BLOCK_ELEMENTS // rows)
        # rounding of a sum of n terms differs by at most ~n eps between orders
        self.rel_margin = max(
            SCREEN_MARGIN, 64 * np.finfo(float).eps * (rows + feature_map.feature_dim)
        )
        self.lab_reach = _reach(self.lab_feats)
        self.unlab_reach = _reach(self.unlab_feats)

    @_lazy
    def blocks(self) -> list[_Block]:
        """The grid or random domain's candidates in blocks of block_size rows."""
        C = self.domain.candidate_matrix()
        step = self.block_size
        return [_Block(self, C[lo : lo + step]) for lo in range(0, len(C), step)]

    def emp_error(self, w: np.ndarray) -> float:
        return float(loss_values(self.loss, self.lab_feats @ w, self.targets).mean())

    def approx_emp_error(self, w: np.ndarray) -> float:
        # memoised per Q(w): tied candidates of a piecewise-constant
        # objective share one evaluation (-0.0 and 0.0 are one key)
        qw = self.op.transform_weights(w)
        key = (qw + 0.0).tobytes()
        cached = self._emp_cache.get(key)
        if cached is None:
            cached = self._emp_cache[key] = self.emp_error(qw)
        return cached

    def dhat(self, w: np.ndarray) -> float:
        # matches empirical_sensitivity bit for bit (same matmul shapes)
        key = w.tobytes()
        cached = self._dhat_cache.get(key)
        if cached is None:
            qw = self.op.transform_weights(w)
            gaps = np.abs(self.unlab_feats @ w - self.unlab_feats @ qw)
            cached = float(np.mean(gaps**self.p) ** (1.0 / self.p))
            self._dhat_cache[key] = cached
        return cached

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

    @_lazy
    def Q(self) -> np.ndarray:
        return self.ws.op.transform_weights(self.C)

    @_lazy
    def dhats(self) -> np.ndarray:
        """dhat of every row, as one product U @ (C - Q).T."""
        gaps = self.ws.unlab_feats @ (self.C - self.Q).T
        np.abs(gaps, out=gaps)
        if self.ws.p != 1.0:  # x ** 1.0 == x: skipping the pass changes no bit
            gaps **= self.ws.p
        return np.mean(gaps, axis=0) ** (1.0 / self.ws.p)

    @_lazy
    def dhat_scale(self) -> float:
        """Bounds every gap the dhats are summed from (p-means are 1-Lipschitz)."""
        return self.ws.unlab_reach * (_abs_max(self.C) + _abs_max(self.Q))

    @_lazy
    def dhat_tol(self) -> float:
        """Bound on |screened - exact| for the dhats."""
        return self.ws.rel_margin * self.dhat_scale

    @_lazy
    def approx_emp_errors(self) -> np.ndarray:
        return self.ws.approx_emp_errors(self.Q)

    @_lazy
    def emp_errors(self) -> np.ndarray:
        return self.ws.emp_errors(self.C)

    @_lazy
    def residual_norms(self) -> np.ndarray:
        """||C - Q|| per row; off from the scalar norm by a relative few eps."""
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

    def exact(self, w: np.ndarray) -> float:
        if self.budget is None:
            sens = self.ws.dhat(w)
        else:  # analytic_sensitivity_upper's arithmetic, bit for bit
            sens = float(np.linalg.norm(w - self.ws.op.transform_weights(w))) * self.budget
        return self.ws.approx_emp_error(w) + self.coef * sens

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

    def exact(self, w: np.ndarray) -> float:
        return self.ws.approx_emp_error(w)

    def screen(self, block: _Block):
        ws, d, tol = self.ws, block.dhats, block.dhat_tol
        feasible = d < self.t
        for i in np.flatnonzero(np.abs(d - self.t) <= tol):
            feasible[i] = ws.dhat(block.C[i]) < self.t
        lowest = float(d.min())
        if lowest - tol < self.min_diag:
            near = np.flatnonzero(d <= lowest + 2.0 * tol)
            self.min_diag = min(self.min_diag, *(ws.dhat(block.C[i]) for i in near))
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
        self.limits = limits
        self.penalties = penalties
        self.boundary_hits = 0
        self.clamps = 0

    def level(self, w: np.ndarray) -> tuple[int, bool]:
        """Unclamped index of w (len(limits) above them all), and whether its
        dhat equals that limit."""
        d = self.ws.dhat(w)
        for k, limit in enumerate(self.limits):
            if d <= limit:
                return k, d == limit
        return len(self.limits), False

    def exact(self, w: np.ndarray) -> float:
        k, _ = self.level(w)
        return self.ws.emp_error(w) + self.penalties[min(k, len(self.limits) - 1)]

    def screen(self, block: _Block):
        d, tol = block.dhats, block.dhat_tol
        limits = np.asarray(self.limits)
        k = np.searchsorted(limits, d, side="left")
        for i in np.flatnonzero(np.any(np.abs(d[:, None] - limits) <= tol, axis=1)):
            k[i], hit = self.level(block.C[i])
            self.boundary_hits += hit
        self.clamps += int(np.count_nonzero(k == len(limits)))
        values = block.emp_errors + np.asarray(self.penalties)[np.minimum(k, len(limits) - 1)]
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
    if t <= 0:
        raise InvalidParameterError("t must be positive")
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
    if epsilon_u < 0:
        raise InvalidParameterError("epsilon_u must be >= 0")
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
    level, hit = objective.level(result.weights)
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
    if lam < 0:
        raise InvalidParameterError("lambda must be >= 0")
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
    lambdas = [float(v) for v in lambdas]
    weights = [float(v) for v in weights]
    if not lambdas:
        raise InvalidParameterError("need at least one lambda")
    if len(weights) != len(lambdas):
        raise InvalidParameterError("weights must match lambdas in length")
    if any(w <= 0 for w in weights) or sum(weights) > 1.0 + 1e-12:
        raise InvalidParameterError("weights must be positive and sum to at most 1")
    if any(lam < 0 for lam in lambdas):
        raise InvalidParameterError("lambda must be >= 0")
    ws = _Workspace(op, loss, feature_map, labelled, unlabelled, p, domain)
    m = labelled.m

    table = []
    results = []
    for lam, w_k in zip(lambdas, weights):
        result = _search(_Regularised(ws, lam))
        emp = ws.approx_emp_error(result.weights)
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
        value, se = _mc_mean_se(sums[:, :k].max(axis=1), m) if k else (0.0, 0.0)
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
