"""Itemised right-hand sides of the guarantees: the uniform deviation bounds
of the empirical sensitivity and the generalisation bounds built on them.

Every calculator returns a BoundReport whose terms sum to its value, so a
report can be audited line by line.  The module does pure arithmetic: error
and complexity estimates are supplied by the caller.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from .errors import InvalidParameterError
from .radgeom import RadEstimate


def hoeffding_term(c: float, arg: float, m: int) -> float:
    """c * sqrt(ln(arg) / (2 m)); the recurring deviation term shape."""
    if c < 0:
        raise InvalidParameterError("multiplier must be >= 0")
    if arg < 1:
        raise InvalidParameterError("log argument must be >= 1")
    if m < 1:
        raise InvalidParameterError("m must be >= 1")
    return c * math.sqrt(math.log(arg) / (2.0 * m))


@dataclass(frozen=True)
class Constituent:
    """A constituent value with an explicit certified flag, as read from a
    file (a Monte Carlo value is uncertified even when its standard error
    is 0)."""

    value: float
    certified: bool


def _constituent(x) -> tuple[float, bool]:
    """Normalise a float, Constituent or RadEstimate to (value, certified)."""
    if isinstance(x, (Constituent, RadEstimate)):
        return x.value, x.certified
    return float(x), True


@dataclass(frozen=True)
class BoundReport:
    name: str
    value: float
    terms: tuple[tuple[str, float], ...]
    delta: float
    certified: bool
    inputs: dict = field(hash=False, repr=False)
    metadata: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        total = _finite_sum(self.name, self.terms)
        if not abs(total - self.value) <= 1e-12 * max(1.0, abs(total)):  # NaN fails too
            raise InvalidParameterError("report value must equal the sum of its terms")

    def term(self, label: str) -> float:
        for name, value in self.terms:
            if name == label:
                return value
        raise KeyError(label)

    @property
    def inputs_digest(self) -> str:
        """Hash of the name and inputs, computed when read: most callers read
        only ``value``."""
        payload = json.dumps({"name": self.name, "inputs": self.inputs}, sort_keys=True,
                             default=repr)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "value": self.value,
            "terms": [[label, value] for label, value in self.terms],
            "delta": self.delta,
            "certified": self.certified,
            "inputs_digest": self.inputs_digest,
        }
        if self.metadata:
            d["metadata"] = {k: v for k, v in self.metadata}
        return d


def _finite_sum(name: str, terms) -> float:
    """The exact sum of the terms' values; InvalidParameterError when a term
    or the sum is not a finite float."""
    try:
        total = math.fsum(v for _, v in terms)
    except (OverflowError, ValueError):  # finite terms past the float range; inf - inf
        total = math.nan
    if not math.isfinite(total):
        raise InvalidParameterError(f"bound {name} is not finite: terms {list(terms)}")
    return total


def _report(name, terms, delta, inputs, certified=True, metadata=()) -> BoundReport:
    return BoundReport(
        name=name,
        value=_finite_sum(name, terms),
        terms=tuple(terms),
        delta=delta,
        certified=certified,
        inputs=inputs,
        metadata=tuple(metadata),
    )


def _check_delta(delta: float) -> None:
    """Every calculator checks delta first: its terms divide by it."""
    if not 0 < delta < 1:
        raise InvalidParameterError("delta must lie in (0, 1)")


def _check_nonneg(**kwargs) -> None:
    for key, value in kwargs.items():
        if value < 0:
            raise InvalidParameterError(f"{key} must be >= 0")


# ---------------------------------------------------------------------------
# Calculators
# ---------------------------------------------------------------------------


def uniform_restricted_bound(
    emp_err: float, rad_Ht, rho: float, m: int, delta: float
) -> BoundReport:
    """emp_err + 2 rho rad + 3 sqrt(ln(2/delta) / 2m): the uniform bound over
    a sensitivity-restricted class."""
    _check_delta(delta)
    err, err_certified = _constituent(emp_err)
    rad, rad_certified = _constituent(rad_Ht)
    _check_nonneg(emp_err=err, rad_Ht=rad, rho=rho)
    terms = [
        ("empirical_error", err),
        ("complexity", 2.0 * (rho * rad)),
        ("confidence", hoeffding_term(3.0, 2.0 / delta, m)),
    ]
    inputs = {"emp_err": emp_err, "rad": rad, "rho": rho, "m": m, "delta": delta}
    return _report(
        "uniform_restricted", terms, delta, inputs, certified=err_certified and rad_certified
    )


def srm_uniform_bound(
    emp_err: float, rad_Ht_k, w_k: float, rho: float, m: int, delta: float
) -> BoundReport:
    """Uniform bound holding simultaneously over the threshold schedule."""
    _check_delta(delta)
    err, err_certified = _constituent(emp_err)
    rad, rad_certified = _constituent(rad_Ht_k)
    _check_nonneg(emp_err=err, rad=rad, rho=rho)
    if not 0 < w_k <= 1:
        raise InvalidParameterError("w_k must lie in (0, 1]")
    terms = [
        ("empirical_error", err),
        ("complexity", 2.0 * (rho * rad)),
        ("weight_confidence", hoeffding_term(3.0, 1.0 / w_k, m)),
        ("confidence", hoeffding_term(3.0, 4.0 / delta, m)),
    ]
    inputs = {"emp_err": emp_err, "rad": rad, "w_k": w_k, "rho": rho, "m": m, "delta": delta}
    return _report("srm_uniform", terms, delta, inputs, certified=err_certified and rad_certified)


def joint_bounds(
    err_min_approx: float,
    err_star: float,
    rad_HA,
    rho: float,
    t: float,
    m: int,
    delta: float,
) -> tuple[BoundReport, BoundReport, BoundReport]:
    """The three simultaneous guarantees for the threshold-constrained learner.

    Returns reports for: the approximate predictor against the best
    approximate error, the approximate predictor against the class best plus
    the deployment penalty rho t, and the full-precision predictor with 2 rho t.
    The caller supplies the error estimates err_min_approx = min of the two
    best approximate errors, and err_star = best in-class error.
    """
    _check_delta(delta)
    best_approx, best_approx_certified = _constituent(err_min_approx)
    best, best_certified = _constituent(err_star)
    rad, rad_certified = _constituent(rad_HA)
    certified = best_approx_certified and best_certified and rad_certified
    _check_nonneg(err_min_approx=best_approx, err_star=best, rad=rad, rho=rho, t=t)
    inputs = {
        "err_min_approx": err_min_approx,
        "err_star": err_star,
        "rad": rad,
        "rho": rho,
        "t": t,
        "m": m,
        "delta": delta,
    }
    shared = [("complexity", 2.0 * (rho * rad)),
              ("confidence", hoeffding_term(4.0, 9.0 / delta, m))]
    heads = {
        "joint_vs_best_approx": [("best_approx_error", best_approx)],
        "joint_approx_deployment": [("class_best_error", best), ("deployment_penalty", rho * t)],
        "joint_full_precision": [("class_best_error", best),
                                 ("sensitivity_penalty", 2.0 * (rho * t))],
    }
    return tuple(_report(name, head + shared, delta, inputs, certified=certified)
                 for name, head in heads.items())


def regularized_bound(
    err_star_t,
    rho: float,
    t,
    rad_HA,
    m: int,
    delta: float,
    epsilon_u: float | None = None,
) -> BoundReport:
    """Adaptive-threshold guarantee: inf over the supplied t grid of
    err_star(t) + 2 rho t, plus complexity and confidence.

    Passing ``epsilon_u`` selects the empirical-sensitivity variant, which
    pays (4 + rho) sqrt(ln(16/delta) / 2m) + rho epsilon_u instead of
    4 sqrt(ln(8/delta) / 2m).
    """
    _check_delta(delta)
    scalar = isinstance(err_star_t, (int, float, Constituent))
    pairs = [_constituent(v) for v in ([err_star_t] if scalar else err_star_t)]
    errs = [v for v, _ in pairs]
    ts = [float(v) for v in ([t] if isinstance(t, (int, float)) else t)]
    if len(errs) != len(ts) or not errs:
        raise InvalidParameterError("err_star_t and t must be non-empty and equal length")
    rad, rad_certified = _constituent(rad_HA)
    certified = rad_certified and all(c for _, c in pairs)
    _check_nonneg(rho=rho, rad=rad)
    _check_nonneg(**{f"err_star_t[{i}]": v for i, v in enumerate(errs)})
    _check_nonneg(**{f"t[{i}]": v for i, v in enumerate(ts)})
    tradeoffs = [e + 2.0 * (rho * v) for e, v in zip(errs, ts)]
    best = min(range(len(tradeoffs)), key=tradeoffs.__getitem__)
    inputs = {
        "err_star_t": errs,
        "t": ts,
        "rho": rho,
        "rad": rad,
        "m": m,
        "delta": delta,
        "epsilon_u": epsilon_u,
    }
    terms = [
        ("adaptive_tradeoff", tradeoffs[best]),
        ("complexity", 2.0 * (rho * rad)),
    ]
    if epsilon_u is None:
        name = "regularized_adaptive"
        terms.append(("confidence", hoeffding_term(4.0, 8.0 / delta, m)))
    else:
        _check_nonneg(epsilon_u=epsilon_u)
        name = "regularized_adaptive_empirical"
        terms.append(("confidence", hoeffding_term(4.0 + rho, 16.0 / delta, m)))
        terms.append(("estimation_slack", rho * epsilon_u))
    return _report(
        name, terms, delta, inputs, certified=certified, metadata=[("argmin_t", ts[best])]
    )


def lambda_equivalence_bound(
    rho: float,
    rad_HA,
    m: int,
    delta: float,
    lam: float,
    epsilon_u: float | None = None,
) -> BoundReport:
    """Error gap between the lambda-regularised and threshold-constrained
    learners: 4 rho rad + 6 sqrt(ln(8/delta) / 2m) (+ 2 lambda epsilon_u for
    the empirical-sensitivity variant)."""
    _check_delta(delta)
    rad, certified = _constituent(rad_HA)
    _check_nonneg(rho=rho, rad=rad, lam=lam)
    terms = [
        ("complexity", 4.0 * (rho * rad)),
        ("confidence", hoeffding_term(6.0, 8.0 / delta, m)),
    ]
    name = "analytic_lambda_equivalence"
    if epsilon_u is not None:
        _check_nonneg(epsilon_u=epsilon_u)
        terms.append(("estimation_slack", 2.0 * (lam * epsilon_u)))
        name = "lambda_equivalence"
    inputs = {"rho": rho, "rad": rad, "m": m, "delta": delta, "lam": lam, "epsilon_u": epsilon_u}
    return _report(name, terms, delta, inputs, certified=certified)


def stochastic_bound(
    exp_emp_err,
    exp_sensitivity,
    exp_rad,
    rho: float,
    m: int,
    delta: float,
) -> BoundReport:
    """Expected-operator uniform bound: the data-augmentation style sum
    E emp_err + rho E sens + 2 rho E rad + sqrt(ln(1/delta) / 2m).

    A singleton operator family reduces the expectations to their per-draw
    values, so the first three terms then match the deterministic form.
    """
    _check_delta(delta)
    err, cert_a = _constituent(exp_emp_err)
    sens, cert_b = _constituent(exp_sensitivity)
    rad, cert_c = _constituent(exp_rad)
    _check_nonneg(exp_emp_err=err, exp_sensitivity=sens, exp_rad=rad, rho=rho)
    terms = [
        ("expected_empirical_error", err),
        ("expected_sensitivity", rho * sens),
        ("expected_complexity", 2.0 * (rho * rad)),
        ("confidence", hoeffding_term(1.0, 1.0 / delta, m)),
    ]
    inputs = {"err": err, "sens": sens, "rad": rad, "rho": rho, "m": m, "delta": delta}
    return _report(
        "stochastic_expected", terms, delta, inputs, certified=cert_a and cert_b and cert_c
    )


def srm_selection_bound(
    err_star_k,
    rad_Ht_k,
    w_k,
    rho: float,
    m: int,
    delta: float,
) -> BoundReport:
    """Guarantee of the threshold-adaptive SRM learner: the infimum over the
    schedule of err_star(k) + 2 rho rad_k + 3 sqrt(ln(1/w_k) / 2m), plus the
    outer 4 sqrt(ln(6/delta) / 2m) confidence term.  The argmin index is
    recorded in metadata (1-based)."""
    _check_delta(delta)
    errs = [float(v) for v in err_star_k]
    rads = [_constituent(r) for r in rad_Ht_k]
    ws = [float(v) for v in w_k]
    if not errs or not (len(errs) == len(rads) == len(ws)):
        raise InvalidParameterError("per-threshold inputs must be non-empty and equal length")
    if any(not 0 < w <= 1 for w in ws):
        raise InvalidParameterError("weights must lie in (0, 1]")
    for e, (r, _) in zip(errs, rads):
        _check_nonneg(err_star_k=e, rad_Ht_k=r)
    _check_nonneg(rho=rho)
    inner = [
        e + 2.0 * (rho * r) + hoeffding_term(3.0, 1.0 / w, m)
        for e, (r, _), w in zip(errs, rads, ws)
    ]
    best = min(range(len(inner)), key=inner.__getitem__)
    certified = rads[best][1]
    terms = [
        ("class_best_error", errs[best]),
        ("complexity", 2.0 * (rho * rads[best][0])),
        ("weight_confidence", hoeffding_term(3.0, 1.0 / ws[best], m)),
        ("outer_confidence", hoeffding_term(4.0, 6.0 / delta, m)),
    ]
    inputs = {
        "err_star_k": errs,
        "rad_k": [r for r, _ in rads],
        "w_k": ws,
        "rho": rho,
        "m": m,
        "delta": delta,
    }
    return _report(
        "srm_selection",
        terms,
        delta,
        inputs,
        certified=certified,
        metadata=[("argmin_k", float(best + 1))],
    )


def sensitivity_deviation_bound(
    rad_of_sensitivity_class, C: float, m: int, delta: float
) -> BoundReport:
    """Uniform bound 2 R + 3 C sqrt(ln(2/delta) / (2m)) on |true - empirical|
    sensitivity over the class (Lemma 1)."""
    _check_delta(delta)
    rad, certified = _constituent(rad_of_sensitivity_class)
    _check_nonneg(rad=rad)
    if C <= 0:
        raise InvalidParameterError("C must be positive")
    terms = [
        ("rademacher_term", 2.0 * rad),
        ("confidence_term", hoeffding_term(3.0 * C, 2.0 / delta, m)),
    ]
    inputs = {"rad": rad, "C": C, "m": m, "delta": delta}
    return _report("sensitivity_deviation", terms, delta, inputs, certified=certified)


def fast_rate_deviation_bound(rad, t: float, C: float, m: int, delta: float) -> BoundReport:
    """Three-term bound 6 R + t sqrt(2 ln(1/delta) / m) + 6 C ln(1/delta) / m.

    ``t`` must uniformly bound the 2-sensitivity over the class; the variance
    of each sensitivity gap is then at most t^2, which buys the fast 1/m tail.
    """
    _check_delta(delta)
    rad, certified = _constituent(rad)
    _check_nonneg(rad=rad, t=t)
    if C <= 0:
        raise InvalidParameterError("C must be positive")
    if m < 1:
        raise InvalidParameterError("m must be >= 1")
    terms = [
        ("rademacher_term", 6.0 * rad),
        ("variance_term", t * math.sqrt(2.0 * math.log(1.0 / delta) / m)),
        ("fast_rate_term", 6.0 * C * math.log(1.0 / delta) / m),
    ]
    inputs = {"rad": rad, "t": t, "C": C, "m": m, "delta": delta}
    return _report("fast_rate_deviation", terms, delta, inputs, certified=certified)
