"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance and trial count is pinned here.
"""

from __future__ import annotations

import math
import time

import numpy as np

from approx_sense import (
    AnalyticSensitivity,
    EmpiricalSensitivity,
    LossSpec,
    SearchDomain,
    ThresholdSchedule,
    UniformQuantizer,
    analytic_sensitivity_upper,
    apply_operator,
    constrained_erm,
    empirical_error,
    empirical_sensitivity,
    generate,
    lambda_erm,
    lambda_grid_srm,
    linear_hypothesis,
    make_restricted_rad_estimator,
    srm_learner,
)
from approx_sense.core import Hypothesis, IdentityMap, derived_rng
from approx_sense.synthetic import IsotropicGaussian, SyntheticTask
from approx_sense.validation import (
    suite_cluster_dominance,
    suite_crude_sandwich,
    suite_ellipse_exact,
    suite_kernel_dominance,
    suite_lemma1,
    suite_prop2,
    suite_prop3,
    suite_prop4,
    suite_prop10,
    suite_stochastic_unbiased,
    suite_union_exact,
)

SEED = 2026


def _gate(number: int, name: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {number:2d} {name}: {detail} (runtime {elapsed:.1f}s < {budget:.0f}s)")
    assert ok, f"criterion {number} {name}: {detail}"
    assert elapsed < budget, f"criterion {number} {name} exceeded runtime budget ({elapsed:.1f}s)"


def test_criterion_01_ellipse_exact():
    start = time.perf_counter()
    report = suite_ellipse_exact(trials=100, seed=SEED)
    elapsed = time.perf_counter() - start
    _gate(
        1,
        "ellipse_exact",
        report.violations == 0,
        f"{report.trials} instances within 1e-9",
        elapsed,
        10.0,
    )


def test_criterion_02_union_exact():
    start = time.perf_counter()
    report = suite_union_exact(trials=100, seed=SEED)
    elapsed = time.perf_counter() - start
    _gate(
        2,
        "union_exact",
        report.violations == 0,
        f"{report.trials} instances within 1e-9",
        elapsed,
        20.0,
    )


def test_criterion_03_crude_sandwich():
    start = time.perf_counter()
    report = suite_crude_sandwich(trials=50, seed=SEED)
    # anchor: p = 2, m = 2, R = 1 has exact value (2 + 2 sqrt(2)) / 8
    from approx_sense import exact_rademacher_support, positive_orthant_ball_sup

    anchor = exact_rademacher_support(
        lambda sig: positive_orthant_ball_sup(sig, math.sqrt(2.0), 2.0), 2
    )
    anchor_ok = abs(anchor - (2.0 + 2.0 * math.sqrt(2.0)) / 8.0) <= 1e-12
    elapsed = time.perf_counter() - start
    _gate(
        3,
        "crude_sandwich",
        report.violations == 0 and anchor_ok,
        f"{report.trials} instances inside the sandwich, anchor {anchor:.6f}",
        elapsed,
        5.0,
    )


def test_criterion_04_cluster_dominance():
    start = time.perf_counter()
    report = suite_cluster_dominance(trials=200, seed=SEED)
    elapsed = time.perf_counter() - start
    _gate(
        4,
        "cluster_dominance",
        report.violations == 0,
        f"{report.trials} instances dominated, zero-center reduction exact",
        elapsed,
        30.0,
    )


def test_criterion_05_kernel_dominance():
    start = time.perf_counter()
    report = suite_kernel_dominance(trials=100, seed=SEED)
    elapsed = time.perf_counter() - start
    _gate(
        5,
        "kernel_dominance",
        report.violations == 0,
        f"{report.trials} datasets dominated at 4 MC standard errors",
        elapsed,
        60.0,
    )


def test_criterion_06_lemma1_coverage():
    start = time.perf_counter()
    report = suite_lemma1(trials=500, seed=SEED)
    elapsed = time.perf_counter() - start
    # hard floor 1 - 2 delta = 0.8; expected >= 0.9
    ok = report.coverage >= 0.8
    expected = report.coverage >= 0.9
    _gate(
        6,
        "lemma1",
        ok and expected,
        f"coverage {report.coverage:.4f} over {report.trials} trials",
        elapsed,
        120.0,
    )


def test_criterion_07_prop2_prop3_coverage():
    start = time.perf_counter()
    r2 = suite_prop2(trials=200, seed=SEED)
    r3 = suite_prop3(trials=200, seed=SEED)
    elapsed = time.perf_counter() - start
    _gate(
        7,
        "prop2/prop3",
        r2.coverage >= 0.9 and r3.coverage >= 0.9,
        f"coverage {r2.coverage:.4f} / {r3.coverage:.4f} over 200 trials each",
        elapsed,
        300.0,
    )


def test_criterion_08_prop4_equivalence():
    start = time.perf_counter()
    report = suite_prop4(trials=200, seed=SEED)
    elapsed = time.perf_counter() - start
    _gate(
        8,
        "prop4",
        report.coverage >= 0.95,
        f"coverage {report.coverage:.4f} over {report.trials} trials",
        elapsed,
        180.0,
    )


def test_criterion_09_prop10_dominance():
    start = time.perf_counter()
    report = suite_prop10(trials=300, seed=SEED)
    elapsed = time.perf_counter() - start
    _gate(
        9,
        "prop10",
        report.coverage >= 0.9,
        f"coverage {report.coverage:.4f} over {report.trials} trials",
        elapsed,
        120.0,
    )


def test_criterion_10_stochastic_unbiased():
    start = time.perf_counter()
    report = suite_stochastic_unbiased(seed=SEED)
    elapsed = time.perf_counter() - start
    stats = dict(report.stats)
    _gate(
        10,
        "stochastic_unbiased",
        report.violations == 0,
        f"mean gap {stats['mean_gap']:.5f} <= {stats['tolerance']:.5f}, reduction exact",
        elapsed,
        5.0,
    )


# ---------------------------------------------------------------------------
# criterion 11: every learner equals exhaustive minimisation of its objective
# ---------------------------------------------------------------------------


def _exhaustive(domain, objective, feasibility=None):
    best_w, best_v = None, math.inf
    for w in domain.candidate_matrix():
        if feasibility is not None and not feasibility(w):
            continue
        v = objective(w)
        if v < best_v:
            best_w, best_v = w, v
    return best_w


def _oracle_config(i: int):
    rng = derived_rng(SEED, 90, i)
    teacher = linear_hypothesis(rng.uniform(-0.9, 0.9, size=2))
    task = SyntheticTask(
        teacher=teacher,
        input_law=IsotropicGaussian(sd=float(rng.uniform(0.3, 0.8))),
        label_noise_sd=float(rng.uniform(0.0, 0.2)),
        seed=int(rng.integers(2**31)),
    )
    labelled = generate(task, 30, labelled=True)
    unlabelled = generate(task, 40, labelled=False)
    op = UniformQuantizer(step=float(rng.choice([0.4, 0.5, 2.0 / 3.0])), clamp=1.0)
    loss = LossSpec(
        kind=str(rng.choice(["clipped_absolute", "clipped_hinge", "clipped_squared"])),
        lipschitz=float(rng.choice([0.5, 1.0, 2.0])),
    )
    domain = SearchDomain(
        dim=2, halfwidth=1.0, mode="grid", points_per_axis=int(rng.choice([9, 11, 13]))
    )
    p = float(rng.choice([1.0, 2.0]))
    return rng, labelled, unlabelled, op, loss, domain, p


def test_criterion_11_learner_oracle_equality():
    start = time.perf_counter()
    fmap = IdentityMap(input_dim=2)
    mismatches = []
    for i in range(50):
        rng, labelled, unlabelled, op, loss, domain, p = _oracle_config(i)
        rho = loss.lipschitz

        def emp(w):
            return empirical_error(Hypothesis(weights=w, feature_map=fmap), labelled, loss)

        def emp_approx(w):
            h = Hypothesis(weights=w, feature_map=fmap)
            return empirical_error(apply_operator(op, h), labelled, loss)

        def dhat(w):
            return empirical_sensitivity(
                Hypothesis(weights=w, feature_map=fmap), op, unlabelled, p
            ).value

        kind = i % 6
        if kind == 0:
            min_d = min(dhat(w) for w in domain.candidate_matrix())
            t = max(float(rng.uniform(0.05, 0.5)), min_d * 1.2 + 1e-9)
            got = constrained_erm(labelled, unlabelled, op, t, p, loss, domain)
            expected = _exhaustive(domain, emp_approx, feasibility=lambda w: dhat(w) < t)
        elif kind == 1:
            lows = sorted(rng.uniform(0.05, 0.6, size=3))
            schedule = ThresholdSchedule(thresholds=tuple(lows))
            eps_u = float(rng.uniform(0.0, 0.05))
            estimator = make_restricted_rad_estimator(
                domain, labelled, unlabelled, op, p=p, n_sigma=256, seed=i
            )
            got = srm_learner(
                labelled, unlabelled, op, schedule, eps_u, estimator, loss, domain, p=p
            )
            m = labelled.m
            penalties = [
                2.0 * rho * estimator(t_k + eps_u).value
                + 3.0 * math.sqrt(math.log(1.0 / w_k) / (2.0 * m))
                for t_k, w_k in zip(schedule.thresholds, schedule.weights)
            ]

            def srm_objective(w):
                d = dhat(w)
                k = next(
                    (j for j, t_k in enumerate(schedule.thresholds) if d <= t_k + eps_u),
                    len(schedule) - 1,
                )
                return emp(w) + penalties[k]

            expected = _exhaustive(domain, srm_objective)
        elif kind == 2:
            got = lambda_erm(labelled, op, rho, EmpiricalSensitivity(unlabelled, p), loss, domain)
            expected = _exhaustive(domain, lambda w: emp_approx(w) + rho * dhat(w))
        elif kind == 3:
            lam = float(rng.uniform(0.0, 2.0))
            got = lambda_erm(labelled, op, lam, EmpiricalSensitivity(unlabelled, p), loss, domain)
            expected = _exhaustive(domain, lambda w: emp_approx(w) + lam * dhat(w))
        elif kind == 4:
            lam = float(rng.uniform(0.0, 2.0))
            budget = float(rng.uniform(0.5, 2.0))
            got = lambda_erm(labelled, op, lam, AnalyticSensitivity(budget), loss, domain)

            def overline_w(w):
                return analytic_sensitivity_upper(
                    Hypothesis(weights=w, feature_map=fmap), op, budget
                ).value

            expected = _exhaustive(domain, lambda w: emp_approx(w) + lam * overline_w(w))
        else:
            lambdas = [float(v) for v in sorted(rng.uniform(0.0, 1.5, size=3))]
            weights = [0.5, 0.25, 0.125]
            got = lambda_grid_srm(labelled, unlabelled, op, lambdas, weights, p, loss, domain)
            m = labelled.m
            best_score, expected = math.inf, None
            for lam, w_k in zip(lambdas, weights):
                cand = _exhaustive(domain, lambda w: emp_approx(w) + lam * dhat(w))
                score = emp_approx(cand) + 3.0 * math.sqrt(math.log(1.0 / w_k) / (2.0 * m))
                if score < best_score:
                    best_score, expected = score, cand
        if not np.array_equal(np.asarray(got.hypothesis.weights), expected):
            mismatches.append(i)
    elapsed = time.perf_counter() - start
    _gate(
        11,
        "learner_oracle_equality",
        not mismatches,
        f"50 configs exact-match exhaustive search (mismatches: {mismatches})",
        elapsed,
        120.0,
    )
