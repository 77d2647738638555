"""Rademacher oracles, closed forms, and certified geometry bounds."""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from approx_sense import (
    EnumerationCapError,
    GeometryModel,
    InvalidParameterError,
    RadEstimate,
    SensitivityPointSet,
    UniformQuantizer,
    UnlabelledSample,
    cluster_bound,
    crude_bounds,
    crude_decomposition_bound,
    ellipse_rademacher,
    exact_rademacher_pointset,
    exact_rademacher_rows,
    exact_rademacher_support,
    kernel_sensitivity_class_bound,
    linear_hypothesis,
    massart_bound,
    mc_rademacher_pointset,
    mc_rademacher_rows,
    operator_norm_lower_estimate,
    positive_orthant_ball_sup,
    rotated_union_bound,
    sensitivity_pointset,
    union_ellipse_bound,
)
from approx_sense.radgeom import _rotated_component_norm, dual_norm


def brute_force_rademacher(rows: np.ndarray) -> float:
    """Independent oracle: loop over every sign pattern in python."""
    rows = np.atleast_2d(rows)
    m = rows.shape[1]
    total = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=m):
        total += max(float(np.dot(signs, row)) for row in rows)
    return total / 2**m / m


def reference_sign_block(start: int, stop: int, m: int) -> np.ndarray:
    idx = np.arange(start, stop, dtype=np.int64)[:, None]
    bits = (idx >> np.arange(m, dtype=np.int64)[None, :]) & 1
    return bits.astype(float) * 2.0 - 1.0


def reference_exact_rows(rows: np.ndarray) -> float:
    """The full chunk loop: every 2^14-row sign block built afresh and
    multiplied out, partial sums accumulated in chunk order."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    m = rows.shape[1]
    total = 1 << m
    chunk = min(total, 1 << 14)
    partial_sums = []
    for start in range(0, total, chunk):
        sigma = reference_sign_block(start, min(start + chunk, total), m)
        partial_sums.append(float((sigma @ rows.T).max(axis=1).sum()))
    return math.fsum(partial_sums) / total / m


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# point sets
# ---------------------------------------------------------------------------


def test_sensitivity_pointset_zero_on_grid():
    op = UniformQuantizer(step=0.5, clamp=1.0)
    hyps = [linear_hypothesis([0.5, -1.0]), linear_hypothesis([0.0, 0.5])]
    sample = UnlabelledSample(inputs=np.random.default_rng(0).normal(size=(6, 2)))
    ps = sensitivity_pointset(hyps, op, sample)
    assert np.all(ps.points == 0)


def test_sensitivity_pointset_single_row():
    op = UniformQuantizer(step=0.5, clamp=1.0)
    ps = sensitivity_pointset(
        [linear_hypothesis([0.6])], op, UnlabelledSample(inputs=[[1.0], [-2.0]])
    )
    np.testing.assert_allclose(ps.points, [[0.1, 0.2]], atol=1e-15)


def test_sensitivity_pointset_row_permutation():
    op = UniformQuantizer(step=0.5, clamp=1.0)
    sample = UnlabelledSample(inputs=np.random.default_rng(1).normal(size=(5, 2)))
    h1 = linear_hypothesis([0.6, 0.1])
    h2 = linear_hypothesis([-0.3, 0.8])
    a = sensitivity_pointset([h1, h2], op, sample).points
    b = sensitivity_pointset([h2, h1], op, sample).points
    assert np.array_equal(a, b[::-1])


def test_sensitivity_pointset_empty_list():
    with pytest.raises(InvalidParameterError):
        sensitivity_pointset([], UniformQuantizer(step=0.5, clamp=1.0), UnlabelledSample([[1.0]]))


def test_pointset_rejects_negative_entries():
    with pytest.raises(InvalidParameterError):
        SensitivityPointSet(points=[[0.1, -0.2]])


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------


def test_exact_zero_matrix():
    assert exact_rademacher_pointset(SensitivityPointSet(points=np.zeros((3, 4)))).value == 0.0


def test_exact_single_row_sign_average():
    # per the sign-average definition a lone row has zero complexity; its
    # reflected pair realises the absolute-value identity a E|sum sigma| / m
    assert exact_rademacher_rows(np.array([[1.0, 1.0]])) == 0.0
    assert brute_force_rademacher(np.array([[1.0, 1.0]])) == 0.0
    reflected = np.array([[1.0, 1.0], [-1.0, -1.0]])
    assert exact_rademacher_rows(reflected) == 0.5
    assert brute_force_rademacher(reflected) == 0.5


def test_exact_duplicated_rows_unchanged():
    rng = np.random.default_rng(2)
    rows = rng.uniform(0, 1, size=(4, 6))
    assert exact_rademacher_rows(rows) == exact_rademacher_rows(np.vstack([rows, rows]))


def test_exact_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(25):
        rows = rng.uniform(0, 1, size=(rng.integers(1, 6), rng.integers(2, 7)))
        assert exact_rademacher_rows(rows) == pytest.approx(
            brute_force_rademacher(rows), rel=1e-12
        )


def test_exact_cap_raises():
    ps = SensitivityPointSet(points=np.ones((1, 23)))
    with pytest.raises(EnumerationCapError, match="Monte Carlo"):
        exact_rademacher_pointset(ps)
    with pytest.raises(EnumerationCapError, match="Monte Carlo"):
        exact_rademacher_support(lambda sig: np.zeros(len(sig)), 23)
    with pytest.raises(EnumerationCapError):
        RadEstimate(value=0.0, method="exact_enumeration", m=23)


@pytest.mark.parametrize("m", [0, -1])
def test_exact_support_rejects_m_below_one(m):
    with pytest.raises(InvalidParameterError, match="m >= 1"):
        exact_rademacher_support(lambda sig: np.zeros(len(sig)), m)


def hex_cases() -> dict[str, np.ndarray]:
    """Row sets for the bit-for-bit comparison with the full chunk loop."""
    rng = np.random.default_rng(11)
    cases = {}
    # m = 11: one 2^11-row slice is the whole chunk; m = 12, 13: several slices
    for m in (1, 2, 3, 11, 12, 13, 14, 15, 16, 18, 20, 22):
        n = 3 if m == 22 else 12
        cases[f"m{m}_magnitudes"] = rng.uniform(0, 1, (n, m)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
        if m <= 20:
            cases[f"m{m}_one_row"] = rng.uniform(0, 1, (1, m))
        if m <= 18:  # m = 20 and 22 are slow enough to keep to fewer sets
            cases[f"m{m}_repeated"] = np.repeat(rng.uniform(0, 1, (3, m)), 2, axis=0)
            cases[f"m{m}_zeros"] = np.zeros((4, m))
    cases["m16_200_rows"] = rng.uniform(0, 1, (200, 16)) * 10.0 ** rng.uniform(-3, 3, (200, 1))
    # the oracles workload's seed-2 m = 18 input
    cases["oracles_seed2_m18"] = np.random.default_rng(
        np.random.SeedSequence(2, spawn_key=(3,))
    ).uniform(0, 1, (50, 18))
    # not C-contiguous: the value must be that of the C-contiguous copy
    cases["m16_transposed"] = np.random.default_rng(2).uniform(-1, 1, (16, 2)).T
    cases["m15_column_strided"] = rng.uniform(-1, 1, (12, 30))[:, ::2]
    return cases


def hex_pairs() -> dict[str, list[str]]:
    return {
        name: [exact_rademacher_rows(rows).hex(),
               reference_exact_rows(np.ascontiguousarray(rows)).hex()]
        for name, rows in hex_cases().items()
    }


def test_exact_enumeration_matches_reference_hex():
    # the mirrored chunks rely on BLAS negating exactly, so compare with
    # the full loop in fresh interpreters at one and at two BLAS threads
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")])
    script = "import json, test_radgeom; print(json.dumps(test_radgeom.hex_pairs()))"
    runs = {
        threads: subprocess.Popen(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            stdout=subprocess.PIPE,
            text=True,
        )
        for threads in ("1", "2")
    }
    for threads, run in runs.items():
        out, _ = run.communicate(timeout=600)
        assert run.returncode == 0, f"OPENBLAS_NUM_THREADS={threads}"
        pairs = json.loads(out)
        assert len(pairs) == len(hex_cases())
        assert {name: new for name, (new, _) in pairs.items()} == {
            name: ref for name, (_, ref) in pairs.items()
        }, f"OPENBLAS_NUM_THREADS={threads}"


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_oracles_reject_empty_row_sets(shape):
    rows = np.zeros(shape)
    for oracle in (exact_rademacher_rows, lambda r: mc_rademacher_rows(r, 100, seed=1),
                   massart_bound):
        with pytest.raises(InvalidParameterError, match="non-empty"):
            oracle(rows)


def test_estimate_rejects_non_finite():
    with pytest.raises(InvalidParameterError, match="not finite"):
        RadEstimate(value=math.nan, method="exact_enumeration", m=3)
    with pytest.raises(InvalidParameterError, match="not finite"):
        RadEstimate(value=0.5, method="monte_carlo", m=3, standard_error=math.inf)


def reference_support(support_fn, m: int) -> float:
    """The per-chunk loop exact_rademacher_support ran on fresh sign blocks."""
    total = 1 << m
    vals = []
    for start in range(0, total, 1 << 14):
        sigma = reference_sign_block(start, min(start + (1 << 14), total), m)
        vals.append(float(np.sum(support_fn(sigma))))
    return math.fsum(vals) / total / m


@pytest.mark.parametrize("shape", ["ellipse_exact", "union_exact", "crude_sandwich"])
def test_support_enumeration_matches_reference(shape):
    # the support shapes of the exactness suites
    rng = np.random.default_rng(12)
    for m in (2, 7, 12, 15):
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        mus = rng.uniform(0.1, 3.0, size=(int(rng.integers(1, 6)), m))
        if shape == "ellipse_exact":
            def support(sig, mu=mus[0], p=p):
                return dual_norm(sig * mu, p)
        elif shape == "union_exact":
            def support(sig, mus=mus, p=p):
                return np.max(np.stack([dual_norm(sig * mu, p) for mu in mus]), axis=0)
        else:
            def support(sig, full=float(rng.uniform(0.2, 2.0)) * m ** (1.0 / p), p=p):
                return positive_orthant_ball_sup(sig, full, p)
        got = exact_rademacher_support(support, m)
        assert got == reference_support(support, m), (shape, m, p)


# ---------------------------------------------------------------------------
# Monte Carlo oracle
# ---------------------------------------------------------------------------


def test_mc_zero_matrix():
    est = mc_rademacher_pointset(SensitivityPointSet(points=np.zeros((2, 5))), 100, 1)
    assert est.value == 0.0 and est.standard_error == 0.0


def test_mc_same_seed_identical():
    ps = SensitivityPointSet(points=np.random.default_rng(4).uniform(0, 1, size=(5, 8)))
    assert mc_rademacher_pointset(ps, 500, 7) == mc_rademacher_pointset(ps, 500, 7)


def test_mc_agrees_with_exact():
    # 50 random small instances, 4 standard errors
    rng = np.random.default_rng(5)
    for i in range(50):
        rows = rng.uniform(0, 1, size=(rng.integers(1, 8), rng.integers(2, 10)))
        exact = exact_rademacher_rows(rows)
        value, se = mc_rademacher_rows(rows, 4000, seed=100 + i)
        assert abs(value - exact) <= 4.0 * max(se, 1e-12)


def test_mc_value_is_that_of_the_c_contiguous_copy():
    # transposed sets shaped like the coverage suites' gaps.T, at seeds where
    # a multiplication of the transposed view once rounded differently
    cases = {}
    for seed in (25, 29, 126):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(20, 120), rng.integers(2, 60)
        cases[seed] = (np.abs(rng.normal(size=(m, n))) * 10.0 ** rng.uniform(-3, 3)).T
    rng = np.random.default_rng(6)
    cases[1] = rng.uniform(-1, 1, (12, 30))[:, ::2]
    cases[2] = rng.uniform(-1, 1, (40, 16))[::3]
    for seed, rows in cases.items():
        assert not rows.flags.c_contiguous
        copy = np.ascontiguousarray(rows)
        assert mc_rademacher_rows(rows, 800, seed) == mc_rademacher_rows(copy, 800, seed)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_ellipse_closed_form_examples():
    assert ellipse_rademacher([3.0, 4.0], 2, 2).value == pytest.approx(2.5, rel=1e-15)
    assert ellipse_rademacher([1.0, 1.0, 1.0, 1.0], 2, 4).value == pytest.approx(0.5, rel=1e-15)
    assert ellipse_rademacher([3.0, 4.0], 1, 2).value == pytest.approx(2.0, rel=1e-15)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_dual_norm_reduces_over_last_axis(p):
    rows = np.random.default_rng(3).normal(size=(6, 4))
    each = [dual_norm(row, p) for row in rows]
    assert all(type(v) is float for v in each)
    assert np.array_equal(dual_norm(rows, p), np.array(each))
    assert dual_norm(rows[None], p).shape == (1, 6)


def test_dual_norm_values():
    assert dual_norm([3.0, -4.0], 1.0) == 4.0
    assert dual_norm([3.0, -4.0], 2.0) == 5.0


def test_ellipse_rejects_nonpositive_mu():
    with pytest.raises(InvalidParameterError):
        ellipse_rademacher([1.0, 0.0], 2, 2)


def test_union_reduces_to_single_ellipse():
    mu = np.array([0.7, 1.3, 2.1])
    assert union_ellipse_bound([mu], 1.5, 3).value == ellipse_rademacher(mu, 1.5, 3).value


def test_union_arithmetic_and_dominated_member():
    vals = union_ellipse_bound([[3.0, 4.0], [5.0, 1.0]], 2, 2)
    assert vals.value == pytest.approx(math.sqrt(26.0) / 2.0, rel=1e-15)
    with_dominated = union_ellipse_bound([[3.0, 4.0], [5.0, 1.0], [0.1, 0.1]], 2, 2)
    assert with_dominated.value == vals.value


def test_union_empty_rejected():
    with pytest.raises(InvalidParameterError):
        union_ellipse_bound([], 2, 2)


def test_monotone_in_semi_axes():
    rng = np.random.default_rng(6)
    for _ in range(30):
        m = int(rng.integers(2, 6))
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        mu = rng.uniform(0.2, 2.0, size=m)
        bigger = mu.copy()
        k = rng.integers(m)
        bigger[k] += rng.uniform(0.1, 1.0)
        assert ellipse_rademacher(bigger, p, m).value >= ellipse_rademacher(mu, p, m).value
        assert (
            union_ellipse_bound([bigger, mu], p, m).value
            >= union_ellipse_bound([mu, mu], p, m).value
        )
        V = np.eye(m)
        c = rng.uniform(0, 1, size=m)
        assert (
            cluster_bound([(c, V, bigger)], p, m).value
            >= cluster_bound([(c, V, mu)], p, m).value
        )


# ---------------------------------------------------------------------------
# rotated unions
# ---------------------------------------------------------------------------


def test_rotated_identity_reduces_to_union():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = int(rng.integers(2, 6))
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        mus = [rng.uniform(0.2, 2.0, size=m) for _ in range(rng.integers(1, 4))]
        rotated = rotated_union_bound([(np.eye(m), mu) for mu in mus], p, m)
        assert rotated.value == union_ellipse_bound(mus, p, m).value
        assert rotated.method == "closed_form"


def test_rotated_p1_hand_case():
    # 45-degree rotation in the plane: both column 1-norms are sqrt(2)
    est = rotated_union_bound([(rotation(math.pi / 4), np.array([2.0, 1.0]))], 1, 2)
    assert est.value == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert est.method == "closed_form"


def test_rotated_general_p_is_certified():
    est = rotated_union_bound([(rotation(0.3), np.array([1.0, 2.0]))], 2, 2)
    assert est.method == "certified_upper"


def test_rotated_rejects_non_orthogonal():
    with pytest.raises(InvalidParameterError):
        rotated_union_bound([(np.array([[1.0, 0.2], [0.0, 1.0]]), np.array([1.0, 1.0]))], 2, 2)


def test_certified_dominates_numeric_operator_norm():
    # the diagnostic lower estimate (exact for these sizes) never exceeds the
    # certified Hoelder value, and matches it in both special cases
    rng = np.random.default_rng(8)
    for i in range(50):
        m = int(rng.integers(2, 6))
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        mu = rng.uniform(0.2, 2.0, size=m)
        V, _ = np.linalg.qr(rng.normal(size=(m, m)))
        certified, exact_flag = _rotated_component_norm(V, mu, p, m)
        numeric = operator_norm_lower_estimate(V, mu, p, seed=i)
        assert numeric <= certified + 1e-9
        if exact_flag:
            assert numeric == pytest.approx(certified, rel=1e-9)
    # identity rotation: exact for every p
    mu = np.array([1.5, 0.7, 2.2])
    assert operator_norm_lower_estimate(np.eye(3), mu, 2.0) == pytest.approx(
        dual_norm(mu, 2.0), rel=1e-12
    )


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("m", [17, 18])
def test_operator_norm_greedy_estimate_is_a_lower_bound(m, p):
    # above m = 16 the estimate is greedy sign flipping: it may miss the
    # maximum but never exceeds it, nor the certified value.  The maximum is
    # taken over one of each +-sigma pair; the estimate scores by a
    # matrix-vector product, the maximum by a GEMM, and the two may round
    # apart in the last bits
    rng = np.random.default_rng(14 + m)
    mu = rng.uniform(0.2, 2.0, size=m)
    V, _ = np.linalg.qr(rng.normal(size=(m, m)))
    M = V * mu[None, :]
    vals = np.abs(reference_sign_block(0, 1 << (m - 1), m) @ M)
    full = vals.max() if p == 1.0 else float(np.sqrt((vals**2).sum(axis=1).max()))
    estimate = operator_norm_lower_estimate(V, mu, p, seed=m)
    assert 0.0 < estimate <= full * (1 + 1e-12)
    assert estimate <= _rotated_component_norm(V, mu, p, m)[0] + 1e-9


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_operator_norm_half_enumeration_equals_full(p):
    # the score is even in sigma, so half the sign patterns give the same max
    rng = np.random.default_rng(13)
    for m in (1, 2, 3, 8, 14, 15, 16):
        mu = rng.uniform(0.2, 2.0, size=m)
        V, _ = np.linalg.qr(rng.normal(size=(m, m)))
        M = V * mu[None, :]
        vals = np.abs(reference_sign_block(0, 1 << m, m) @ M)
        q = math.inf if p == 1.0 else p / (p - 1.0)
        full = vals.max() if math.isinf(q) else (vals**q).sum(axis=1).max() ** (1.0 / q)
        assert operator_norm_lower_estimate(V, mu, p) == float(full), m


# ---------------------------------------------------------------------------
# clusters
# ---------------------------------------------------------------------------


def test_cluster_single_centered_reduces_to_ellipse():
    mu = np.array([0.9, 1.4])
    est = cluster_bound([(np.zeros(2), np.eye(2), mu)], 2, 2)
    assert est.value == ellipse_rademacher(mu, 2, 2).value


def test_cluster_arithmetic_example():
    comps = [
        (np.zeros(2), np.eye(2), np.array([1.0, 1.0])),
        (np.array([1.0, 1.0]), np.eye(2), np.array([1.0, 1.0])),
    ]
    expected = math.sqrt(2.0) / 2.0 + math.sqrt(2.0) * math.sqrt(2.0 * math.log(2.0)) / 2.0
    assert cluster_bound(comps, 2, 2).value == pytest.approx(expected, rel=1e-12)


def test_cluster_translation_changes_only_displacement_term():
    rng = np.random.default_rng(9)
    mu1, mu2 = rng.uniform(0.5, 1.5, size=(2, 3))
    base = [(np.zeros(3), np.eye(3), mu1), (np.ones(3), np.eye(3), mu2)]
    shift = np.full(3, 2.0)
    shifted = [(c + shift, V, mu) for c, V, mu in base]
    union_term = rotated_union_bound([(V, mu) for _, V, mu in base], 2, 3).value
    a = cluster_bound(base, 2, 3).value - union_term
    b = cluster_bound(shifted, 2, 3).value - union_term
    factor = math.sqrt(2.0 * math.log(2.0)) / 3.0
    assert a == pytest.approx(math.sqrt(3.0) * factor, rel=1e-12)
    assert b == pytest.approx(np.linalg.norm(np.ones(3) + shift) * factor, rel=1e-12)


# ---------------------------------------------------------------------------
# crude sandwich and support functions
# ---------------------------------------------------------------------------


def test_crude_bounds_values():
    lower, upper = crude_bounds(1.0, 2.0)
    assert lower == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), rel=1e-15)
    assert upper == 1.0
    assert crude_bounds(1.0, 1.0) == (0.25, 1.0)
    assert crude_bounds(0.0, 3.0) == (0.0, 0.0)


def test_positive_orthant_support_values():
    assert positive_orthant_ball_sup([1.0, -1.0], 1.0, 2.0) == 1.0
    assert positive_orthant_ball_sup([-1.0, -1.0], 5.0, 2.0) == 0.0
    assert positive_orthant_ball_sup([1.0, 1.0], math.sqrt(2.0), 2.0) == pytest.approx(
        2.0, rel=1e-15
    )
    # a block of sign rows gives one value per row
    block = np.array([[1.0, -1.0], [-1.0, -1.0], [1.0, 1.0]])
    assert np.array_equal(
        positive_orthant_ball_sup(block, 3.0, 2.0),
        [positive_orthant_ball_sup(row, 3.0, 2.0) for row in block],
    )


def test_massart_values_and_dominance():
    assert massart_bound(np.array([[1.0, 2.0]])) == 0.0
    two = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert massart_bound(two) == pytest.approx(
        math.sqrt(2.0) * math.sqrt(2.0 * math.log(2.0)) / 2.0, rel=1e-12
    )
    rng = np.random.default_rng(10)
    for _ in range(100):
        rows = rng.uniform(-1, 1, size=(rng.integers(2, 9), rng.integers(2, 8)))
        assert exact_rademacher_rows(rows) <= massart_bound(rows) + 1e-12


# ---------------------------------------------------------------------------
# kernel weight-distortion bound
# ---------------------------------------------------------------------------


def test_kernel_bound_values():
    assert kernel_sensitivity_class_bound(0.0, [3.0, 1.0, 7.0]).value == 0.0
    est = kernel_sensitivity_class_bound(0.5, [1.0, 1.0])
    assert est.value == pytest.approx(0.5 * math.sqrt(2.0) / 2.0, rel=1e-15)
    assert est.method == "certified_upper" and est.note is not None


def test_kernel_bound_dominates_mc_quick():
    rng = np.random.default_rng(11)
    op = UniformQuantizer(step=0.4, clamp=1.0)
    for i in range(20):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(4, 20))
        inputs = rng.normal(size=(m, d))
        weights = rng.uniform(-1, 1, size=(60, d))
        rows = np.abs(inputs @ (weights - op.transform_weights(weights)).T).T
        value, se = mc_rademacher_rows(rows, 2000, seed=i)
        bound = kernel_sensitivity_class_bound(0.2 * math.sqrt(d), (inputs**2).sum(axis=1))
        assert value - 4.0 * se <= bound.value


def test_crude_decomposition_values_and_singleton_equality():
    assert crude_decomposition_bound(0.0, 0.0) == 0.0
    assert crude_decomposition_bound(0.2, 0.05) == 0.25
    # singleton approximating class mapping everything to zero, non-negative
    # prediction rows: the decomposition holds with equality
    rng = np.random.default_rng(12)
    inputs = np.abs(rng.normal(size=(6, 2)))
    weights = rng.uniform(0.0, 1.0, size=(8, 2))
    pred_rows = weights @ inputs.T
    gap_rows = np.abs(pred_rows - 0.0)
    rad_H = exact_rademacher_rows(pred_rows)
    rad_HA = exact_rademacher_rows(np.zeros((1, 6)))
    assert crude_decomposition_bound(rad_H, rad_HA) == pytest.approx(
        exact_rademacher_rows(gap_rows), rel=1e-12
    )


def test_crude_decomposition_dominates_matched_grids():
    rng = np.random.default_rng(13)
    op = UniformQuantizer(step=0.5, clamp=1.0)
    for _ in range(20):
        inputs = rng.normal(size=(6, 2))
        weights = rng.uniform(-1, 1, size=(10, 2))
        quantized = op.transform_weights(weights)
        pred = weights @ inputs.T
        pred_q = quantized @ inputs.T
        rad_sum = crude_decomposition_bound(
            exact_rademacher_rows(pred), exact_rademacher_rows(pred_q)
        )
        assert exact_rademacher_rows(np.abs(pred - pred_q)) <= rad_sum + 1e-12


# ---------------------------------------------------------------------------
# geometry model JSON
# ---------------------------------------------------------------------------


def test_geometry_round_trip_all_variants():
    models = [
        GeometryModel(variant="pball", p=2.0, radius=1.5),
        GeometryModel(variant="ellipse", p=2.0, mu=np.array([3.0, 4.0])),
        GeometryModel(variant="axis_union", p=1.0, mus=(np.array([1.0, 2.0]), np.array([2.0, 1.0]))),
        GeometryModel(
            variant="rotated_union",
            p=1.0,
            components=((rotation(math.pi / 4), np.array([2.0, 1.0])),),
        ),
        GeometryModel(
            variant="clustered",
            p=2.0,
            components=((np.array([1.0, 1.0]), np.eye(2), np.array([1.0, 1.0])),),
        ),
    ]
    for model in models:
        back = GeometryModel.from_dict(model.to_dict())
        assert back.to_dict() == model.to_dict()
        if model.variant != "pball":
            assert back.rademacher().value == model.rademacher().value


def test_geometry_rademacher_dispatch():
    ellipse = GeometryModel(variant="ellipse", p=2.0, mu=np.array([3.0, 4.0]))
    assert ellipse.rademacher().value == 2.5
    ball = GeometryModel(variant="pball", p=2.0, radius=1.0)
    est = ball.rademacher()
    assert est.value == 1.0 and "lower bound" in est.note


def test_geometry_validation_errors():
    with pytest.raises(InvalidParameterError):
        GeometryModel.from_dict({"variant": "ellipse", "p": 0.5, "mu": [1.0]})
    with pytest.raises(InvalidParameterError):
        GeometryModel.from_dict({"variant": "ellipse", "p": 2.0, "mu": [1.0, -1.0]})
    with pytest.raises(InvalidParameterError):
        GeometryModel.from_dict(
            {
                "variant": "rotated_union",
                "p": 2.0,
                "components": [{"V": [[1.0, 0.2], [0.0, 1.0]], "mu": [1.0, 1.0]}],
            }
        )
    with pytest.raises(InvalidParameterError):
        GeometryModel.from_dict({"variant": "torus", "p": 2.0})


_COMPONENT = {"center": [0.1, 0.2], "V": [[1.0, 0.0], [0.0, 1.0]], "mu": [1.0, 2.0]}
MALFORMED_GEOMETRY = {
    # a missing or non-numeric field -> the field InvalidParameterError names
    "mu": {"variant": "ellipse", "p": 2.0},
    "mus": {"variant": "axis_union", "p": 2.0},
    "components": {"variant": "rotated_union", "p": 2.0},
    "radius": {"variant": "pball", "p": 2.0},
    "components/0/V": {"variant": "rotated_union", "p": 2.0, "components": [{"mu": [1.0, 2.0]}]},
    "components/0/mu": {"variant": "clustered", "p": 2.0,
                        "components": [{"center": [0.1, 0.2], "V": _COMPONENT["V"]}]},
    "components/1/center": {"variant": "clustered", "p": 2.0,
                            "components": [_COMPONENT, {"V": _COMPONENT["V"], "mu": [1.0, 2.0]}]},
    "p": {"variant": "ellipse", "p": "two", "mu": [3.0, 4.0]},
    "mus/1": {"variant": "axis_union", "p": 2.0, "mus": [[1.0, 2.0], ["a", 1.0]]},
}


@pytest.mark.parametrize("field", sorted(MALFORMED_GEOMETRY))
def test_geometry_from_dict_names_bad_field(field):
    with pytest.raises(InvalidParameterError) as info:
        GeometryModel.from_dict(MALFORMED_GEOMETRY[field])
    assert info.value.details["field"] == field
    assert repr(field) in info.value.message
