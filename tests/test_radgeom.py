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
    Cluster,
    Ellipse,
    EnumerationCapError,
    InvalidParameterError,
    RadEstimate,
    SensitivityPointSet,
    UniformQuantizer,
    UnlabelledSample,
    cluster_bound,
    crude_bounds,
    empirical_sensitivity,
    exact_rademacher_pointset,
    exact_rademacher_rows,
    exact_rademacher_support,
    kernel_sensitivity_class_bound,
    linear_hypothesis,
    mc_rademacher_pointset,
    mc_rademacher_rows,
    operator_norm_lower_estimate,
    positive_orthant_ball_sup,
    rotated_union_bound,
)
from approx_sense import _bind, cli
from approx_sense.dataio import read_matrix_csv
from approx_sense.radgeom import (
    _CHUNK_BITS,
    _SLICE_BITS,
    _mc_signs,
    _sign_chunks,
    conjugate_exponent,
    dual_norm,
)


def brute_force_rademacher(rows: np.ndarray) -> float:
    """Independent oracle: loop over every sign pattern in python."""
    rows = np.atleast_2d(rows)
    m = rows.shape[1]
    total = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=m):
        total += max(float(np.dot(signs, row)) for row in rows)
    return total / 2**m / m


def axis_union(mus, p: float) -> RadEstimate:
    """The closed form of an axis-aligned union of p-ellipses (one member: a
    single ellipse), as the package computes it: identity rotations, given
    as None."""
    return rotated_union_bound([Ellipse(mu) for mu in mus], p)


def clusters(*components) -> list:
    """Cluster values of (center, V, mu) triples."""
    return [Cluster(c, Ellipse(mu, V)) for c, V, mu in components]


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


def gap_pointset(weights, op, inputs) -> SensitivityPointSet:
    """One row per weight vector: its gap profile |<w - Q(w), x_k>| over the
    inputs, as the validation suites build their gap rows."""
    W = np.atleast_2d(np.asarray(weights, dtype=float))
    x = np.asarray(inputs, dtype=float)
    return SensitivityPointSet(points=np.abs(x @ (W - op.transform_weights(W)).T).T)


def test_sensitivity_pointset_zero_on_grid():
    op = UniformQuantizer(step=0.5, clamp=1.0)
    inputs = np.random.default_rng(0).normal(size=(6, 2))
    ps = gap_pointset([[0.5, -1.0], [0.0, 0.5]], op, inputs)
    assert ps.points.shape == (2, 6) and np.all(ps.points == 0)


def test_sensitivity_pointset_single_row():
    op = UniformQuantizer(step=0.5, clamp=1.0)
    ps = gap_pointset([0.6], op, [[1.0], [-2.0]])
    np.testing.assert_allclose(ps.points, [[0.1, 0.2]], atol=1e-15)


def test_sensitivity_pointset_empty_list():
    with pytest.raises(InvalidParameterError, match="non-empty"):
        gap_pointset(np.zeros((0, 2)), UniformQuantizer(step=0.5, clamp=1.0), [[1.0, 0.0]])


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


@pytest.mark.parametrize("half", [False, True])
@pytest.mark.parametrize("m, bits", [(m, _CHUNK_BITS) for m in (15, 16, 17)]
                         + [(m, _SLICE_BITS) for m in (12, 13, 14, 15, 16, 17)])
def test_sign_chunks_are_the_bits_of_their_pattern_indices(m, bits, half):
    # each chunk rewrites only the high columns whose bit changed since the
    # previous chunk, so check every chunk as it is yielded, in one buffer;
    # exact_rademacher_rows reads 2^11-row blocks, the other callers 2^14
    n_patterns = 1 << (m - 1 if half else m)
    start = 0
    for chunk in _sign_chunks(m, half=half, bits=bits):
        assert len(chunk) == min(n_patterns, 1 << bits)
        k = np.arange(start, start + len(chunk))[:, None]
        assert np.array_equal(chunk, ((k >> np.arange(m)) & 1) * 2.0 - 1.0)
        assert not chunk.flags.writeable
        start += len(chunk)
    assert start == n_patterns


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_oracles_reject_empty_row_sets(shape):
    rows = np.zeros(shape)
    for oracle in (exact_rademacher_rows, lambda r: mc_rademacher_rows(r, 100, seed=1)):
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


def integers_signs(n_sigma: int, m: int, seed: int) -> np.ndarray:
    """The sign draw as numpy's bounded-integer path makes it: the reference
    for the raw-word draw in _mc_signs."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(6,)))
    return rng.integers(0, 2, size=(n_sigma, m)).astype(float) * 2.0 - 1.0


# odd n_sigma * m leaves the last word's high half unused
@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (7, 7), (801, 99), (800, 100), (20000, 22)])
@pytest.mark.parametrize("seed", [0, 7, 61 * 100_003 + 4, 2**40 + 3])
def test_mc_signs_are_the_integers_stream(shape, seed):
    signs = _mc_signs(*shape, seed)
    expected = integers_signs(*shape, seed)
    assert signs.dtype == expected.dtype == np.float64
    assert signs.flags.c_contiguous
    assert np.array_equal(signs, expected)


def test_mc_pointset_value_pinned():
    # a change in how signs are drawn, numpy's included, moves this value
    points = read_matrix_csv(Path(__file__).parent / "fixtures" / "pointset.csv")
    est = mc_rademacher_pointset(SensitivityPointSet(points=points), 500, 7)
    assert est.value.hex() == "0x1.a0967215c455fp-4"


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
    assert axis_union([[3.0, 4.0]], 2).value == pytest.approx(2.5, rel=1e-15)
    assert axis_union([[1.0, 1.0, 1.0, 1.0]], 2).value == pytest.approx(0.5, rel=1e-15)
    assert axis_union([[3.0, 4.0]], 1).value == pytest.approx(2.0, rel=1e-15)
    assert axis_union([[3.0, 4.0]], 1).method == "closed_form"


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


# each call with one parameter set to ``value``, the rest valid
NON_FINITE_PARAMETER = {
    "conjugate_exponent p": lambda v: conjugate_exponent(v),
    "dual_norm p": lambda v: dual_norm([3.0, -4.0], v),
    "crude_bounds p": lambda v: crude_bounds(1.0, v),
    "crude_bounds R_p": lambda v: crude_bounds(v, 2.0),
    "positive_orthant_ball_sup radius": lambda v: positive_orthant_ball_sup([1.0, -1.0], v, 2.0),
    "positive_orthant_ball_sup p": lambda v: positive_orthant_ball_sup([1.0, -1.0], 1.0, v),
    "empirical_sensitivity p": lambda v: empirical_sensitivity(
        linear_hypothesis([0.3]), UniformQuantizer(step=0.5, clamp=1.0),
        UnlabelledSample(inputs=[[1.0]]), v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, 10**400], ids=["nan", "inf", "10**400"])
@pytest.mark.parametrize("name", sorted(NON_FINITE_PARAMETER))
def test_non_finite_parameter_fails_up_front(name, value):
    # NaN fails every comparison, so a `p < 1` check let it through to a nan
    # result; the check names the parameter before anything is computed
    with pytest.raises(InvalidParameterError, match=f"^{name.split()[1]} must be a finite number"):
        NON_FINITE_PARAMETER[name](value)


def test_ellipse_rejects_nonpositive_mu():
    with pytest.raises(InvalidParameterError, match="every semi-axis must be positive and finite"):
        axis_union([[1.0, 0.0]], 2)
    with pytest.raises(InvalidParameterError, match="mu must be a non-empty vector"):
        Ellipse([])


def test_union_reduces_to_single_ellipse():
    mu = np.array([0.7, 1.3, 2.1])
    assert axis_union([mu], 1.5).value == dual_norm(mu, 1.5) / 3
    assert axis_union([mu, mu], 1.5).value == axis_union([mu], 1.5).value


def test_union_arithmetic_and_dominated_member():
    vals = axis_union([[3.0, 4.0], [5.0, 1.0]], 2)
    assert vals.value == pytest.approx(math.sqrt(26.0) / 2.0, rel=1e-15)
    with_dominated = axis_union([[3.0, 4.0], [5.0, 1.0], [0.1, 0.1]], 2)
    assert with_dominated.value == vals.value


def test_union_empty_rejected():
    with pytest.raises(InvalidParameterError):
        axis_union([], 2)
    with pytest.raises(InvalidParameterError):  # members of different lengths
        axis_union([[1.0, 2.0], [1.0, 2.0, 3.0]], 2)


def test_monotone_in_semi_axes():
    rng = np.random.default_rng(6)
    for _ in range(30):
        m = int(rng.integers(2, 6))
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        mu = rng.uniform(0.2, 2.0, size=m)
        bigger = mu.copy()
        k = rng.integers(m)
        bigger[k] += rng.uniform(0.1, 1.0)
        assert axis_union([bigger], p).value >= axis_union([mu], p).value
        assert axis_union([bigger, mu], p).value >= axis_union([mu, mu], p).value
        V = np.eye(m)
        c = rng.uniform(0, 1, size=m)
        assert (
            cluster_bound(clusters((c, V, bigger)), p).value
            >= cluster_bound(clusters((c, V, mu)), p).value
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
        rotated = rotated_union_bound([Ellipse(mu, np.eye(m)) for mu in mus], p)
        # column 1-norms of I are exactly 1, so the value is the max member dual norm
        assert rotated.value == max(dual_norm(mu, p) for mu in mus) / m
        assert rotated.method == "closed_form"
        assert rotated == axis_union(mus, p)  # V = None is the same identity


def test_identity_members_cost_linear_in_m():
    # V = None never forms the m x m identity: at m = 10^6 a matrix would
    # need 8 TB, and a geometry file puts no cap on the length of mu
    _bind(vars(cli), "radgeom")  # as main does for rademacher
    m = 1_000_000
    mu = np.linspace(0.5, 2.0, m)
    est = cli._geometry({"variant": "ellipse", "p": 2, "mu": mu.tolist()})
    assert est == axis_union([mu], 2.0)
    assert est.value == dual_norm(mu, 2.0) / m and est.method == "closed_form"
    union = cli._geometry({"variant": "axis_union", "p": 1,
                           "mus": [mu.tolist(), (mu[::-1]).tolist()]})
    assert union.value == 2.0 / m


def test_rotated_p1_hand_case():
    # 45-degree rotation in the plane: both column 1-norms are sqrt(2)
    est = rotated_union_bound([Ellipse([2.0, 1.0], rotation(math.pi / 4))], 1)
    assert est.value == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert est.method == "closed_form"


def test_rotated_general_p_is_certified():
    est = rotated_union_bound([Ellipse([1.0, 2.0], rotation(0.3))], 2)
    assert est.method == "certified_upper"


def test_rotated_rejects_non_orthogonal():
    with pytest.raises(InvalidParameterError, match="not orthogonal within tolerance"):
        Ellipse([1.0, 1.0], np.array([[1.0, 0.2], [0.0, 1.0]]))
    with pytest.raises(InvalidParameterError, match=r"rotation must be 2x2, got \(3, 3\)"):
        Ellipse([1.0, 1.0], np.eye(3))


def test_bounds_reject_values_of_different_m():
    # each value is checked alone; a bound checks only that their m agree
    with pytest.raises(InvalidParameterError, match="mu has length 3, expected 2"):
        rotated_union_bound([Ellipse([1.0, 2.0]), Ellipse([1.0, 2.0, 3.0], np.eye(3))], 2)
    with pytest.raises(InvalidParameterError, match="mu has length 3, expected 2"):
        cluster_bound(clusters((np.zeros(2), None, [1.0, 2.0]),
                               (np.zeros(3), None, [1.0, 2.0, 3.0])), 2)


def test_values_are_read_only_copies():
    mu, V, c = np.array([1.0, 2.0]), rotation(0.3), np.array([0.5, 0.5])
    cluster = Cluster(c, Ellipse(mu, V))
    mu[0] = V[0, 0] = c[0] = 9.0  # the caller's arrays stay its own
    ellipse = cluster.ellipse
    assert ellipse.mu[0] == 1.0 and ellipse.V[0, 0] == math.cos(0.3) and cluster.center[0] == 0.5
    for a in (ellipse.mu, ellipse.V, cluster.center):
        assert not a.flags.writeable
    assert ellipse.m == 2 and not ellipse.identity
    assert np.array_equal(ellipse.column_l1, np.abs(rotation(0.3)).sum(axis=0))
    assert Ellipse(mu).column_l1 is None and Ellipse(mu).identity
    assert Ellipse(mu, np.eye(2)).identity


def test_certified_dominates_numeric_operator_norm():
    """operator_norm_lower_estimate is public without a caller in the
    package: it is the oracle for rotated_union_bound's certified
    over-estimate.  The lower estimate (exact for these sizes) never exceeds
    the certified Hoelder value, and matches it in both special cases."""
    rng = np.random.default_rng(8)
    for i in range(50):
        m = int(rng.integers(2, 6))
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        mu = rng.uniform(0.2, 2.0, size=m)
        V, _ = np.linalg.qr(rng.normal(size=(m, m)))
        certified, exact_flag = Ellipse(mu, V).operator_norm(p)
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
    assert estimate <= Ellipse(mu, V).operator_norm(p)[0] + 1e-9


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
    est = cluster_bound(clusters((np.zeros(2), np.eye(2), mu)), 2)
    assert est.value == axis_union([mu], 2).value == dual_norm(mu, 2) / 2


def test_cluster_arithmetic_example():
    comps = clusters(
        (np.zeros(2), np.eye(2), np.array([1.0, 1.0])),
        (np.array([1.0, 1.0]), np.eye(2), np.array([1.0, 1.0])),
    )
    expected = math.sqrt(2.0) / 2.0 + math.sqrt(2.0) * math.sqrt(2.0 * math.log(2.0)) / 2.0
    assert cluster_bound(comps, 2).value == pytest.approx(expected, rel=1e-12)


def test_cluster_rejects_ragged_centers():
    with pytest.raises(InvalidParameterError, match="length 2"):
        clusters((np.zeros(2), np.eye(2), np.ones(2)), (np.zeros(3), np.eye(2), np.ones(2)))


def test_cluster_translation_changes_only_displacement_term():
    rng = np.random.default_rng(9)
    mu1, mu2 = rng.uniform(0.5, 1.5, size=(2, 3))
    base = clusters((np.zeros(3), np.eye(3), mu1), (np.ones(3), np.eye(3), mu2))
    shift = np.full(3, 2.0)
    shifted = [Cluster(c.center + shift, c.ellipse) for c in base]
    union_term = rotated_union_bound([c.ellipse for c in base], 2).value
    a = cluster_bound(base, 2).value - union_term
    b = cluster_bound(shifted, 2).value - union_term
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
    # Massart's finite-class lemma, max row 2-norm * sqrt(2 ln N) / m, bounds
    # the exact complexity of N rows; one row has complexity 0
    def massart(rows):
        n, m = rows.shape
        return float(np.max(np.linalg.norm(rows, axis=1)) * np.sqrt(2.0 * np.log(n)) / m)

    assert exact_rademacher_rows(np.array([[1.0, 2.0]])) == 0.0
    two = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert exact_rademacher_rows(two) == 0.5 < massart(two)
    rng = np.random.default_rng(10)
    for _ in range(100):
        rows = rng.uniform(-1, 1, size=(rng.integers(2, 9), rng.integers(2, 8)))
        assert exact_rademacher_rows(rows) <= massart(rows) + 1e-12


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
    # rad(|H - H_A|) <= rad(H) + rad(H_A); for a singleton approximating
    # class mapping everything to zero and non-negative prediction rows it
    # holds with equality
    rng = np.random.default_rng(12)
    inputs = np.abs(rng.normal(size=(6, 2)))
    weights = rng.uniform(0.0, 1.0, size=(8, 2))
    pred_rows = weights @ inputs.T
    gap_rows = np.abs(pred_rows - 0.0)
    rad_H = exact_rademacher_rows(pred_rows)
    rad_HA = exact_rademacher_rows(np.zeros((1, 6)))
    assert rad_HA == 0.0
    assert rad_H + rad_HA == pytest.approx(
        exact_rademacher_rows(gap_rows), rel=1e-12
    )


def test_crude_decomposition_dominates_matched_grids():
    # rad(|H - H_A|) <= rad(H) + rad(H_A) on quantised grids
    rng = np.random.default_rng(13)
    op = UniformQuantizer(step=0.5, clamp=1.0)
    for _ in range(20):
        inputs = rng.normal(size=(6, 2))
        weights = rng.uniform(-1, 1, size=(10, 2))
        quantized = op.transform_weights(weights)
        pred = weights @ inputs.T
        pred_q = quantized @ inputs.T
        rad_sum = exact_rademacher_rows(pred) + exact_rademacher_rows(pred_q)
        assert exact_rademacher_rows(np.abs(pred - pred_q)) <= rad_sum + 1e-12
