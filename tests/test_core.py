"""Core types: prediction, operators, losses, synthetic data, CSV round-trip."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from approx_sense import (
    CLIP_MARGIN,
    DimensionMismatchError,
    Hypothesis,
    IdentityMap,
    InvalidParameterError,
    IsotropicGaussian,
    LabelledSample,
    LossSpec,
    MagnitudePruner,
    PolynomialMap,
    RbfMap,
    StochasticRounder,
    StochasticOperatorError,
    SyntheticTask,
    UniformBox,
    UniformQuantizer,
    UnlabelledSample,
    apply_operator,
    empirical_error,
    generate,
    linear_hypothesis,
    loss_values,
    predictions,
    true_error_mc,
)
from approx_sense.core import (
    _STREAM_BLOCK,
    _distinct_rows,
    _p_mean,
    _p_means,
    derived_rng,
    derived_rngs,
)
from approx_sense.dataio import read_sample_csv, write_sample_csv


# ---------------------------------------------------------------------------
# predictions
# ---------------------------------------------------------------------------


def test_predict_zero_weights():
    got = predictions(linear_hypothesis([0.0, 0.0]), [[3.0, -7.0], [1.0, 2.0]])
    np.testing.assert_array_equal(got, [0.0, 0.0])


def test_predict_dot_product():
    got = predictions(linear_hypothesis([1.0, 2.0]), [[3.0, 4.0], [-1.0, 0.5]])
    np.testing.assert_array_equal(got, [11.0, 0.0])
    np.testing.assert_array_equal(predictions(linear_hypothesis([1.0]), [[-2.0]]), [-2.0])


def test_predict_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        predictions(linear_hypothesis([1.0, 2.0]), [[3.0]])


def test_polynomial_map_features():
    fmap = PolynomialMap(input_dim=1, degree=2)
    assert fmap.feature_dim == 3  # 1, x, x^2
    np.testing.assert_allclose(fmap.transform(np.array([2.0])), [1.0, 2.0, 4.0])
    h = Hypothesis(weights=np.array([1.0, 0.0, 1.0]), feature_map=fmap)
    np.testing.assert_array_equal(predictions(h, [[3.0], [-1.0]]), [10.0, 2.0])


def test_polynomial_feature_dim_counts_the_monomials():
    for n in range(1, 6):
        for degree in range(1, 6):
            fmap = PolynomialMap(input_dim=n, degree=degree)
            assert fmap.feature_dim == len(fmap._monomials()) == len(set(fmap._monomials()))


def test_polynomial_feature_dim_lists_no_monomial(monkeypatch):
    # listing costs about 110 B a monomial: 3 GB for the 30,045,015 monomials
    # of degree <= 10 in 20 inputs, all to reject a two-weight teacher
    def listed(self):
        raise AssertionError("feature_dim listed the monomials")

    monkeypatch.setattr(PolynomialMap, "_monomials", listed)
    assert PolynomialMap(input_dim=16, degree=8).feature_dim == 735_471
    with pytest.raises(DimensionMismatchError, match="30045015"):
        Hypothesis(weights=np.array([1.0, 0.5]),
                   feature_map=PolynomialMap(input_dim=20, degree=10))


def test_rbf_map_features():
    fmap = RbfMap(centers=np.array([[0.0], [1.0]]), width=1.0)
    feats = fmap.transform(np.array([0.0]))
    np.testing.assert_allclose(feats, [1.0, math.exp(-0.5)])


@pytest.mark.parametrize("width, problem", [(1e300, "too large"), (1e-200, "too small")])
def test_rbf_map_rejects_a_width_whose_denominator_is_not_a_positive_float(width, problem):
    # transform divides by 2 width^2: inf, or 0 (NaN for an input on a center)
    with pytest.raises(InvalidParameterError, match=problem):
        RbfMap(centers=np.array([[0.0], [1.0]]), width=width)


def test_hypothesis_weight_length_checked():
    with pytest.raises(DimensionMismatchError):
        Hypothesis(weights=np.array([1.0, 2.0]), feature_map=IdentityMap(input_dim=3))


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def test_quantizer_below_midpoint():
    op = UniformQuantizer(step=0.25, clamp=1.0)
    out = apply_operator(op, linear_hypothesis([0.37]))
    np.testing.assert_allclose(out.weights, [0.25])


def test_quantizer_midpoint_rounds_to_even_multiple():
    op = UniformQuantizer(step=0.25, clamp=1.0)
    # 0.375 sits exactly between 0.25 (k=1) and 0.5 (k=2): even multiple wins
    np.testing.assert_allclose(op.transform_weights(np.array([0.375])), [0.5])
    np.testing.assert_allclose(op.transform_weights(np.array([0.125])), [0.0])


def test_quantizer_clamps_out_of_range():
    op = UniformQuantizer(step=0.25, clamp=1.0)
    np.testing.assert_allclose(op.transform_weights(np.array([7.3, -9.9])), [1.0, -1.0])


def test_pruner_keeps_largest_magnitude():
    op = MagnitudePruner(keep=1)
    out = apply_operator(op, linear_hypothesis([0.1, -0.9]))
    np.testing.assert_allclose(out.weights, [0.0, -0.9])


def test_pruner_tie_break_lower_index():
    op = MagnitudePruner(keep=1)
    out = apply_operator(op, linear_hypothesis([0.5, -0.5]))
    np.testing.assert_allclose(out.weights, [0.5, 0.0])


def test_pruner_keep_zero_and_bounds():
    assert np.all(MagnitudePruner(keep=0).transform_weights(np.array([1.0, 2.0])) == 0)
    with pytest.raises(InvalidParameterError):
        MagnitudePruner(keep=3).transform_weights(np.array([1.0, 2.0]))


def test_pruner_row_wise_matches_each_row():
    # ties in magnitude included: each row keeps its lower indices
    rng = np.random.default_rng(4)
    rows = np.round(rng.uniform(-1.0, 1.0, size=(50, 5)), 1)
    for keep in range(6):
        op = MagnitudePruner(keep=keep)
        expected = np.array([op.transform_weights(row) for row in rows])
        assert np.array_equal(op.transform_weights(rows), expected)
    with pytest.raises(InvalidParameterError):
        MagnitudePruner(keep=6).transform_weights(rows)


def test_stochastic_rounder_two_point_support():
    op = StochasticRounder(step=1.0, clamp=1.0)
    h = linear_hypothesis([0.3])
    values = {float(apply_operator(op, h, noise_seed=s).weights[0]) for s in range(64)}
    assert values == {0.0, 1.0}


def test_stochastic_rounder_requires_seed():
    op = StochasticRounder(step=1.0, clamp=1.0)
    with pytest.raises(StochasticOperatorError):
        apply_operator(op, linear_hypothesis([0.3]))


def test_stochastic_rounder_unbiased():
    # mean over n seeded draws within 3 * sqrt(p(1-p)/n) of 0.3
    op = StochasticRounder(step=1.0, clamp=1.0)
    n = 100_000
    rng = np.random.default_rng(11)
    draws = op.transform_weights(np.full(n, 0.3), rng)
    assert set(np.unique(draws)) <= {0.0, 1.0}
    assert abs(draws.mean() - 0.3) <= 3.0 * math.sqrt(0.21 / n)


def test_apply_operator_preserves_feature_map():
    fmap = PolynomialMap(input_dim=1, degree=2)
    h = Hypothesis(weights=np.array([0.37, 0.1, 0.9]), feature_map=fmap)
    out = apply_operator(UniformQuantizer(step=0.25, clamp=1.0), h)
    assert out.feature_map == fmap


@settings(max_examples=300, deadline=None)
@given(
    step=st.floats(1e-3, 10.0),
    clamp=st.floats(1e-2, 50.0),
    raw=st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=6),
)
def test_quantizer_contraction_and_idempotence(step, clamp, raw):
    op = UniformQuantizer(step=step, clamp=clamp)
    w = np.clip(np.asarray(raw), -clamp, clamp)  # in-range weights
    q = op.transform_weights(w)
    assert np.max(np.abs(w - q)) <= step / 2 + 1e-12 * max(1.0, clamp)
    assert np.array_equal(op.transform_weights(q), q)


# ---------------------------------------------------------------------------
# distinct rows
# ---------------------------------------------------------------------------


def _layout(a: np.ndarray, layout: str) -> np.ndarray:
    """``a``'s values as a C-contiguous, transposed or column-strided array."""
    if layout == "transposed":
        return np.ascontiguousarray(a.T).T
    if layout == "strided":
        wide = np.zeros((a.shape[0], 2 * a.shape[1]))
        wide[:, ::2] = a
        return wide[:, ::2]
    return a


@settings(max_examples=200, deadline=None)
@given(
    # few values, so equal rows are common
    a=hnp.arrays(
        float,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
        elements=st.sampled_from([0.0, 1.0, -2.5, 0.125]),
    ),
    layout=st.sampled_from(["c", "transposed", "strided"]),
)
@example(a=np.array([[0.5, -1.0, 2.0]]), layout="strided")  # one row
@example(a=np.full((7, 3), 0.25), layout="transposed")  # all rows equal
def test_distinct_rows_first_occurrence_and_inverse(a, layout):
    view = _layout(a, layout)
    rows, inverse = _distinct_rows(view)
    # reference: a dict of row bytes keeps first-occurrence order
    first: dict[bytes, int] = {}
    for row in a:
        first.setdefault(row.tobytes(), len(first))
    assert [r.tobytes() for r in rows] == list(first)
    assert inverse.tolist() == [first[row.tobytes()] for row in a]
    assert rows[inverse].tobytes() == a.tobytes()


def test_distinct_rows_merges_signed_zeros():
    # rows that differ only in the sign of a zero are one row, as in
    # np.unique(axis=0); the first occurrence's bytes stand for it
    a = np.array([[-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0], [0.0, 2.0]])
    rows, inverse = _distinct_rows(a)
    assert rows.tobytes() == a[[0, 3]].tobytes()
    assert inverse.tolist() == [0, 0, 0, 1]
    assert len(rows) == len(np.unique(a, axis=0))
    # the quantiser writes -0.0 where a negative weight rounds to zero, and a
    # 21-point axis at step 0.5 still has one Q(w) per lattice point: 5 x 5
    axis = np.linspace(-1.0, 1.0, 21)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    q = UniformQuantizer(step=0.5, clamp=1.0).transform_weights(grid)
    assert np.signbit(q[q == 0.0]).any()
    assert len(_distinct_rows(q)[0]) == 25


@settings(max_examples=100, deadline=None)
@given(
    G=hnp.arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 300)),
                 elements=st.floats(-1e3, 1e3)),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
)
def test_p_means_rows_equal_the_one_row_mean_bit_for_bit(G, p):
    # the empirical sensitivity and the learners' exact row form share this
    # rule: each row as np.mean and one scalar root compute it
    expected = [float(np.mean(np.abs(g) ** p) ** (1.0 / p)) for g in G]
    assert _p_means(G, p).tolist() == expected
    assert [_p_mean(g, p) for g in G] == expected


# ---------------------------------------------------------------------------
# seeded streams
# ---------------------------------------------------------------------------

EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 3]  # one word, its largest, two words, three
EDGE_INDICES = [0, 1, 16, _STREAM_BLOCK - 1, _STREAM_BLOCK, _STREAM_BLOCK + 1,
                2**32 - 1, 2**32, 2**32 + _STREAM_BLOCK + 3]


def _state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(
    seed=st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**140),
    key=st.lists(st.sampled_from([0, 4, 2**32 - 1, 2**32, 2**40 + 7]) | st.integers(0, 2**70),
                 min_size=1, max_size=3),
    index=st.sampled_from(EDGE_INDICES) | st.integers(0, 2**40),
)
@example(seed=2**64 + 3, key=[5, 2**32], index=_STREAM_BLOCK - 1)
@example(seed=2**32 - 1, key=[2**33 + 1], index=_STREAM_BLOCK)
@example(seed=0, key=[4], index=2**32)
def test_derived_rngs_match_derived_rng_states(seed, key, index):
    # read at the index and beside it, in and across block boundaries, for a
    # count that ends at the index and one that runs a block past it
    for count in {index + 1, index + _STREAM_BLOCK + 1}:
        streams = derived_rngs(seed, *key, count=count)
        for i in sorted({max(index - 1, 0), index, min(index + 1, count - 1)}):
            assert _state(streams(i)) == _state(derived_rng(seed, *key, i)), (count, i)


def test_derived_rngs_read_a_far_index_without_those_below():
    index = 2**32 + 5
    tracemalloc.start()
    try:
        rng = derived_rngs(2**64 + 3, 7, 2**32, count=2**40)(index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _state(rng) == _state(derived_rng(2**64 + 3, 7, 2**32, index))
    assert peak < 2**20  # one block of 4096 indices, not 2^32 of them


@pytest.mark.parametrize("seed, key", [(-1, (4,)), (3, (-2,)), (3, (4, -1))])
def test_derived_rngs_reject_what_derived_rng_rejects(seed, key):
    with pytest.raises(ValueError) as want:
        derived_rng(seed, *key, 0)
    for count in (1, _STREAM_BLOCK):
        with pytest.raises(ValueError) as got:
            derived_rngs(seed, *key, count=count)(0)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def test_derived_rngs_reject_an_index_outside_the_count():
    streams = derived_rngs(5, 4, count=16)
    for i in (-1, 16):
        with pytest.raises(IndexError, match="outside range"):
            streams(i)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def test_clipped_absolute_examples():
    spec = LossSpec(kind="clipped_absolute", lipschitz=1.0)
    got = loss_values(spec, [0.3, 5.0, 0.4], [0.3, 0.0, 0.1])
    assert got[0] == 0.0
    assert got[1] == 1.0 - CLIP_MARGIN
    assert got[2] == pytest.approx(0.3, abs=1e-15)


@pytest.mark.parametrize("kind", ["clipped_absolute", "clipped_hinge", "clipped_squared"])
@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
def test_loss_lipschitz_and_bounded(kind, rho):
    # 1e4 random triples: |l(a,y) - l(b,y)| <= rho |a - b| and 0 <= l < 1
    spec = LossSpec(kind=kind, lipschitz=rho)
    rng = np.random.default_rng(21)
    a, b, y = rng.uniform(-5, 5, size=(3, 10_000))
    la = loss_values(spec, a, y)
    lb = loss_values(spec, b, y)
    assert np.all(la >= 0) and np.all(la < 1.0)
    assert np.all(np.abs(la - lb) <= rho * np.abs(a - b))


def test_unknown_loss_kind_rejected():
    with pytest.raises(InvalidParameterError):
        LossSpec(kind="zero_one", lipschitz=1.0)


def test_squared_loss_rejects_a_lipschitz_constant_whose_square_overflows():
    for rho in (1e200, 10**200):
        with pytest.raises(InvalidParameterError, match="rho\\^2 overflows"):
            LossSpec(kind="clipped_squared", lipschitz=rho)
    # the other kinds never square rho
    assert loss_values(LossSpec(kind="clipped_absolute", lipschitz=1e200), [1.0], [0.0])[0] < 1


# ---------------------------------------------------------------------------
# empirical error and Monte Carlo error
# ---------------------------------------------------------------------------


def _noiseless_task(weights, seed=3, law=None):
    teacher = linear_hypothesis(weights)
    return SyntheticTask(
        teacher=teacher,
        input_law=law or UniformBox(halfwidth=1.0),
        label_noise_sd=0.0,
        seed=seed,
    )


def test_empirical_error_teacher_is_zero():
    task = _noiseless_task([0.5, -0.25])
    sample = generate(task, 50, labelled=True)
    assert empirical_error(task.teacher, sample, LossSpec(kind="clipped_absolute")) == 0.0


def test_empirical_error_single_point():
    sample = LabelledSample(inputs=[[1.0]], targets=[0.0])
    spec = LossSpec(kind="clipped_absolute", lipschitz=1.0)
    assert empirical_error(linear_hypothesis([0.5]), sample, spec) == 0.5


def test_empirical_error_bounded():
    rng = np.random.default_rng(5)
    sample = LabelledSample(inputs=rng.normal(size=(30, 2)), targets=rng.normal(size=30))
    spec = LossSpec(kind="clipped_squared", lipschitz=2.0)
    for _ in range(20):
        err = empirical_error(linear_hypothesis(rng.uniform(-3, 3, 2)), sample, spec)
        assert 0.0 <= err < 1.0


def test_true_error_mc_teacher_zero_and_deterministic():
    task = _noiseless_task([0.7])
    spec = LossSpec(kind="clipped_absolute")
    est = true_error_mc(task.teacher, task, spec, n_mc=500, seed=9)
    assert est.value == 0.0 and est.standard_error == 0.0
    again = true_error_mc(task.teacher, task, spec, n_mc=500, seed=9)
    assert est == again


def test_true_error_mc_matches_hand_integral():
    # teacher w* = 0, hypothesis w = 0.5, x ~ U[-1, 1]:
    # E |0.5 x| = 0.5 * E|x| = 0.5 * 1/2 = 0.25 (clip never binds)
    task = _noiseless_task([0.0])
    est = true_error_mc(
        linear_hypothesis([0.5]), task, LossSpec(kind="clipped_absolute"), n_mc=100_000, seed=13
    )
    assert abs(est.value - 0.25) <= 3.0 * est.standard_error


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_generate_noiseless_targets_match_teacher():
    task = _noiseless_task([0.5, -0.5])
    sample = generate(task, 25, labelled=True)
    preds = sample.inputs @ np.array([0.5, -0.5])
    np.testing.assert_array_equal(sample.targets, preds)


def test_generate_bit_identical_per_seed():
    task = _noiseless_task([0.5, -0.5], seed=42)
    s1 = generate(task, 30, labelled=True)
    s2 = generate(task, 30, labelled=True)
    assert np.array_equal(s1.inputs, s2.inputs) and np.array_equal(s1.targets, s2.targets)
    u1 = generate(task, 30, labelled=False)
    assert not np.array_equal(u1.inputs, s1.inputs)  # separate stream


def test_generate_gaussian_mixture():
    from approx_sense import GaussianMixture

    law = GaussianMixture(centers=np.array([[-3.0, 0.0], [3.0, 0.0]]), sd=0.1)
    task = _noiseless_task([0.0, 0.0], seed=6, law=law)
    sample = generate(task, 2000, labelled=False)
    # points concentrate near one of the two centers
    dist = np.minimum(
        np.abs(sample.inputs[:, 0] + 3.0), np.abs(sample.inputs[:, 0] - 3.0)
    )
    assert np.all(dist < 1.0)
    near_left = (sample.inputs[:, 0] < 0).mean()
    assert 0.4 < near_left < 0.6


def test_generate_gaussian_mean_clt():
    m = 100_000
    task = _noiseless_task([0.0, 0.0], seed=8, law=IsotropicGaussian(sd=1.0))
    sample = generate(task, m, labelled=False)
    assert np.all(np.abs(sample.inputs.mean(axis=0)) <= 4.0 / math.sqrt(m))


def test_sample_invariants():
    with pytest.raises(DimensionMismatchError):
        LabelledSample(inputs=[[1.0, 2.0]], targets=[1.0, 2.0])
    with pytest.raises(InvalidParameterError):
        UnlabelledSample(inputs=[[np.inf]])
    with pytest.raises(InvalidParameterError):
        generate(_noiseless_task([1.0]), 0)


# ---------------------------------------------------------------------------
# CSV round-trip
# ---------------------------------------------------------------------------


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(17)
    sample = LabelledSample(
        inputs=rng.normal(size=(12, 3)) * 1e3, targets=rng.normal(size=12) / 1e3
    )
    path = tmp_path / "s.csv"
    write_sample_csv(sample, path)
    loaded = read_sample_csv(path)
    assert isinstance(loaded, LabelledSample)
    assert np.array_equal(loaded.inputs, sample.inputs)
    assert np.array_equal(loaded.targets, sample.targets)


def test_csv_unlabelled_round_trip(tmp_path):
    sample = UnlabelledSample(inputs=np.array([[1.0, 2.0], [3.0, 4.0]]))
    path = tmp_path / "u.csv"
    write_sample_csv(sample, path)
    loaded = read_sample_csv(path)
    assert isinstance(loaded, UnlabelledSample)
    assert np.array_equal(loaded.inputs, sample.inputs)
