"""Blocked Monte Carlo references of the coverage suites: the same bits as the
materialised matrices they replace."""

from __future__ import annotations

import numpy as np
import pytest

from approx_sense import validation
from approx_sense.core import loss_values
from approx_sense.learners import BLOCK_ELEMENTS
from approx_sense.validation import _column_mean, _LinearTrialContext, _mean_abs_gaps


def _row_counts(n_cols: int) -> list[int]:
    block = max(1, BLOCK_ELEMENTS // n_cols)
    return sorted({1, max(1, block - 1), block, block + 1, 400_000})


@pytest.mark.parametrize(
    "n_cols, n_rows",
    [(c, r) for c in (1, 2, 49, 120) for r in _row_counts(c)],
)
def test_column_mean_equals_unblocked_mean(n_cols, n_rows):
    # non-negative, as the gaps and losses averaged in the suites are
    matrix = np.random.default_rng(n_cols * 7 + n_rows).uniform(0.0, 1.0, size=(n_rows, n_cols))
    requested = []

    def block_values(rows: slice) -> np.ndarray:
        requested.append(rows.stop - rows.start)
        return matrix[rows]

    got = _column_mean(n_rows, n_cols, block_values)
    assert np.array_equal(got, matrix.mean(axis=0))
    assert sum(requested) == n_rows
    block = max(1, BLOCK_ELEMENTS // n_cols)
    if n_cols == 1 or n_rows <= block:
        # numpy sums one column pairwise, which a running sum would not repeat
        assert requested == [n_rows]
    else:
        assert max(requested) <= block


@pytest.mark.parametrize("suite", ["lemma1", "prop10"])
def test_mean_abs_gaps_equals_materialised_reference(monkeypatch, suite):
    # capture the suite's own reference inputs, then compare with the
    # 400k-row matrix the blocked helper avoids building
    seen = []

    def recording(big, residuals):
        seen.append((big, residuals))
        return _mean_abs_gaps(big, residuals)

    monkeypatch.setattr(validation, "_mean_abs_gaps", recording)
    validation.run_suite(suite, trials=1, seed=3)
    (big, residuals), = seen
    assert big.shape == (400_000, 2)
    assert len(np.unique(residuals, axis=0)) < len(residuals)
    expected = np.abs(big @ residuals.T).mean(axis=0)
    assert np.array_equal(_mean_abs_gaps(big, residuals), expected)


def test_linear_trial_err_cand_equals_materialised_loss_mean():
    ctx = _LinearTrialContext(seed=3, stream=40)
    tr = ctx.trial(0)
    expected = loss_values(ctx.loss, ctx.x_mc @ tr["cands"].T, tr["y_mc"][:, None]).mean(axis=0)
    assert np.array_equal(tr["err_cand"], expected)
