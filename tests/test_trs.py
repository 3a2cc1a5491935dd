import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advrisk import trs
from advrisk.trs import (
    BRANCH_DEGENERATE,
    BRANCH_EASY,
    BRANCH_HARD,
    svd_full,
    worst_case_batch,
    worst_case_perturbation,
)


def boundary_oracle(a, b, eps, n_dirs=10_000, n_restarts=50, n_steps=300, seed=0):
    """Independent check: dense boundary sampling plus projected gradient
    ascent restarts on the sphere of radius eps."""
    gen = np.random.default_rng(seed)
    n = a.shape[1]
    gram = a.T @ a
    lin = a.T @ b

    dirs = gen.standard_normal((n_dirs, n))
    dirs *= eps / np.linalg.norm(dirs, axis=1, keepdims=True)
    vals = ((dirs @ a.T) ** 2).sum(axis=1) - 2 * dirs @ lin
    best = float(vals.max())

    x = gen.standard_normal((n_restarts, n))
    x *= eps / np.linalg.norm(x, axis=1, keepdims=True)
    step = eps / (2 * np.linalg.norm(gram, 2) * eps + 2 * np.linalg.norm(lin) + 1e-12)
    for _ in range(n_steps):
        x = x + step * (2 * x @ gram - 2 * lin)
        x *= eps / np.linalg.norm(x, axis=1, keepdims=True)
    vals = ((x @ a.T) ** 2).sum(axis=1) - 2 * x @ lin
    return max(best, float(vals.max()))


class TestSvdFull:
    def test_diagonal(self):
        fact = svd_full(np.diag([3.0, 1.0]))
        assert np.allclose(fact.singular_values, [3.0, 1.0])
        assert np.allclose(np.abs(fact.u), np.eye(2), atol=1e-12)
        assert np.allclose(np.abs(fact.v), np.eye(2), atol=1e-12)

    def test_zero_matrix(self):
        fact = svd_full(np.zeros((2, 3)))
        assert np.allclose(fact.singular_values, 0.0)

    def test_reconstruction_and_orthogonality(self, rng):
        a = rng.standard_normal((4, 2))
        fact = svd_full(a)
        rebuilt = (fact.u[:, :2] * fact.singular_values) @ fact.v.T
        assert np.linalg.norm(rebuilt - a) / np.linalg.norm(a) < 1e-10
        assert np.linalg.norm(fact.u.T @ fact.u - np.eye(4)) < 1e-10
        assert np.linalg.norm(fact.v.T @ fact.v - np.eye(2)) < 1e-10

    def test_full_not_thin(self, rng):
        fact = svd_full(rng.standard_normal((5, 2)))
        assert fact.u.shape == (5, 5) and fact.v.shape == (2, 2)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            svd_full(np.array([[np.nan, 0.0]]))


class TestWorstCasePerturbation:
    def test_scalar_closed_form(self):
        # a=2, b=3, eps=0.5: lam = a^2 + |ab|/eps, gain = a^2 eps^2 + 2 eps |ab|
        res = worst_case_perturbation(np.array([[2.0]]), [3.0], 0.5)
        assert res.branch == BRANCH_EASY
        assert np.isclose(res.delta[0], -0.5, atol=1e-12)
        assert np.isclose(res.dual_lambda, 16.0, atol=1e-9)
        assert np.isclose(res.objective_gain, 7.0, atol=1e-10)

    def test_fully_degenerate_hard_case(self):
        res = worst_case_perturbation(np.eye(2), [0.0, 0.0], 1.0)
        assert res.branch == BRANCH_HARD
        assert np.isclose(np.linalg.norm(res.delta), 1.0, rtol=1e-9)
        assert np.isclose(res.objective_gain, 1.0, atol=1e-10)

    def test_zero_matrix_degenerate(self):
        res = worst_case_perturbation(np.zeros((2, 2)), [1.0, 2.0], 0.5)
        assert res.branch == BRANCH_DEGENERATE
        assert np.allclose(res.delta, 0.0) and res.objective_gain == 0.0

    def test_zero_budget_degenerate(self):
        res = worst_case_perturbation(np.eye(2), [1.0, 2.0], 0.0)
        assert res.branch == BRANCH_DEGENERATE
        assert np.allclose(res.delta, 0.0) and res.objective_gain == 0.0

    def test_row_model_sign_law(self, rng):
        # p = 1: delta = -eps * A'b / ||A'b||
        for _ in range(10):
            a = rng.standard_normal((1, 3))
            b = rng.standard_normal(1)
            eps = 0.7
            res = worst_case_perturbation(a, b, eps)
            expected = -eps * (a.T @ b).ravel() / np.linalg.norm(a.T @ b)
            assert np.allclose(res.delta, expected, atol=1e-9)

    def test_oracle_agreement_random(self, rng):
        for trial in range(25):
            n = int(rng.integers(1, 6))
            p = int(rng.integers(1, 6))
            a = rng.standard_normal((p, n))
            b = rng.standard_normal(p)
            eps = float(rng.choice([0.1, 0.7, 3.0]))
            res = worst_case_perturbation(a, b, eps)
            ref = boundary_oracle(a, b, eps, n_dirs=4000, seed=trial)
            assert res.objective_gain >= ref - 1e-9

    def test_hard_case_constructed(self, rng):
        # b orthogonal to the top left-singular space, with budget to spare
        a = np.diag([2.0, 1.0])
        b = np.array([0.0, 1.0])
        eps = 2.0  # pseudoinverse part has norm 1/3 < eps
        res = worst_case_perturbation(a, b, eps)
        assert res.branch == BRANCH_HARD
        assert np.isclose(np.linalg.norm(res.delta), eps, rtol=1e-9)
        assert np.isclose(res.dual_lambda, 4.0, atol=1e-12)
        ref = boundary_oracle(a, b, eps, seed=1)
        assert res.objective_gain >= ref - 1e-9

    def test_value_identity(self, rng):
        # max ||b - A delta||^2 == ||b||^2 + gain
        for _ in range(10):
            a = rng.standard_normal((3, 4))
            b = rng.standard_normal(3)
            res = worst_case_perturbation(a, b, 1.3)
            lhs = np.linalg.norm(b - a @ res.delta) ** 2
            rhs = b @ b + res.objective_gain
            assert np.isclose(lhs, rhs, rtol=1e-10)

    def test_batch_matches_scalar(self, rng):
        a = rng.standard_normal((3, 2))
        bs = rng.standard_normal((17, 3))
        deltas, gains, lams, branches = worst_case_batch(a, bs, 0.9)
        # scalar and batched paths may differ in the last bit (BLAS gemv vs
        # gemm); agreement to machine precision is the contract
        for i in range(17):
            res = worst_case_perturbation(a, bs[i], 0.9)
            assert np.allclose(res.delta, deltas[i], rtol=1e-12, atol=1e-14)
            assert np.isclose(res.objective_gain, gains[i], rtol=1e-12)
            assert np.isclose(res.dual_lambda, lams[i], rtol=1e-12)
            assert res.branch == branches[i]

    def test_perturbation_continuous_in_data(self, rng):
        # scaling b slightly moves the maximizer slightly (easy regime)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal(3)
        base = worst_case_perturbation(a, b, 0.8)
        for t_scale in (1.0 + 1e-7, 1.0 - 1e-7):
            moved = worst_case_perturbation(a, t_scale * b, 0.8)
            assert np.linalg.norm(moved.delta - base.delta) < 1e-5

    def test_empty_batch(self, rng):
        deltas, gains, lams, branches = worst_case_batch(np.eye(2), np.empty((0, 2)), 1.0)
        assert deltas.shape == (0, 2) and gains.shape == (0,)

    @pytest.mark.parametrize("shape", [(4, 4), (16, 16), (2, 6)])
    def test_batch_past_65536_rows_matches_split_calls(self, rng, shape):
        a = rng.standard_normal(shape)
        bs = rng.standard_normal((70_000, shape[0]))
        whole = worst_case_batch(a, bs, 0.7)
        head = worst_case_batch(a, bs[:65_536], 0.7)
        tail = worst_case_batch(a, bs[65_536:], 0.7)
        for w, h, t in zip(whole, head, tail):
            assert np.array_equal(w, np.concatenate([h, t]))

    def test_unconverged_root_raises(self, rng, monkeypatch):
        monkeypatch.setattr(trs, "MAX_ROOT_ITER", 1)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            worst_case_batch(rng.standard_normal((3, 3)), rng.standard_normal((5, 3)), 0.5)
        # After some rows have stopped, the count names the rows still active
        # at the cap: those that do not converge within it on their own.
        w = _weights(_mixed_sweep_rows(rng))
        for cap in (1, 2, 3):
            monkeypatch.setattr(trs, "MAX_ROOT_ITER", cap)
            active = sum(not _converges(w[[i, i]]) for i in range(len(w)))
            assert 0 < active < len(w)
            assert cap > 1 or active == len(w) - 4  # the top rows stop at sweep 1
            with pytest.raises(np.linalg.LinAlgError,
                               match=rf"in {cap} sweeps for {active} of {len(w)} rows"):
                _secular_mu(w, _GAPS, _EPS_SLOW)

    def test_single_term_root_in_one_newton_step(self, monkeypatch):
        # Each row's weight sits on one coordinate with a positive gap and none
        # on top, so phi(mu) = (mu + gap) / sqrt(w) - 1/eps is linear: the
        # Newton step from lo = 0 lands on the root, and the second sweep
        # accepts it.  Newton on f itself needs many more sweeps here.
        monkeypatch.setattr(trs, "MAX_ROOT_ITER", 2)
        gaps = np.array([0.0, 0.5, 2.0, 3.0])
        cols = np.array([1, 2, 3, 1, 2, 3])
        w = np.zeros((6, 4))
        w[np.arange(6), cols] = [1.0, 4.0, 30.0, 0.7, 9.0, 100.0]
        mu = _secular_mu(w, gaps, 0.1)
        np.testing.assert_allclose(mu, np.sqrt(w.sum(axis=1)) / 0.1 - gaps[cols], rtol=1e-12)

    @pytest.mark.parametrize("b", [[1e160, 0.0], [0.0, 1e160]], ids=["top", "low"])
    def test_overflowing_weights_raise(self, b):
        # (b'u_i sigma_i)^2 overflows to inf: a silent easy row with delta = 0,
        # gain 0 and lambda = inf would be wrong, since the true gain is at
        # least 2 eps ||A'b|| >= 1e160
        with pytest.raises(FloatingPointError, match="overflow"):
            worst_case_batch(np.diag([2.0, 1.0]), np.array([b, [1.0, 1.0]]), 0.5)

    def test_batch_shape_checked(self):
        a = np.ones((2, 3))
        with pytest.raises(ValueError, match=r"\(m, 2\)"):
            worst_case_batch(a, np.ones(2), 1.0)
        with pytest.raises(ValueError, match=r"\(m, 2\)"):
            worst_case_batch(a, np.ones((4, 3)), 1.0)
        # the single-vector entry point still reshapes its b
        assert worst_case_perturbation(a, [[1.0], [2.0]], 1.0).delta.shape == (3,)


# kappa = 100, n = 16.  The singular vectors of diag(_S) are signed unit
# vectors, so a row of b is its own coordinates and deltas carry no rounding.
_S = np.geomspace(1.0, 0.01, 16)
_GAPS = np.concatenate([[0.0], (_S[0] - _S[1:]) * (_S[0] + _S[1:])])
_EPS_SLOW = 0.01  # budget at which a small top component needs the most sweeps
_SPLITS = [0, 1, 2, 5, 9, 14, 19, 20]  # sub-batches of 1 to 5 rows


def _weights(b):
    return (b * _S) ** 2


def _secular_mu(w, gaps, eps, rows=None):
    """trs._secular_mu with the bracket sums formed as its callers form them,
    on an (r, m) copy of the (m, r) weights ``w``, solving ``rows`` (every
    row by default) under the errstate that worst_case_batch holds."""
    rows = np.arange(len(w)) if rows is None else rows
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return trs._secular_mu(np.ascontiguousarray(w.T), gaps, eps,
                               trs._row_dot(w, np.where(gaps <= 0.0, 1.0, 0.0)),
                               trs._row_sums(w), rows)


def _converges(w):
    try:
        _secular_mu(w, _GAPS, _EPS_SLOW)
    except np.linalg.LinAlgError:
        return False
    return True


def _mixed_sweep_rows(rng):
    """20 rows of b, shuffled: 4 along the top singular vector (they stop at
    sweep 1), 8 with a small top component (two have none, so their search
    starts at mu = 0) and 8 generic ones.  At _EPS_SLOW the other rows need 3
    or 4 sweeps."""
    top = np.zeros((4, 16))
    top[:, 0] = rng.uniform(0.5, 2.0, 4)
    slow = rng.standard_normal((8, 16))
    slow[:, 0] *= [0.0, 0.0, 1e-2, 1e-2, 1e-2, 1e-2, 1e-2, 1e-2]
    return rng.permutation(np.vstack([top, slow, rng.standard_normal((8, 16))]))


def _hard_easy_rows(rng):
    """20 rows of b at eps 0.5 ordered so that the _SPLITS sub-batches are
    all hard, mixed and all easy.  Hard rows are orthogonal to the top
    singular vector with budget to spare, as in test_hard_case_constructed."""
    is_hard = np.array(list("HHEHEEHEHEEEEEEHHEEE")) == "H"
    b = np.zeros((20, 16))
    b[is_hard, 1:] = 0.02 * rng.standard_normal((7, 15))
    b[~is_hard] = rng.standard_normal((13, 16))
    return b


def _column_sums(x):
    """Each row of ``x`` summed left to right, one column at a time."""
    s = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        s = s + x[:, j]
    return s


def _reference_secular_mu(w, gaps, eps):
    """The safeguarded Newton root find on 1/sqrt(f) - 1/eps sweeping every
    row until the last one stops (a stopped row keeps its mu), with its sums
    in column order; the compacted kernel must match it bit for bit."""
    tgt = eps * eps
    lo = np.sqrt(w[:, gaps <= 0.0].sum(axis=1)) / eps
    hi = np.sqrt(_column_sums(w)) / eps
    mu = lo.copy()
    active = np.ones(mu.shape[0], dtype=bool)
    for _ in range(trs.MAX_ROOT_ITER):
        denom = mu[:, None] + gaps[None, :]
        q = np.where(w > 0.0, 1.0 / np.where(denom > 0.0, denom, 1.0), 0.0)
        wqq = w * q * q
        f = _column_sums(wqq)
        g = f - tgt
        lo = np.where(g > 0.0, np.maximum(lo, mu), lo)
        hi = np.where(g < 0.0, np.minimum(hi, mu), hi)
        active &= np.abs(g) > trs.ROOT_RTOL * tgt
        active &= (hi - lo) > np.finfo(float).eps * np.maximum(hi, 1e-300)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = mu - f * (1.0 - np.sqrt(f) / eps) / _column_sums(wqq * q)
        inside = np.isfinite(newton) & (newton > lo) & (newton < hi)
        mu = np.where(active, np.where(inside, newton, 0.5 * (lo + hi)), mu)
    assert not active.any()
    return mu


class TestActiveRowCompaction:
    """The root find sweeps only rows still active, so a row's result must not
    depend on which rows share its batch."""

    def test_secular_roots_keep_their_bits(self, rng):
        w = _weights(_mixed_sweep_rows(rng))
        whole = _secular_mu(w, _GAPS, _EPS_SLOW)
        assert np.array_equal(whole, _reference_secular_mu(w, _GAPS, _EPS_SLOW))
        perm = rng.permutation(len(w))
        assert np.array_equal(_secular_mu(w[perm], _GAPS, _EPS_SLOW), whole[perm])
        for lo, hi in zip(_SPLITS, _SPLITS[1:]):
            assert np.array_equal(_secular_mu(w[lo:hi], _GAPS, _EPS_SLOW), whole[lo:hi])

    def test_no_zero_weight_matches_reference(self, rng):
        # with no zero weight the kernel skips its zero-weight mask
        w = _weights(rng.standard_normal((20, 16)))
        assert (w > 0.0).all()
        whole = _secular_mu(w, _GAPS, _EPS_SLOW)
        assert np.array_equal(whole, _reference_secular_mu(w, _GAPS, _EPS_SLOW))
        for lo, hi in zip(_SPLITS, _SPLITS[1:]):
            assert np.array_equal(_secular_mu(w[lo:hi], _GAPS, _EPS_SLOW), whole[lo:hi])

    def test_rows_outside_the_first_active_set_stay_zero(self, rng):
        # worst_case_batch passes its easy rows as the first active set; the
        # roots of that subset keep the bits of a call on the gathered rows
        w = _weights(_mixed_sweep_rows(rng))
        for rows in (np.array([3, 7, 8, 15, 19]), np.array([0]), np.arange(1, 20, 2),
                     np.array([], dtype=int)):
            mu = _secular_mu(w, _GAPS, _EPS_SLOW, rows)
            assert np.array_equal(mu[rows], _secular_mu(w[rows], _GAPS, _EPS_SLOW))
            assert not np.delete(mu, rows).any()

    @pytest.mark.parametrize("zero_weight", [False, True], ids=["no-zero", "zero"])
    def test_non_finite_newton_points_match_reference(self, rng, zero_weight):
        # A tiny top weight beside a huge low one: at the left bracket the
        # Newton numerator overflows (point +inf), or f itself does (point
        # NaN).  The kernel's bracket test must send both rows to bisection,
        # as the reference's explicit isfinite does.
        w = np.vstack([_weights(rng.standard_normal((2, 16))), np.full((2, 16), 0.5)])
        w[2, [0, 15]] = 1e-300, 1e300
        w[3, [0, 1]] = 1e-300, 1e308
        if zero_weight:
            w[2:, 7] = 0.0
        # only the test's own arithmetic may warn; the kernel must not
        with np.errstate(over="ignore", invalid="ignore"):
            lo = np.sqrt(w[:, 0]) / _EPS_SLOW
            q = 1.0 / (lo[:, None] + _GAPS)
            f = (w * q * q).sum(axis=1)
            newton = lo - f * (1.0 - np.sqrt(f) / _EPS_SLOW) / (w * q * q * q).sum(axis=1)
            reference = _reference_secular_mu(w, _GAPS, _EPS_SLOW)
        assert newton[2] == np.inf and np.isnan(newton[3])
        whole = _secular_mu(w, _GAPS, _EPS_SLOW)
        assert np.array_equal(whole, reference)
        for i in range(4):
            assert np.array_equal(_secular_mu(w[[i]], _GAPS, _EPS_SLOW), whole[[i]])

    @pytest.mark.parametrize("rows, eps, dense", [
        (_mixed_sweep_rows, _EPS_SLOW, False), (_hard_easy_rows, 0.5, False),
        (_mixed_sweep_rows, _EPS_SLOW, True), (_hard_easy_rows, 0.5, True),
    ], ids=["mixed-sweeps", "hard-easy", "mixed-sweeps-dense", "hard-easy-dense"])
    def test_batch_rows_keep_their_bits(self, rng, rows, eps, dense):
        # Dense: a = Q diag(_S) Q', with the rows of b mapped by Q, so that
        # b @ U and coords @ V' round (the 1-row sub-batch included).
        q = np.linalg.qr(rng.standard_normal((16, 16)))[0] if dense else np.eye(16)
        a = (q * _S) @ q.T
        b = rows(rng) @ q.T
        whole = worst_case_batch(a, b, eps)
        if rows is _hard_easy_rows:
            kinds = {tuple(np.unique(whole[3][lo:hi])) for lo, hi in zip(_SPLITS, _SPLITS[1:])}
            assert kinds == {(BRANCH_EASY,), (BRANCH_HARD,), (BRANCH_EASY, BRANCH_HARD)}
        perm = rng.permutation(len(b))
        parts = [perm] + [np.arange(lo, hi) for lo, hi in zip(_SPLITS, _SPLITS[1:])]
        for idx in parts:
            deltas, gains, lams, branches = worst_case_batch(a, b[idx], eps)
            assert np.array_equal(deltas, whole[0][idx])
            assert np.array_equal(lams, whole[2][idx])
            assert np.array_equal(branches, whole[3][idx])
            assert np.array_equal(gains, whole[1][idx])


def _traced_peak_kb(b):
    fact = svd_full(np.diag(_S))
    tracemalloc.start()
    try:
        worst_case_batch(fact, b, 0.5)
        return tracemalloc.get_traced_memory()[1] / 2**10
    finally:
        tracemalloc.stop()


def test_hard_rows_hold_the_weights_once(rng):
    # The root find gathers only the easy rows from the one (r, m) weight
    # array, so its sweep buffers shrink with the hard rows.  With a fifth of
    # the rows hard the solve peaks no higher than with every row easy (about
    # 1.3 MB at 2 048 x 16), though the hard rows' zero weights add an (r, m)
    # mask; a gathered copy of the easy rows' weights would add more.
    b = rng.standard_normal((2048, 16))
    easy_peak = _traced_peak_kb(b)
    hard = rng.random(2048) < 0.2
    b[hard, 0] = 0.0
    b[hard, 1:] *= 0.02
    assert np.count_nonzero(worst_case_batch(np.diag(_S), b, 0.5)[3] == BRANCH_HARD) > 300
    hard_peak = _traced_peak_kb(b)
    assert hard_peak <= easy_peak, f"{hard_peak:.0f} KB > {easy_peak:.0f} KB"


def _narrow_rows(rng, width, n_hard=0):
    """20 rows of b at a width below 8, where the root find's sums are plain
    adds, shuffled: 4 along the top singular vector of
    diag(geomspace(1, 0.01, width)), 8 - n_hard with a small or no top
    component (easy even at _EPS_SLOW), n_hard hard ones at eps 0.5
    (orthogonal to it with budget to spare) and 8 generic ones."""
    top = np.zeros((4, width))
    top[:, 0] = rng.uniform(0.5, 2.0, 4)
    slow = rng.choice([-1.0, 1.0], (8 - n_hard, width)) * rng.uniform(2.0, 4.0, (8 - n_hard, width))
    slow[:, 0] *= np.r_[0.0, 0.0, np.full(6 - n_hard, 1e-2)]
    hard = np.zeros((n_hard, width))
    hard[:, 1:] = 0.02 * rng.standard_normal((n_hard, width - 1))
    return rng.permutation(np.vstack([top, slow, hard, rng.standard_normal((8, width))]))


@pytest.mark.parametrize("width", [2, 4])
class TestNarrowRowCompaction:
    """As TestActiveRowCompaction, at the widths of the benchmark's Kalman
    (2) and plain (4) solves."""

    def test_secular_roots_keep_their_bits(self, rng, width):
        s = np.geomspace(1.0, 0.01, width)
        gaps = np.concatenate([[0.0], (s[0] - s[1:]) * (s[0] + s[1:])])
        w = (_narrow_rows(rng, width) * s) ** 2
        whole = _secular_mu(w, gaps, _EPS_SLOW)
        assert np.array_equal(whole, _reference_secular_mu(w, gaps, _EPS_SLOW))
        for lo, hi in zip(_SPLITS, _SPLITS[1:]):
            assert np.array_equal(_secular_mu(w[lo:hi], gaps, _EPS_SLOW), whole[lo:hi])

    @pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
    def test_batch_rows_keep_their_bits(self, rng, width, dense):
        q = np.linalg.qr(rng.standard_normal((width, width)))[0] if dense else np.eye(width)
        a = (q * np.geomspace(1.0, 0.01, width)) @ q.T
        b = _narrow_rows(rng, width, n_hard=4) @ q.T
        whole = worst_case_batch(a, b, 0.5)
        assert set(np.unique(whole[3])) == {BRANCH_EASY, BRANCH_HARD}
        perm = rng.permutation(len(b))
        for idx in [perm] + [np.arange(lo, hi) for lo, hi in zip(_SPLITS, _SPLITS[1:])]:
            for part, full in zip(worst_case_batch(a, b[idx], 0.5), whole):
                assert np.array_equal(part, full[idx])


def _signed_spread(rng, shape):
    """Values of either sign with magnitudes from 1e-150 to 1e150, so that
    the order of a sum changes its bits."""
    return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-150.0, 150.0, shape)


class TestRowSums:
    """trs._row_sums must add each row's terms left to right, bit for bit,
    in either layout and at any row count, so that a row keeps its bits
    whatever rows share its batch: the inner solve's roots, and so every CSV
    byte, depend on it."""

    @pytest.mark.parametrize("rows", [0, 1, 2, 3, 32, 2048])
    def test_equals_column_loop(self, rng, rows):
        # one row at 8 or more terms is where numpy's own reduction over a
        # single column turns pairwise
        for width in list(range(1, 41)) + [129]:
            x = _signed_spread(rng, (rows, width))
            want = _column_sums(x).view(np.int64)
            # the solver's layout: the transpose of a C-ordered (width, rows) array
            assert np.array_equal(trs._row_sums(np.ascontiguousarray(x.T).T).view(np.int64),
                                  want), width
            assert np.array_equal(trs._row_sums(x).view(np.int64), want), width


@given(
    n=st.integers(1, 4),
    p=st.integers(1, 4),
    eps=st.sampled_from([0.1, 1.0, 10.0]),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_kkt_and_feasibility_properties(n, p, eps, seed):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((p, n))
    b = gen.standard_normal(p)
    res = worst_case_perturbation(a, b, eps)

    norm = np.linalg.norm(res.delta)
    assert norm <= eps * (1 + 1e-9)
    s1 = np.linalg.svd(a, compute_uv=False)[0]
    # dual feasibility
    assert res.dual_lambda >= s1 * s1 - 1e-12
    # the ball is exhausted outside the degenerate branch
    if res.branch != BRANCH_DEGENERATE:
        assert abs(norm - eps) <= 1e-9 * eps
        # complementary slackness
        assert abs(res.dual_lambda * (norm**2 - eps**2)) <= 1e-8 * res.dual_lambda * eps * eps
        # stationarity
        resid = np.linalg.norm(
            (res.dual_lambda * np.eye(n) - a.T @ a) @ res.delta + a.T @ b
        )
        assert resid <= 1e-8 * (res.dual_lambda * eps + np.linalg.norm(a.T @ b))
    # reported gain is the quadratic objective at delta
    direct = res.delta @ (a.T @ a) @ res.delta - 2 * res.delta @ (a.T @ b)
    scale = max(abs(res.objective_gain), abs(direct), 1e-12)
    assert abs(res.objective_gain - direct) <= 1e-10 * scale
    # gain is never negative: delta = 0 is feasible with value 0
    assert res.objective_gain >= -1e-12


@given(
    n=st.integers(2, 6),
    cluster=st.integers(1, 3),
    spread=st.sampled_from([0.0, 1e-12, 1e-7]),
    top_scale=st.sampled_from([0.0, 0.1, 0.9, 1.1, 10.0, 1e3]),
    budget_used=st.sampled_from([0.1, 0.9, 0.999]),
    eps=st.sampled_from([0.1, 1.0, 10.0]),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=200, deadline=None)
def test_kkt_certificates_near_hard_case(n, cluster, spread, top_scale, budget_used, eps,
                                         seed):
    # Top singular values clustered within CLUSTER_RTOL (spread 0, 1e-12) or
    # just outside it (1e-7); the pseudoinverse part spends a share of the
    # budget; the top-cluster weight is a multiple of the HARD_MARGIN threshold,
    # so easy rows start their search at mu close to 0.
    gen = np.random.default_rng(seed)
    cluster = min(cluster, n)
    u = np.linalg.qr(gen.standard_normal((n, n)))[0]
    v = np.linalg.qr(gen.standard_normal((n, n)))[0]
    s1 = float(gen.uniform(0.5, 2.0))
    s = np.concatenate([s1 * (1.0 - spread * np.arange(cluster)),
                        np.sort(gen.uniform(0.1, 0.8, n - cluster))[::-1] * s1])
    a = (u * s) @ v.T
    coef = np.zeros(n)  # b in the left singular basis
    low = np.arange(cluster, n)
    if low.size:
        coef[low] = gen.standard_normal(low.size)
        s_low = np.sum((coef[low] * s[low] / (s1 * s1 - s[low] ** 2)) ** 2)
        coef[low] *= np.sqrt(budget_used * eps * eps / s_low)
    top_dir = gen.standard_normal(cluster)
    top_dir /= np.linalg.norm(top_dir)
    atb_low = np.linalg.norm(coef * s)
    coef[:cluster] = top_scale * trs.HARD_MARGIN * (s1 * s1 * eps + atb_low) / s1 * top_dir
    b = u @ coef
    res = worst_case_perturbation(a, b, eps)

    sigma1_sq = np.linalg.svd(a, compute_uv=False)[0] ** 2
    norm = np.linalg.norm(res.delta)
    assert res.branch in (BRANCH_EASY, BRANCH_HARD)
    # dual feasibility
    assert res.dual_lambda >= sigma1_sq * (1.0 - 1e-12)
    assert norm <= eps * (1.0 + 1e-9)
    # the ball is exhausted whenever the dual is above sigma_1^2
    if res.dual_lambda > sigma1_sq * (1.0 + 1e-12):
        assert abs(norm - eps) <= 1e-9 * eps
    # stationarity
    atb = a.T @ b
    resid = np.linalg.norm((res.dual_lambda * np.eye(n) - a.T @ a) @ res.delta + atb)
    assert resid <= 1e-8 * (res.dual_lambda * eps + np.linalg.norm(atb))


def test_global_optimality_proxy_1000_instances():
    # stress sweep: never fall below dense boundary sampling or ascent restarts
    gen = np.random.default_rng(424242)
    for _ in range(1000):
        n = int(gen.integers(1, 6))
        p = int(gen.integers(1, 6))
        a = gen.standard_normal((p, n))
        b = gen.standard_normal(p)
        eps = float(gen.choice([0.1, 1.0, 10.0]))
        res = worst_case_perturbation(a, b, eps)
        ref = boundary_oracle(a, b, eps, n_dirs=10_000, n_restarts=50,
                              n_steps=120, seed=int(gen.integers(1 << 31)))
        assert res.objective_gain >= ref - 1e-9


class TestSecularRoot:
    """The secular root in mu = lambda - sigma_1^2 (``_secular_mu``)."""

    def test_single_term_analytic(self):
        # 36 / (lam - 4)^2 = 0.25  ->  lam = 16
        mu = _secular_mu(np.array([[36.0]]), np.zeros(1), 0.5)[0]
        assert np.isclose(4.0 + mu, 16.0, rtol=1e-12)

    def test_residual_within_tolerance(self, rng):
        for _ in range(20):
            r = int(rng.integers(1, 6))
            w = rng.uniform(0.1, 5.0, size=r)
            sq = np.sort(rng.uniform(0.1, 4.0, size=r))[::-1]
            eps = float(rng.uniform(0.05, 2.0))
            lam = sq[0] + _secular_mu(w[None, :], sq[0] - sq, eps)[0]
            f = (w / (lam - sq) ** 2).sum()
            assert lam > sq.max()
            assert abs(f - eps * eps) <= 1e-12 * eps * eps

    def test_monotone_in_eps(self):
        w = np.array([[1.0, 2.0]])
        gaps = np.array([0.0, 3.0])  # sigma^2 = 4, 1
        roots = [4.0 + _secular_mu(w, gaps, e)[0] for e in (0.1, 1.0, 10.0, 100.0)]
        assert all(a > b for a, b in zip(roots, roots[1:]))
        assert roots[-1] < 4.0 + 1e-1  # approaches sigma_1^2 from above
