"""Exact solver for the norm-constrained quadratic maximization

    max_{||delta||_2 <= eps}  delta' A'A delta - 2 delta' A' b,

which is the inner adversary of the adversarial risk: the maximum of
``||b - A delta||^2`` over the ball equals ``||b||^2`` plus the optimal value
here.  Strong duality holds, and the optimal primal-dual pair is recovered
from the full SVD of ``A`` and one stationarity formula,
``(A'A - lambda I) delta = A'b`` with ``||delta|| = eps``.  In the generic
"easy" case ``lambda`` is the root of the secular equation; in the "hard"
case it sticks at the largest squared singular value and a top singular
direction takes up the budget that is left (Moré & Sorensen, 1983).

The solver is vectorized over right-hand sides ``b`` so one factorization
of ``A`` serves an entire Monte Carlo batch.  The root find holds its
weights as an (r, m) array, one column per right-hand side, and sums each
right-hand side's terms with vector adds over whole rows of it
(``_row_sums``): in column order, so a row's sums, and so its root, have
the same bits whatever rows share its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Branch codes per solved row; the perturb CSV writes them as ``branch_code``.
BRANCH_EASY = 0
BRANCH_HARD = 1
BRANCH_DEGENERATE = 2

# Singular values within this relative distance of sigma_1 are treated as a
# single top cluster; prevents catastrophic cancellation in 1/(s1^2 - si^2).
CLUSTER_RTOL = 1e-9
# Relative margin on the hard-case test; borderline goes to the easy branch.
HARD_MARGIN = 1e-9
ROOT_RTOL = 1e-12
MAX_ROOT_ITER = 200
# The root find's scalar operands, as 0-d arrays (``_secular_mu``).
_ZERO, _ONE, _HALF, _TINY, _SPACING = (
    np.array(v) for v in (0.0, 1.0, 0.5, 1e-300, np.finfo(float).eps))


@dataclass(frozen=True, eq=False)
class SvdFactorization:
    """Full SVD ``a = u @ diag(s) @ v.T`` (both orthogonal factors square).

    ``singular_values`` has length ``min(n, p)``, sorted nonincreasing.
    """

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray

    @property
    def p(self) -> int:
        return self.u.shape[0]

    @property
    def n(self) -> int:
        return self.v.shape[0]


@dataclass(frozen=True, eq=False)
class PerturbationResult:
    """Optimal perturbation for one right-hand side.

    ``objective_gain`` is the optimal value of the quadratic maximization;
    the worst-case loss is ``||b||^2 + objective_gain``.
    """

    delta: np.ndarray
    dual_lambda: float
    objective_gain: float
    branch: int


def svd_full(a) -> SvdFactorization:
    """Full (not thin) SVD with nonincreasing singular values."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    if np.count_nonzero(np.isfinite(a)) < a.size:
        raise ValueError("matrix has non-finite entries")
    u, s, vt = np.linalg.svd(a, full_matrices=True)
    return SvdFactorization(u=u, singular_values=s, v=vt.T)


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` per row, summed the same way whatever rows share the batch
    (BLAS gemv rounds by a row's place in the batch)."""
    return np.einsum("ij,j->i", x, y)


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sum each row of the (m, k) view ``x`` term by term in column order,
    whatever its layout and whatever rows share the batch.

    numpy sums axis 0 of a C-ordered (k, m) array by vector adds over whole
    rows, in turn; for one column it would sum pairwise instead, so a lone
    row is summed by ``accumulate``, which adds in turn too.
    """
    t = np.ascontiguousarray(x.T)  # t[j] holds term j of every row
    return np.add.reduce(t, axis=0) if t.shape[1] != 1 else np.add.accumulate(t, axis=0)[-1]


def _secular_mu(w: np.ndarray, gaps: np.ndarray, eps: float, w_top: np.ndarray,
                wsum: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Vectorized root find for f(mu) = sum_i w_i / (mu + gaps_i)^2 = eps^2.

    ``mu = lambda - sigma_1^2`` is the distance of the dual variable above
    the top squared singular value; ``gaps_i = sigma_1^2 - sigma_i^2 >= 0``.
    Working in ``mu`` keeps every denominator an exact sum of nonnegative
    quantities, so near-hard instances lose no precision to cancellation.
    ``w`` holds the weights as an (r, m) array, one column per row of the
    batch, so that each sweep's two row sums are contiguous vector adds in
    column order, split-invariant (``_row_sums``).  ``w_top`` and ``wsum``, each row's
    weight on the zero gaps and its total weight, bracket the root.  The rows
    ``rows`` are the first active set; every other row's mu is 0.  Each sweep
    gathers the weights of the rows still active into its own buffer, so ``w``
    is held once however many rows are left out or have stopped.  Runs inside
    the caller's ``np.errstate``, which ignores division by zero (masked or
    bisected below), overflow and invalid values.

    Requires each solved row to satisfy f(0+) >= eps^2 (easy-case condition).
    Safeguarded Newton on the reciprocal norm phi(mu) = 1/sqrt(f(mu)) - 1/eps
    (Moré & Sorensen, 1983): phi is concave and increasing, so Newton from the
    left bracket converges monotonically, and phi is nearly linear (exactly so
    for one term), so it needs far fewer sweeps than Newton on f itself.  Steps
    leaving the bracket bisect.  A row stops once |f - eps^2| <= ROOT_RTOL eps^2
    or its bracket has shrunk to rounding.
    Raises ``np.linalg.LinAlgError`` if a row has not converged after
    ``MAX_ROOT_ITER`` sweeps.
    """
    tgt = eps * eps
    lo = np.sqrt(w_top[rows]) / eps  # f(lo) >= tgt: top terms alone contribute eps^2
    hi = np.sqrt(wsum[rows]) / eps  # f(hi) <= tgt: all terms at the top gap
    # A row stops for good in the sweep that meets its tolerance, with that
    # sweep's mu, so later sweeps run over the rows still active only.  A row
    # sum adds the same terms in the same order whatever rows surround it, so
    # every root keeps its bits.
    m = w_top.size
    out = np.zeros(m)
    mu = lo.copy()
    gap_col = gaps[:, None]
    # Scalar operands are 0-d arrays, which a ufunc takes at about half the
    # cost of a Python float; at 32 rows that is most of a call.
    eps_, tgt_, tol_ = np.array(eps), np.array(tgt), np.array(ROOT_RTOL * tgt)
    # mu >= 0 and gaps >= 0, so a denominator is zero only where mu = 0 meets a
    # top gap, i.e. in a row whose top weights are all zero; the mask zeroes q
    # there (1/0 = inf) as on every other zero weight.  With no zero weight
    # there is nothing to mask.
    w_zero = None if np.count_nonzero(w) == w.size else np.logical_not(np.greater(w, _ZERO))
    if w_zero is not None and rows.size < m:
        w_zero = w_zero.take(rows, axis=1)
    for _ in range(MAX_ROOT_ITER):
        q = np.add(gap_col, mu)
        np.divide(_ONE, q, out=q)
        if w_zero is not None:
            np.copyto(q, _ZERO, where=w_zero)
        if rows.size < m:  # the weights of the rows still active
            wqq = w.take(rows, axis=1)
            wqq *= q
        else:
            wqq = np.multiply(w, q)
        wqq *= q
        f = _row_sums(wqq.T)
        g = np.subtract(f, tgt_)
        np.maximum(lo, mu, out=lo, where=np.greater(g, _ZERO))
        np.minimum(hi, mu, out=hi, where=np.less(g, _ZERO))
        floor = np.maximum(hi, _TINY)
        floor *= _SPACING
        active = np.greater(np.abs(g), tol_)
        active &= np.greater(np.subtract(hi, lo), floor)
        keep = active.nonzero()[0]
        if keep.size < rows.size:
            out[rows] = mu  # final for the rows stopping now; the rest are rewritten
        if not keep.size:  # also ends an empty batch
            return out
        wqq *= q  # w q^3: phi'(mu) = f^(-3/2) sum w q^3
        step = np.sqrt(f)  # the Newton step f (1 - sqrt(f) / eps) / sum w q^3
        np.divide(step, eps_, out=step)
        np.subtract(_ONE, step, out=step)
        step *= f
        step /= _row_sums(wqq.T)
        newton = np.subtract(mu, step, out=step)
        del q, wqq  # freed before the next sweep allocates its own
        if keep.size < rows.size:
            rows, lo, hi, newton = (v[keep] for v in (rows, lo, hi, newton))
            if w_zero is not None:
                w_zero = w_zero.take(keep, axis=1)
        # lo and hi are never NaN, so a NaN or infinite Newton point fails
        # one of the two comparisons and the row bisects
        inside = np.greater(newton, lo)
        inside &= np.less(newton, hi)
        if np.count_nonzero(inside) == inside.size:
            mu = newton
        else:
            mid = np.add(lo, hi)
            mid *= _HALF
            mu = np.where(inside, newton, mid)
    raise np.linalg.LinAlgError(
        f"secular root did not converge in {MAX_ROOT_ITER} sweeps "
        f"for {rows.size} of {m} rows")


def _rows_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` rounded as for a row inside a batch: BLAS takes its
    matrix-vector path for a lone row, so one row is multiplied as two."""
    if x.shape[0] == 1:
        return (np.repeat(x, 2, axis=0) @ y)[:1]
    return x @ y


def worst_case_batch(a, b_batch: np.ndarray, eps: float):
    """Solve the inner maximization for many right-hand sides at once.

    Parameters
    ----------
    a : ndarray or SvdFactorization
        The model matrix; pass a precomputed factorization to amortize it.
    b_batch : ndarray, shape (m, p)
        Residual vectors, one per row.
    eps : float
        Perturbation budget.

    Returns
    -------
    deltas : ndarray, shape (m, n)
    gains : ndarray, shape (m,)
        Optimal objective values (worst-case loss minus ``||b||^2``).
    lams : ndarray, shape (m,)
        Dual variables.
    branches : ndarray of int, shape (m,)
        ``BRANCH_EASY``, ``BRANCH_HARD`` or ``BRANCH_DEGENERATE`` per row.

    Raises
    ------
    FloatingPointError
        If a row's weights ``(b'u_i sigma_i)^2`` overflow, which leaves no
        finite gain to report.
    """
    fact = a if isinstance(a, SvdFactorization) else svd_full(a)
    b_batch = np.asarray(b_batch, dtype=float)
    if b_batch.ndim != 2 or b_batch.shape[1] != fact.p:
        raise ValueError(f"b must have shape (m, {fact.p}), got {b_batch.shape}")
    if np.count_nonzero(np.isfinite(b_batch)) < b_batch.size:
        raise ValueError("b has non-finite entries")
    if eps < 0.0 or not math.isfinite(eps):
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    s = fact.singular_values
    m = b_batch.shape[0]
    r = s.size
    s1 = float(s[0]) if r else 0.0
    if eps == 0.0 or s1 <= 0.0:  # degenerate: delta = 0
        return (np.zeros((m, fact.n)), np.zeros(m), np.full(m, s1 * s1),
                np.full(m, BRANCH_DEGENERATE))

    # Overflow and its inf - inf are not errors here: a row whose weights
    # overflow raises below, an infinite gain is reported as inf, and a NaN
    # one reaches run_experiment's NaN check.  The root find's divisions by
    # zero are masked or bisected.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bu = _rows_matmul(b_batch, fact.u[:, :r])  # (m, r) components b'u_i
        w = (bu * s) ** 2
        top = s >= s1 - CLUSTER_RTOL * max(s1, 1.0)
        gaps = np.where(top, 0.0, (s1 - s) * (s1 + s))
        # The einsums round by the (m, r) layout; the row sums, here and in the
        # root find, are taken over an (r, m) copy, which replaces it.  The top
        # cluster is a prefix holding sigma_1; alone in it, sigma_1's weight is
        # the first term, as the row sum gives it.
        w_top = _row_dot(w, np.where(top, 1.0, 0.0)) if r > 1 and top[1] else w[:, 0].copy()
        s_low = _row_dot(w, np.where(top, 0.0, 1.0 / np.where(gaps > 0.0, gaps, 1.0) ** 2))
        w_rows = np.ascontiguousarray(w.T)
        del w
        wsum = _row_sums(w_rows.T)
        if np.count_nonzero(np.isfinite(wsum)) < wsum.size:
            raise FloatingPointError("inner-adversary weights overflow: residual too large")

        # Hard case: dual sticks at s1^2.  Requires the residual budget after the
        # pseudoinverse component, and a numerically-zero top-cluster weight
        # (otherwise stationarity at s1^2 is violated and the easy root exists).
        hard = s_low < eps * eps * (1.0 - HARD_MARGIN)
        any_hard = np.count_nonzero(hard) > 0
        if any_hard:
            hard &= np.sqrt(w_top) <= HARD_MARGIN * (s1 * s1 * eps + np.sqrt(wsum))
            any_hard = np.count_nonzero(hard) > 0

        # mu = lambda - s1^2: the secular root on easy rows, the root find's first
        # active set, and 0 on hard rows; either way the weights are held once.
        mu = _secular_mu(w_rows, gaps, eps, w_top, wsum, np.logical_not(hard).nonzero()[0])
        del w_rows  # block-sized and read no further
        # Stationarity gives delta's components in the right singular basis (first
        # r coordinates; the rest are always zero).  Top components of hard rows
        # have a zero denominator; the first top direction (sigma_1's) takes up the
        # budget the others leave.  coords is formed in place in one buffer.
        denom = np.add.outer(mu, gaps)
        positive = denom > 0.0
        coords = np.negative(bu)
        coords *= s
        np.divide(coords, denom, out=coords, where=positive)
        np.copyto(coords, 0.0, where=~positive)
        if any_hard:
            coords[hard, 0] = np.sqrt(np.maximum(eps * eps - s_low[hard], 0.0))

        # Objective evaluated in the singular basis: exact for the coordinates.
        gains = _row_dot(coords * coords, s * s) - 2.0 * _row_dot(coords * bu, s)
        deltas = _rows_matmul(coords, fact.v[:, :r].T)
    return deltas, gains, s1 * s1 + mu, np.where(hard, BRANCH_HARD, BRANCH_EASY)


def worst_case_perturbation(a, b, eps: float) -> PerturbationResult:
    """Global maximizer of the norm-constrained quadratic for one ``b``.

    Easy case: the dual solves the secular equation strictly above
    ``sigma_1^2`` and the perturbation follows from stationarity.  Hard
    case: the dual sticks at ``sigma_1^2`` and the perturbation is the
    pseudoinverse component plus a top right-singular direction scaled to
    exhaust the budget.  ``a = 0`` or ``eps = 0`` degenerate to
    ``delta = 0`` with zero gain.
    """
    b = np.asarray(b, dtype=float).reshape(-1)
    deltas, gains, lams, branches = worst_case_batch(a, b[None, :], eps)
    return PerturbationResult(
        delta=deltas[0],
        dual_lambda=float(lams[0]),
        objective_gain=float(gains[0]),
        branch=int(branches[0]),
    )
