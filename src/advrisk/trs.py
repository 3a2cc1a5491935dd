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
of ``A`` serves an entire Monte Carlo batch.
"""

from __future__ import annotations

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
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    u, s, vt = np.linalg.svd(a, full_matrices=True)
    return SvdFactorization(u=u, singular_values=s, v=vt.T)


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` per row, summed the same way whatever rows share the batch
    (BLAS gemv rounds by a row's place in the batch)."""
    return np.einsum("ij,j->i", x, y)


def _secular_mu(w: np.ndarray, gaps: np.ndarray, eps: float, w_top: np.ndarray,
                wsum: np.ndarray) -> np.ndarray:
    """Vectorized root find for f(mu) = sum_i w_i / (mu + gaps_i)^2 = eps^2.

    ``mu = lambda - sigma_1^2`` is the distance of the dual variable above
    the top squared singular value; ``gaps_i = sigma_1^2 - sigma_i^2 >= 0``.
    Working in ``mu`` keeps every denominator an exact sum of nonnegative
    quantities, so near-hard instances lose no precision to cancellation.
    ``w_top`` and ``wsum`` are each row's weight on the zero gaps and its
    total weight, which the caller has summed already; they bracket the root.

    Requires each row to satisfy f(0+) >= eps^2 (easy-case condition).
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
    lo = np.sqrt(w_top) / eps  # f(lo) >= tgt: top terms alone contribute eps^2
    hi = np.sqrt(wsum) / eps  # f(hi) <= tgt: all terms at the top gap
    # A row stops for good in the sweep that meets its tolerance, with that
    # sweep's mu, so later sweeps run over the rows still active only.  Row
    # sums of C-ordered rows round the same whatever rows surround them, so
    # every root keeps its bits.
    m = lo.size
    out = np.empty(m)
    rows = np.arange(m)
    mu = lo.copy()
    # mu >= 0 and gaps >= 0, so a denominator is zero only where mu = 0 meets a
    # top gap, i.e. in a row whose top weights are all zero; the mask zeroes q
    # there (1/0 = inf) as on every other zero weight.
    w_zero = ~(w > 0.0)
    tol = ROOT_RTOL * tgt
    spacing = np.finfo(float).eps
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(MAX_ROOT_ITER):
            q = mu[:, None] + gaps[None, :]
            np.divide(1.0, q, out=q)
            np.copyto(q, 0.0, where=w_zero)
            wqq = w * q
            wqq *= q
            f = wqq.sum(axis=1)
            g = f - tgt
            np.maximum(lo, mu, out=lo, where=g > 0.0)
            np.minimum(hi, mu, out=hi, where=g < 0.0)
            active = (np.abs(g) > tol) & ((hi - lo) > spacing * np.maximum(hi, 1e-300))
            keep = np.flatnonzero(active)
            if keep.size < rows.size:
                out[rows] = mu  # final for the rows stopping now; the rest are rewritten
            if not keep.size:  # also ends an empty batch
                return out
            wqq *= q  # w q^3: phi'(mu) = f^(-3/2) sum w q^3
            newton = mu - f * (1.0 - np.sqrt(f) / eps) / wqq.sum(axis=1)
            if keep.size < rows.size:
                rows, mu, lo, hi, newton = (v[keep] for v in (rows, mu, lo, hi, newton))
                w, w_zero = w[keep], w_zero[keep]
            inside = np.isfinite(newton) & (newton > lo) & (newton < hi)
            mu = np.where(inside, newton, 0.5 * (lo + hi))
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
    if not np.all(np.isfinite(b_batch)):
        raise ValueError("b has non-finite entries")
    if eps < 0.0 or not np.isfinite(eps):
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    s = fact.singular_values
    m = b_batch.shape[0]
    r = s.size
    s1 = float(s[0]) if r else 0.0
    if eps == 0.0 or s1 <= 0.0:  # degenerate: delta = 0
        return (np.zeros((m, fact.n)), np.zeros(m), np.full(m, s1 * s1),
                np.full(m, BRANCH_DEGENERATE))

    bu = _rows_matmul(b_batch, fact.u[:, :r])  # (m, r) components b'u_i
    w = (bu * s) ** 2
    top = s >= s1 - CLUSTER_RTOL * max(s1, 1.0)
    gaps = np.where(top, 0.0, (s1 - s) * (s1 + s))
    wsum = w.sum(axis=1)
    if not np.all(np.isfinite(wsum)):
        raise FloatingPointError("inner-adversary weights overflow: residual too large")
    w_top = _row_dot(w, np.where(top, 1.0, 0.0))
    s_low = _row_dot(w, np.where(top, 0.0, 1.0 / np.where(gaps > 0.0, gaps, 1.0) ** 2))

    # Hard case: dual sticks at s1^2.  Requires the residual budget after the
    # pseudoinverse component, and a numerically-zero top-cluster weight
    # (otherwise stationarity at s1^2 is violated and the easy root exists).
    hard = (s_low < eps * eps * (1.0 - HARD_MARGIN)) & (
        np.sqrt(w_top) <= HARD_MARGIN * (s1 * s1 * eps + np.sqrt(wsum))
    )

    # mu = lambda - s1^2: the secular root on easy rows, 0 on hard rows.  With
    # every row easy the batch is solved whole, with no gathers.
    easy = np.flatnonzero(~hard) if hard.any() else slice(None)
    mu = np.zeros(m)
    mu[easy] = _secular_mu(w[easy], gaps, eps, w_top[easy], wsum[easy])
    # Stationarity gives delta's components in the right singular basis (first
    # r coordinates; the rest are always zero).  Top components of hard rows
    # have a zero denominator; the first top direction takes up the budget the
    # others leave.
    denom = mu[:, None] + gaps
    coords = np.where(denom > 0.0, -bu * s / np.where(denom > 0.0, denom, 1.0), 0.0)
    coords[hard, int(np.argmax(top))] = np.sqrt(np.maximum(eps * eps - s_low[hard], 0.0))

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
