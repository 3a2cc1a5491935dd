"""Standard and adversarial risk estimation, and analytic gap bounds.

The standard risk of a linear model has a closed form; the adversarial risk
does not, so it is estimated by Monte Carlo with the exact inner-adversary
solve per sample.  The gap ``AR - SR`` is always estimated with common
random numbers: per sample, ``AR_i - SR_i`` equals the inner maximization's
objective gain, so the gap estimator is the sample mean of gains and needs
orders of magnitude fewer samples than differencing independent estimates.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import LinearInverseProblem, RngStream, check_fits_in_memory, sample_batch
from .trs import SvdFactorization, svd_full, worst_case_batch

DEFAULT_SAMPLES = 100_000
# Rows per Monte Carlo block.  Each block-sized work array holds 4 096 x width
# doubles (0.5 MB at width 16), so a block's working set stays near the L2
# cache and a pass's memory does not grow with n_samples.
_GEN_CHUNK = 4_096
# Samples per partial sum of a Monte Carlo mean.  Fixed shards, added in index
# order, pin the reduction tree, so a mean does not depend on the chunking.
_SUM_SHARD = 1_024

ISOTROPY_TOL = 1e-10


@dataclass(frozen=True)
class RiskEstimate:
    """Monte Carlo estimate with its standard error."""

    mean: float
    std_error: float


@dataclass(frozen=True)
class GapBounds:
    """Lower/upper bounds on ``AR(A) - SR(A)``.

    For the Monte Carlo variant both bounds share ``cross_term`` (an
    estimate of ``E ||A'(y - Ax)||``) and differ only in which extreme
    eigenvalue of ``A'A`` multiplies ``eps^2``.  For the closed-form
    variant at the ground truth with isotropic noise, ``cross_term`` is the
    lower bound's cross coefficient and the upper bound uses its own
    (Jensen) one.
    """

    lower: float
    upper: float
    lambda_min: float
    lambda_max: float
    cross_term: float
    cross_term_stderr: float


def mc_estimate(values: np.ndarray) -> RiskEstimate:
    """Wrap per-sample values: sharded mean plus standard error."""
    n = values.size
    total = 0.0
    for start in range(0, n, _SUM_SHARD):
        total += float(values[start : start + _SUM_SHARD].sum())
    stderr = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return RiskEstimate(mean=total / n, std_error=stderr)


def _extreme_eigs(fact: SvdFactorization) -> tuple[float, float]:
    """(min, max) eigenvalues of ``A'A`` from the SVD; zero when wide."""
    s = fact.singular_values
    lam_max = float(s[0] ** 2)
    lam_min = float(s[-1] ** 2) if fact.p >= fact.n else 0.0
    return lam_min, lam_max


def standard_risk_closed(a, problem: LinearInverseProblem) -> float:
    """``tr(sigma_w) + tr((A - A*) sigma_x (A - A*)')``."""
    a = np.asarray(a, dtype=float)
    if a.shape != problem.a_star.shape:
        raise ValueError(f"model shape {a.shape} != problem shape {problem.a_star.shape}")
    diff = a - problem.a_star
    return float(np.trace(problem.sigma_w.matrix) + np.sum((diff @ problem.sigma_x.matrix) * diff))


def _mc_columns(a, draw, n_samples, stream, base_index, eps, want):
    """One streaming Monte Carlo pass over the residuals ``b = target - A input``.

    ``draw(count, stream, base_index) -> (inputs, targets)`` must give row
    ``i`` from the counter block of sample ``base_index + i``, so the
    columns do not depend on the chunking.  ``want`` selects columns from
    {"sq", "gain", "value", "cross"}: sq = ``||b||^2``, gain = AR_i - SR_i
    from the exact inner adversary, value = sq + gain (the worst-case loss),
    cross = ``||A'b||``.  Returns the SVD of ``a``, shared by every chunk,
    and the columns.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    check_fits_in_memory(8 * n_samples * len(want),
                         f"{len(want)} x {n_samples} Monte Carlo values")
    a = np.asarray(a, dtype=float)
    fact = svd_full(a)
    out = {key: np.empty(n_samples) for key in want}
    for start in range(0, n_samples, _GEN_CHUNK):
        cnt = min(_GEN_CHUNK, n_samples - start)
        # a 1-row matmul takes BLAS's matrix-vector path, which rounds unlike
        # the same row in a larger call: draw and solve 2 rows, keep cnt
        inputs, targets = draw(max(cnt, 2), stream, base_index + start)
        b = inputs @ a.T
        np.subtract(targets, b, out=b)
        cols = {"sq": (b * b).sum(axis=1)}
        if "gain" in out or "value" in out:
            cols["gain"] = worst_case_batch(fact, b, eps)[1]
            cols["value"] = cols["sq"] + cols["gain"]
        if "cross" in out:
            cols["cross"] = np.linalg.norm(b @ a, axis=1)
        for key, col in out.items():
            col[start : start + cnt] = cols[key][:cnt]
    return fact, out


def mc_mean(a, draw, n_samples, stream, base_index, eps, column) -> RiskEstimate:
    """Estimate the mean of one ``_mc_columns`` column."""
    _, out = _mc_columns(a, draw, n_samples, stream, base_index, eps, (column,))
    return mc_estimate(out[column])


def adversarial_risk_mc(
    a,
    problem: LinearInverseProblem,
    n_samples: int = DEFAULT_SAMPLES,
    stream: RngStream = RngStream(0),
    base_index: int = 0,
) -> RiskEstimate:
    """Monte Carlo adversarial risk: per sample ``||b||^2`` plus the exact
    inner-adversary gain, with one SVD of ``a`` shared by all samples."""
    return mc_mean(a, partial(sample_batch, problem), n_samples, stream, base_index,
                   problem.epsilon, "value")


def ar_sr_gap_mc(
    a,
    problem: LinearInverseProblem,
    n_samples: int = DEFAULT_SAMPLES,
    stream: RngStream = RngStream(0),
    base_index: int = 0,
) -> RiskEstimate:
    """Common-random-number estimate of ``AR(A) - SR(A)``.

    Pathwise the difference is exactly the inner maximization's gain, which
    is nonnegative, so this estimator is far tighter than differencing two
    independent risk estimates.
    """
    return mc_mean(a, partial(sample_batch, problem), n_samples, stream, base_index,
                   problem.epsilon, "gain")


def gap_bounds_mc(
    a,
    problem: LinearInverseProblem,
    n_samples: int = DEFAULT_SAMPLES,
    stream: RngStream = RngStream(0),
    base_index: int = 0,
) -> GapBounds:
    """Sandwich bounds ``2 eps E||A'(y-Ax)|| + eps^2 lambda_{min/max}(A'A)``.

    The cross term is estimated by Monte Carlo; the eigenvalue extremes come
    from the SVD (``lambda_min = 0`` for wide matrices, whose Gram matrix is
    rank deficient).
    """
    eps = problem.epsilon
    fact, out = _mc_columns(a, partial(sample_batch, problem), n_samples, stream, base_index, eps,
                            ("cross",))
    est = mc_estimate(out["cross"])
    lam_min, lam_max = _extreme_eigs(fact)
    return GapBounds(
        lower=2.0 * eps * est.mean + eps * eps * lam_min,
        upper=2.0 * eps * est.mean + eps * eps * lam_max,
        lambda_min=lam_min,
        lambda_max=lam_max,
        cross_term=est.mean,
        cross_term_stderr=est.std_error,
    )


def isotropic_scale(cov: np.ndarray) -> float | None:
    """Return ``c`` if ``cov == c * I`` within ``ISOTROPY_TOL``, else None."""
    cov = np.asarray(cov, dtype=float)
    c = float(np.trace(cov)) / cov.shape[0]
    if np.abs(cov - c * np.eye(cov.shape[0])).max() > ISOTROPY_TOL:
        return None
    return c


def astar_gap_bounds(problem: LinearInverseProblem) -> GapBounds:
    """Closed-form gap bounds at the ground truth under isotropic noise.

    Lower: ``2 eps sigma_w sqrt(2/(pi p)) * (nuclear norm of A*) + eps^2
    lambda_min``; upper: ``2 eps sigma_w sqrt(tr(A*'A*)) + eps^2
    lambda_max``.  The nuclear norm equals the trace of the symmetric square
    root of ``A*'A*``.
    """
    scale = isotropic_scale(problem.sigma_w.matrix)
    if scale is None:
        raise ValueError("sigma_w must be isotropic (sigma_w^2 * I) for the closed-form bounds")
    sigma_w = float(np.sqrt(scale))
    eps = problem.epsilon
    fact = svd_full(problem.a_star)
    s = fact.singular_values
    lam_min, lam_max = _extreme_eigs(fact)
    nuclear = float(s.sum())
    cross_lower = sigma_w * np.sqrt(2.0 / (np.pi * problem.p)) * nuclear
    cross_upper = sigma_w * float(np.sqrt((s * s).sum()))
    return GapBounds(
        lower=2.0 * eps * cross_lower + eps * eps * lam_min,
        upper=2.0 * eps * cross_upper + eps * eps * lam_max,
        lambda_min=lam_min,
        lambda_max=lam_max,
        cross_term=cross_lower,
        cross_term_stderr=0.0,
    )


def with_epsilon(problem: LinearInverseProblem, epsilon: float) -> LinearInverseProblem:
    """Copy of the problem with a different adversarial budget."""
    return dataclasses.replace(problem, epsilon=float(epsilon))
