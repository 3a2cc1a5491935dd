"""Finite-horizon state estimation under adversarial measurement attacks.

An LTI system ``x_{t+1} = A x_t + w_t``, ``y_t = C x_t + v_t`` observed over
``t = 0..N`` stacks into a linear inverse problem: the stacked measurement
vector is ``Y = Obs x_0 + Toep W``, the target state is ``x_k = A^k x_0 +
Gamma_k W``, and a linear estimator ``L`` maps ``Y`` to a state estimate.
This module provides the stacked matrices, the observability gramian, the
closed-form minimum-mean-square estimator (filter for ``k = N``, smoother
for ``k < N``) in both stacked and recursive forms, Monte Carlo adversarial
risks, and analytic bounds on the adversarial-standard risk gap driven by
the gramian's spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import (
    CovarianceSpec,
    RngStream,
    check_fits_in_memory,
    cholesky_factor,
    frozen_array,
    validate_covariance,
)
from .risk import RiskEstimate, mc_mean
from .training import EstimationProblem

REGIME_HIGH = "high_observability"
REGIME_LOW = "low_observability"

_HALF_NORMAL = np.sqrt(2.0 / np.pi)


@dataclass(frozen=True, eq=False)
class LtiSystem:
    """LTI tuple ``(A, C, Sigma_0, Sigma_w, Sigma_v, N)``.

    ``sigma_w`` is the per-step process noise covariance (n x n) and
    ``sigma_v`` the per-step measurement noise covariance (p x p).  ``a``
    and ``c`` are read-only copies of the inputs.
    """

    a: np.ndarray
    c: np.ndarray
    sigma0: CovarianceSpec
    sigma_w: CovarianceSpec
    sigma_v: CovarianceSpec
    horizon: int

    def __post_init__(self):
        a = frozen_array(self.a)
        c = frozen_array(self.c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        for name, mat in (("a", a), ("c", c)):
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"{name} has non-finite entries")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"dynamics matrix must be square, got {a.shape}")
        n = a.shape[0]
        if c.ndim != 2 or c.shape[1] != n:
            raise ValueError(f"measurement matrix must have {n} columns, got {c.shape}")
        for name, spec, dim in (
            ("sigma0", self.sigma0, n),
            ("sigma_w", self.sigma_w, n),
            ("sigma_v", self.sigma_v, c.shape[0]),
        ):
            if spec.dim != dim:
                raise ValueError(f"{name} is {spec.dim}x{spec.dim}, expected {dim}x{dim}")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        # The stacked noise blocks, (nN)^2 and (p(N+1))^2 doubles, are built
        # twice (covariances and colouring factors); a horizon whose blocks
        # cannot fit in physical memory is refused before any is built.
        check_fits_in_memory(
            16 * ((n * self.horizon) ** 2 + (c.shape[0] * (self.horizon + 1)) ** 2),
            f"horizon {self.horizon}'s stacked arrays")

    @classmethod
    def from_matrices(cls, a, c, sigma0, sigma_w, sigma_v, horizon) -> "LtiSystem":
        return cls(
            a=np.asarray(a, dtype=float),
            c=np.asarray(c, dtype=float),
            sigma0=validate_covariance(sigma0, strict=True, name="sigma0"),
            sigma_w=validate_covariance(sigma_w, strict=True, name="sigma_w"),
            sigma_v=validate_covariance(sigma_v, strict=True, name="sigma_v"),
            horizon=int(horizon),
        )

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def p(self) -> int:
        return self.c.shape[0]


def _stacked_noise(initial, process, measurement, horizon: int):
    """``(initial, I_N (x) process, I_{N+1} (x) measurement)``: the stacked
    noise covariances, or their colouring factors in the same layout."""
    return (initial, np.kron(np.eye(horizon), process),
            np.kron(np.eye(horizon + 1), measurement))


@dataclass(frozen=True, eq=False)
class StackedModel:
    """Stacked matrices for horizon ``N`` and estimation index ``k``.

    ``Y = obs @ x0 + toeplitz @ W`` and ``x_k = a_pow_k @ x0 + gamma_k @ W``
    hold exactly, with ``W`` the ``n*N`` stacked process noise.
    """

    obs: np.ndarray
    toeplitz: np.ndarray
    gamma_k: np.ndarray
    a_pow_k: np.ndarray


def _powers(a: np.ndarray, top: int) -> list[np.ndarray]:
    pows = [np.eye(a.shape[0])]
    for _ in range(top):
        pows.append(a @ pows[-1])
    return pows


def _observability_matrix(c: np.ndarray, pows: list[np.ndarray]) -> np.ndarray:
    """``[C; C A; ...; C A^t]`` from the powers ``[I, A, ..., A^t]``."""
    return np.vstack([c @ pw for pw in pows])


def _check_k(system: LtiSystem, k: int) -> None:
    if not 0 <= k <= system.horizon:
        raise ValueError(f"k must lie in [0, {system.horizon}], got {k}")


def build_stacked(system: LtiSystem, k: int) -> StackedModel:
    """Observability matrix, noise Toeplitz, and state-impulse blocks."""
    _check_k(system, k)
    horizon = system.horizon
    n, p = system.n, system.p
    pows = _powers(system.a, horizon)
    obs = _observability_matrix(system.c, pows)
    toeplitz = np.zeros((p * (horizon + 1), n * horizon))
    for t in range(1, horizon + 1):
        for j in range(t):
            toeplitz[t * p : (t + 1) * p, j * n : (j + 1) * n] = system.c @ pows[t - 1 - j]
    gamma_k = np.zeros((n, n * horizon))
    for j in range(k):
        gamma_k[:, j * n : (j + 1) * n] = pows[k - 1 - j]
    return StackedModel(obs=obs, toeplitz=toeplitz, gamma_k=gamma_k, a_pow_k=pows[k])


@dataclass(frozen=True, eq=False)
class GramianSummary:
    """Observability gramian ``Obs' Obs`` with its spectral summaries.

    ``min_singular_value`` is ``sqrt(lambda_min)``: the smallest singular
    value of the observability matrix itself, the quantity that enters the
    estimator bounds.
    """

    gramian: np.ndarray
    lambda_min: float
    frobenius: float

    @property
    def min_singular_value(self) -> float:
        return float(np.sqrt(max(self.lambda_min, 0.0)))


def observability_gramian(system: LtiSystem, n_steps: int | None = None) -> GramianSummary:
    """Gramian over ``t = 0..n_steps`` (defaults to the system horizon)."""
    steps = system.horizon if n_steps is None else int(n_steps)
    if steps < 0:
        raise ValueError("n_steps must be >= 0")
    # An overflow leaves the norm non-finite, and raises here rather than
    # reach the bounds (an infinite norm would make kalman_gap_lower_bound 0).
    with np.errstate(over="ignore", invalid="ignore"):
        obs = _observability_matrix(system.c, _powers(system.a, steps))
        gram = obs.T @ obs
        gram = 0.5 * (gram + gram.T)
        frobenius = np.linalg.norm(gram, "fro")
    if not np.isfinite(frobenius):
        raise FloatingPointError("the observability gramian overflows: the system's scale "
                                 "is too large")
    return GramianSummary(
        gramian=gram,
        lambda_min=float(np.linalg.eigvalsh(gram)[0]),
        frobenius=float(frobenius),
    )


def is_observable(system: LtiSystem) -> bool:
    """Rank test on the ``n-1``-step observability matrix via SVD."""
    obs = _observability_matrix(system.c, _powers(system.a, system.n - 1))
    s = np.linalg.svd(obs, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return False
    return bool(np.sum(s > 1e-10 * s[0]) == system.n)


def _mmse(system: LtiSystem, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(L, G_yy, G_xy)``: the minimum-mean-square estimator ``L`` of
    ``x_k`` with the second moments it solves, ``G_yy`` the covariance of the
    stacked measurements and ``G_xy`` its cross term with ``x_k``."""
    # Every power of A up to the horizon enters obs, so an overflow anywhere in
    # the stacked model leaves G_yy or G_xy non-finite and raises here; later
    # builds of the same stacked model then overflow nowhere.
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = build_stacked(system, k)
        sigma0, iw, iv = _stacked_noise(system.sigma0.matrix, system.sigma_w.matrix,
                                       system.sigma_v.matrix, system.horizon)
        obs, tau = stacked.obs, stacked.toeplitz
        g_yy = obs @ sigma0 @ obs.T + tau @ iw @ tau.T + iv
        g_xy = stacked.a_pow_k @ sigma0 @ obs.T + stacked.gamma_k @ iw @ tau.T
    if not (np.isfinite(g_yy).all() and np.isfinite(g_xy).all()):
        raise FloatingPointError("the stacked second moments G_yy, G_xy overflow: the "
                                 "system's scale is too large")
    return np.linalg.solve(g_yy.T, g_xy.T).T, g_yy, g_xy


def kalman_estimator(system: LtiSystem, k: int) -> np.ndarray:
    """Minimum-mean-square linear estimator of ``x_k`` from the stacked ``Y``.

    Filter for ``k = N``, smoother for ``k < N``.  Computed from the joint
    second moments; the measurement-noise term keeps the solve well posed.
    """
    return _mmse(system, k)[0]


def recursive_kf(system: LtiSystem, measurements) -> list[np.ndarray]:
    """Recursive filter pass; returns the filtered means for ``k = 0..N``.

    Independent of the stacked form: propagates mean and covariance step by
    step, with the covariance symmetrized after each update.
    """
    ys = [np.asarray(y, dtype=float).reshape(-1) for y in measurements]
    if len(ys) != system.horizon + 1:
        raise ValueError(f"expected {system.horizon + 1} measurements, got {len(ys)}")
    a, c = system.a, system.c
    x_pred = np.zeros(system.n)
    p_pred = system.sigma0.matrix.copy()
    out = []
    for y in ys:
        innov_cov = c @ p_pred @ c.T + system.sigma_v.matrix
        try:
            gain = np.linalg.solve(innov_cov.T, (p_pred @ c.T).T).T
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError("innovation covariance is singular") from exc
        x_post = x_pred + gain @ (y - c @ x_pred)
        p_post = p_pred - gain @ c @ p_pred
        p_post = 0.5 * (p_post + p_post.T)
        out.append(x_post)
        x_pred = a @ x_post
        p_pred = a @ p_post @ a.T + system.sigma_w.matrix
        p_pred = 0.5 * (p_pred + p_pred.T)
    return out


def _check_estimator_shape(l, system: LtiSystem) -> np.ndarray:
    l = np.asarray(l, dtype=float)
    expected = (system.n, system.p * (system.horizon + 1))
    if l.shape != expected:
        raise ValueError(f"estimator shape {l.shape} != {expected}")
    return l


def _residual_terms(l, system: LtiSystem, k: int):
    """The residual ``x_k - L Y`` as three (map, noise covariance) pairs:
    initial-state mismatch, process-noise mismatch, and measurement noise."""
    l = _check_estimator_shape(l, system)
    stacked = build_stacked(system, k)
    sigma0, iw, iv = _stacked_noise(system.sigma0.matrix, system.sigma_w.matrix,
                                   system.sigma_v.matrix, system.horizon)
    return (
        (stacked.a_pow_k - l @ stacked.obs, sigma0),
        (stacked.gamma_k - l @ stacked.toeplitz, iw),
        (l, iv),
    )


def estimator_sr_closed(l, system: LtiSystem, k: int) -> float:
    """Standard risk ``E ||x_k - L Y||^2`` in closed form.

    Sum of three weighted Frobenius norms: initial-state mismatch, process
    noise mismatch, and measurement noise amplification.  As in
    ``risk.standard_risk_closed``, an overflow is reported as inf, and a NaN
    reaches run_experiment's NaN check.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        term0, term_w, term_v = (np.sum((m @ noise) * m)
                                 for m, noise in _residual_terms(l, system, k))
        return float(term0 + term_w + term_v)


def residual_covariance(l, system: LtiSystem, k: int) -> CovarianceSpec:
    """Covariance of the estimation residual ``x_k - L Y`` (n x n, PSD)."""
    term0, term_w, term_v = (m @ noise @ m.T for m, noise in _residual_terms(l, system, k))
    return validate_covariance(term0 + term_w + term_v, name="residual covariance")


def simulate_rollouts(
    system: LtiSystem,
    k: int,
    count: int,
    stream: RngStream,
    base_index: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``(Y, x_k)`` pairs from the stacked model.

    Row ``i`` is generated from the counter block of rollout
    ``base_index + i``; draws are shard-invariant.
    """
    stacked = build_stacked(system, k)
    l0, lw, lv = _stacked_noise(cholesky_factor(system.sigma0), cholesky_factor(system.sigma_w),
                                cholesky_factor(system.sigma_v), system.horizon)
    n, p, horizon = system.n, system.p, system.horizon
    width = n + n * horizon + p * (horizon + 1)
    z = stream.normal_block(base_index, count, width)
    x0 = z[:, :n] @ l0.T
    w = z[:, n : n + n * horizon] @ lw.T
    v = z[:, n + n * horizon :] @ lv.T
    del z
    ys = x0 @ stacked.obs.T
    ys += w @ stacked.toeplitz.T
    ys += v
    xk = x0 @ stacked.a_pow_k.T
    xk += w @ stacked.gamma_k.T
    return ys, xk


def _rollout_mean(l, system, k, epsilon, n_samples, stream, base_index, column):
    l = _check_estimator_shape(l, system)
    draw = partial(simulate_rollouts, system, k)
    return mc_mean(l, draw, n_samples, stream, base_index, epsilon, column)


def estimator_sr_mc(
    l, system: LtiSystem, k: int, n_samples: int, stream: RngStream, base_index: int = 0
) -> RiskEstimate:
    """Monte Carlo standard risk over simulated rollouts (cross-check)."""
    return _rollout_mean(l, system, k, 0.0, n_samples, stream, base_index, "sq")


def estimator_ar_mc(
    l,
    system: LtiSystem,
    k: int,
    epsilon: float,
    n_samples: int,
    stream: RngStream,
    base_index: int = 0,
) -> RiskEstimate:
    """Monte Carlo adversarial risk of an estimator.

    Per rollout the residual ``b = x_k - L Y`` feeds the exact inner
    adversary (one SVD of ``L`` shared across rollouts); the worst-case loss
    is ``||b||^2`` plus the gain.
    """
    return _rollout_mean(l, system, k, epsilon, n_samples, stream, base_index, "value")


def estimator_gap_mc(
    l,
    system: LtiSystem,
    k: int,
    epsilon: float,
    n_samples: int,
    stream: RngStream,
    base_index: int = 0,
) -> RiskEstimate:
    """Common-random-number estimate of ``AR(L) - SR(L)`` (mean gain)."""
    return _rollout_mean(l, system, k, epsilon, n_samples, stream, base_index, "gain")


def gap_lower_bounds(l, system: LtiSystem, k: int, epsilon: float) -> tuple[float, float]:
    """Analytic lower bounds on ``AR(L) - SR(L)``: (general, frobenius).

    General: ``2 sqrt(2/pi) (eps/sqrt(n)) tr((L' Cov(x_k - LY) L)^{1/2})``.
    Frobenius (cruder): replace the trace term by
    ``sqrt(lambda_min(sigma_v)) ||L||_F^2``.
    Raises ``FloatingPointError`` if either overflows: a lower bound of inf
    would claim too much.
    """
    l = _check_estimator_shape(l, system)
    cov = residual_covariance(l, system, k).matrix
    inner = l.T @ cov @ l
    eigs = np.clip(np.linalg.eigvalsh(0.5 * (inner + inner.T)), 0.0, None)
    with np.errstate(over="raise"):
        scale = _HALF_NORMAL * 2.0 * epsilon / np.sqrt(system.n)
        general = scale * float(np.sqrt(eigs).sum())
        sv_min = float(np.linalg.eigvalsh(system.sigma_v.matrix)[0])
        frobenius = scale * np.sqrt(sv_min) * float(np.sum(l * l))
    return general, frobenius


def gap_upper_bound_general(l, system: LtiSystem, k: int, epsilon: float) -> float:
    """``2 eps ||L||_2 ||Cov^{1/2}||_F + eps^2 ||L||_2^2`` with the residual
    covariance; its root-Frobenius norm is ``sqrt(tr(Cov))``."""
    l = _check_estimator_shape(l, system)
    cov = residual_covariance(l, system, k).matrix
    spec_norm = float(np.linalg.svd(l, compute_uv=False)[0])
    root_fro = float(np.sqrt(max(np.trace(cov), 0.0)))
    return 2.0 * epsilon * spec_norm * root_fro + epsilon * epsilon * spec_norm * spec_norm


def _nominal_spectra(system: LtiSystem, k: int):
    """``(gramian, sigma_v, sigma_bar, state)``: the observability gramian and
    the (min, max) eigenvalues, as numpy scalars, of ``Sigma_v``, of
    ``Sigma_bar = blockdiag(Sigma_0, I_N (x) Sigma_w)`` and of ``Cov(x_k) =
    A^k Sigma_0 (A^k)' + sum_{i=1}^k A^{k-i} Sigma_w (A^{k-i})'``."""
    _check_k(system, k)
    gram = observability_gramian(system)
    sv = np.linalg.eigvalsh(system.sigma_v.matrix)
    e0 = np.linalg.eigvalsh(system.sigma0.matrix)
    ew = np.linalg.eigvalsh(system.sigma_w.matrix) if system.horizon else e0
    pows = _powers(system.a, k)
    state = pows[k] @ system.sigma0.matrix @ pows[k].T
    for i in range(1, k + 1):
        state = state + pows[k - i] @ system.sigma_w.matrix @ pows[k - i].T
    sx = np.linalg.eigvalsh(0.5 * (state + state.T))
    return (gram, (sv[0], sv[-1]), (min(e0[0], ew[0]), max(e0[-1], ew[-1])),
            (sx[0], sx[-1]))


def kalman_gap_lower_bound(system: LtiSystem, k: int, epsilon: float) -> float:
    """System-level lower bound on the gap at the nominal estimator.

    Grows as the gramian's Frobenius norm shrinks: uniformly poor
    observability forces a high-gain estimator, which an adversary
    exploits.  The state-noise factor is computed as an exact minimum
    eigenvalue, so the bound applies to arbitrary dynamics; under isotropic
    covariances with scaled-orthogonal dynamics it reduces to
    ``rho^(2k) sigma_0^2 + sigma_w^2 sum_{j=0}^{k-1} rho^(2j)``.
    Raises ``FloatingPointError`` if it overflows, as ``gap_lower_bounds``.
    """
    gram, (sv_min, sv_norm), (_, bar_max), (noise_floor, _) = _nominal_spectra(system, k)
    try:
        with np.errstate(over="raise"):  # an infinite denominator would make the bound 0
            ratio = noise_floor / ((system.horizon + 1) * bar_max * gram.frobenius + sv_norm)
            return (_HALF_NORMAL * 2.0 * epsilon / np.sqrt(system.n) * np.sqrt(sv_min)
                    * np.sum(system.c * system.c) * ratio**2)
    except FloatingPointError as exc:
        raise FloatingPointError("kalman_gap_lower_bound overflows: the system's scale is "
                                 "too large") from exc


def kalman_gap_upper_bound(system: LtiSystem, k: int, epsilon: float) -> tuple[float, str]:
    """System-level upper bound on the gap at the nominal estimator.

    Returns ``(value, regime)``.  The estimator's gain is controlled by the
    smallest singular value of the whitened measurement map, bounded below
    by ``sqrt(lambda_min(gramian)) * lambda_min(Sigma_bar)``; when that
    exceeds the measurement noise scale the refined (high-observability)
    form applies.  The bound decreases as ``lambda_min`` of the gramian
    grows.
    """
    gram, (sv_min, sv_norm), (bar_min, bar_max), (_, nu) = _nominal_spectra(system, k)
    s_floor = gram.min_singular_value * bar_min
    if s_floor <= 0.0:
        return float("inf"), REGIME_LOW
    if s_floor >= np.sqrt(sv_min):
        beta = s_floor / (s_floor * s_floor + sv_min)
        regime = REGIME_HIGH
    else:
        beta = 1.0 / s_floor
        regime = REGIME_LOW
    with np.errstate(over="ignore"):  # a bound beyond the float range is inf; nu, beta > 0
        value = (
            epsilon
            * nu
            * beta
            * (2.0 * np.sqrt(system.n) * np.sqrt(bar_max + sv_norm * beta * beta) + epsilon * beta)
        )
    return float(value), regime


def as_estimation_problem(system: LtiSystem, k: int) -> EstimationProblem:
    """Adapter exposing state estimation to the trainers.

    The estimator plays the model role, the stacked measurements the input
    role, and the target state the output role, so robust smoothers can be
    trained and frontier-traced with the same machinery as the plain
    measurement model.
    """
    nominal, g_yy, g_xy = _mmse(system, k)

    def sr_grad(l):
        return 2.0 * (l @ g_yy - g_xy)

    def ar_mc(l, eps, n_samples, stream):
        return estimator_ar_mc(l, system, k, eps, n_samples, stream)

    return EstimationProblem(
        nominal=nominal,
        draw=partial(simulate_rollouts, system, k),
        sr_closed=lambda l: estimator_sr_closed(l, system, k),
        sr_grad=sr_grad,
        ar_mc=ar_mc,
        input_scale=float(np.linalg.eigvalsh(0.5 * (g_yy + g_yy.T))[-1]),
    )
