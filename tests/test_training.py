import math

import numpy as np
import pytest

from advrisk.kalman import as_estimation_problem, kalman_estimator
from advrisk.experiments import rotation_system, shear_system
from advrisk.model import LinearInverseProblem, RngStream, TrainingDivergedError
from advrisk.risk import adversarial_risk_mc, standard_risk_closed
from advrisk.training import (
    TrainConfig,
    _ar_batch_grad,
    pareto_trace,
    problem_adapter,
    train,
)
from advrisk.trs import worst_case_batch


def make_problem(a_star, eps=0.5, sigma_x=None, sigma_w_scale=0.1):
    a_star = np.asarray(a_star, dtype=float)
    p, n = a_star.shape
    return LinearInverseProblem.from_matrices(
        a_star, np.eye(n) if sigma_x is None else sigma_x, sigma_w_scale * np.eye(p), eps
    )


def _worst_case_mean_loss(a, xs, ys, eps):
    """Batch mean of the worst-case loss ``||b||^2 + gain`` with ``b = y - A x``."""
    b = ys - xs @ a.T
    return float(np.mean((b * b).sum(axis=1) + worst_case_batch(a, b, eps)[1]))


def _central_difference(loss, a, h):
    numeric = np.zeros_like(a)
    for idx in np.ndindex(*a.shape):
        basis = np.zeros_like(a)
        basis[idx] = h
        numeric[idx] = (loss(a + basis) - loss(a - basis)) / (2 * h)
    return numeric


class TestAdversarialLossGrad:
    """The envelope gradient ``_ar_batch_grad`` that SGD steps along."""

    def test_zero_budget_is_least_squares_gradient(self, rng):
        a = rng.standard_normal((3, 2))
        x = rng.standard_normal(2)
        y = rng.standard_normal(3)
        grad = _ar_batch_grad(a, x[None, :], y[None, :], 0.0)
        assert np.allclose(grad, -2.0 * np.outer(y - a @ x, x), atol=1e-12)

    def test_zero_residual_zero_gradient(self):
        # only the degenerate model keeps the worst-case residual at zero
        a = np.zeros((2, 2))
        grad = _ar_batch_grad(a, np.array([[1.0, 2.0]]), np.zeros((1, 2)), 0.5)
        assert np.allclose(grad, 0.0)

    def test_matches_finite_differences(self, rng):
        # envelope gradient vs central differences of the max-value function
        worst = 0.0
        for _ in range(50):
            a = rng.standard_normal((3, 2))
            x = rng.standard_normal((1, 2))
            y = rng.standard_normal((1, 3))
            eps = float(rng.uniform(0.1, 1.0))
            numeric = _central_difference(lambda m: _worst_case_mean_loss(m, x, y, eps), a, 1e-6)
            worst = max(worst, np.abs(_ar_batch_grad(a, x, y, eps) - numeric).max())
        assert worst <= 1e-4

    def test_batch_mean_matches_finite_differences(self, rng):
        worst = 0.0
        for _ in range(20):
            p, n = (int(v) for v in rng.integers(1, 5, size=2))
            a = rng.standard_normal((p, n))
            xs = rng.standard_normal((16, n))
            ys = rng.standard_normal((16, p))
            eps = float(rng.uniform(0.1, 1.0))
            numeric = _central_difference(lambda m: _worst_case_mean_loss(m, xs, ys, eps), a,
                                          1e-5)
            worst = max(worst, np.abs(_ar_batch_grad(a, xs, ys, eps) - numeric).max())
        assert worst <= 1e-6

    @pytest.mark.parametrize("system", [rotation_system(0.95, horizon=5),
                                        shear_system(1.0, horizon=5)],
                             ids=["rotation", "shear"])
    def test_kalman_batch_matches_finite_differences(self, system):
        adapter = as_estimation_problem(system, system.horizon)
        ys, xk = adapter.draw(32, RngStream(3, 7), 0)
        l = 1.1 * adapter.nominal
        numeric = _central_difference(lambda m: _worst_case_mean_loss(m, ys, xk, 0.5), l, 1e-5)
        assert np.abs(_ar_batch_grad(l, ys, xk, 0.5) - numeric).max() <= 1e-6


class TestTrain:
    def test_sr_only_recovers_ground_truth(self, rng):
        prob = make_problem(rng.standard_normal((2, 2)))
        cfg = TrainConfig(lam=0.0, epsilon=0.5, n_iters=2000, step_c0=0.2, seed=1, init="zeros")
        a_hat = train(prob, cfg)
        assert np.linalg.norm(a_hat - prob.a_star) <= 1e-6

    def test_nominal_init_is_fixed_point_for_sr(self, rng):
        prob = make_problem(rng.standard_normal((2, 2)))
        cfg = TrainConfig(lam=0.0, epsilon=0.5, n_iters=50, seed=1)
        # gradient is exactly zero at the optimum; only the tail average rounds
        assert np.allclose(train(prob, cfg), prob.a_star, atol=1e-15)

    def test_pure_ar_zero_budget_stays_near_ground_truth(self, rng):
        prob = make_problem(rng.standard_normal((2, 2)), eps=0.0)
        cfg = TrainConfig(lam=math.inf, epsilon=0.0, n_iters=1500, batch_size=32, seed=2)
        a_hat = train(prob, cfg)
        assert cfg.pure_ar
        assert np.linalg.norm(a_hat - prob.a_star) <= 0.05

    def test_monotone_decrease_for_quadratic(self, rng):
        prob = make_problem(rng.standard_normal((2, 2)))
        losses = []
        cfg = TrainConfig(lam=0.0, epsilon=0.5, n_iters=200, step_c0=0.05, seed=3, init="zeros")
        train(prob, cfg, on_iterate=lambda t, a: losses.append(standard_risk_closed(a, prob)))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_implicit_regularization_shrinks_norm(self, rng):
        a_star = rng.standard_normal((5, 5)) * 0.5
        prob = LinearInverseProblem.from_matrices(a_star, 0.5 * np.eye(5), 0.1 * np.eye(5), 0.5)
        cfg = TrainConfig(lam=math.inf, epsilon=0.5, n_iters=1500, batch_size=32,
                          step_c0=0.01, seed=4)
        a_hat = train(prob, cfg)
        assert np.linalg.norm(a_hat) < np.linalg.norm(a_star)

    def test_divergence_guard(self, rng):
        prob = make_problem(rng.standard_normal((2, 2)))
        cfg = TrainConfig(lam=0.0, epsilon=0.5, n_iters=500, step_c0=50.0, seed=5, init="zeros")
        with pytest.raises(TrainingDivergedError, match="step"):
            train(prob, cfg)

    def test_estimation_adapter_recovers_nominal(self):
        system = rotation_system(0.95, horizon=5)
        adapter = as_estimation_problem(system, 5)
        cfg = TrainConfig(lam=0.0, epsilon=0.5, n_iters=120_000, step_c0=0.05,
                          seed=6, init="zeros")
        l_hat = train(adapter, cfg)
        assert np.linalg.norm(l_hat - kalman_estimator(system, 5)) <= 1e-4

    def test_config_validation(self):
        with pytest.raises(ValueError, match="step_decay"):
            TrainConfig(step_decay=0.3)
        with pytest.raises(ValueError, match="nonnegative"):
            TrainConfig(lam=-1.0)

    def test_nan_lam_rejected(self):
        with pytest.raises(ValueError, match="lam"):
            TrainConfig(lam=math.nan)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_epsilon_rejected(self, eps):
        with pytest.raises(ValueError, match="epsilon"):
            TrainConfig(epsilon=eps)

    def test_infinite_lam_is_pure_ar(self):
        assert TrainConfig(lam=math.inf).pure_ar and not TrainConfig(lam=1e300).pure_ar

    def test_given_matrix_init(self, rng):
        prob = make_problem(rng.standard_normal((2, 2)))
        start = rng.standard_normal((2, 2))
        cfg = TrainConfig(lam=0.0, epsilon=0.5, n_iters=2000, step_c0=0.2, seed=7, init=start)
        a_hat = train(prob, cfg)
        assert np.linalg.norm(a_hat - prob.a_star) <= 1e-6


class TestParetoTrace:
    def test_single_zero_lambda_point(self, rng):
        prob = make_problem(rng.standard_normal((2, 2)))
        cfg = TrainConfig(epsilon=0.5, n_iters=200, seed=8)
        points = pareto_trace(prob, [0.0], cfg, eval_samples=8000)
        assert len(points) == 1
        pt = points[0]
        assert np.isclose(pt.sr, standard_risk_closed(prob.a_star, prob), atol=1e-9)
        direct = adversarial_risk_mc(prob.a_star, prob, 8000, RngStream(8, 202))
        assert abs(pt.ar.mean - direct.mean) <= 3 * np.hypot(pt.ar.std_error, direct.std_error)

    def test_frontier_monotone(self, rng):
        prob = make_problem(rng.standard_normal((3, 3)))
        cfg = TrainConfig(epsilon=0.5, n_iters=900, batch_size=16, seed=9)
        grid = [0.0, 0.03, 0.3, 3.0, math.inf]
        points = pareto_trace(prob, grid, cfg, eval_samples=5000)
        srs = [pt.sr for pt in points]
        ars = [pt.ar.mean for pt in points]
        slack = [3 * pt.ar.std_error for pt in points]
        assert all(b >= a - 1e-9 for a, b in zip(srs, srs[1:]))
        assert all(ars[i + 1] <= ars[i] + slack[i] + slack[i + 1] for i in range(len(ars) - 1))

    def test_grid_validation(self, rng):
        prob = make_problem(rng.standard_normal((2, 2)))
        cfg = TrainConfig(epsilon=0.5, n_iters=10, seed=10)
        with pytest.raises(ValueError, match="nonempty"):
            pareto_trace(prob, [], cfg)
        with pytest.raises(ValueError, match="nondecreasing"):
            pareto_trace(prob, [1.0, 0.5], cfg)

    def test_zero_budget_trace_collapses(self):
        system = rotation_system(0.95, horizon=3)
        adapter = as_estimation_problem(system, 3)
        cfg = TrainConfig(epsilon=0.0, n_iters=300, seed=11)
        points = pareto_trace(adapter, [0.0, math.inf], cfg, eval_samples=6000)
        sr_nominal = adapter.sr_closed(adapter.nominal)
        for pt in points:
            assert abs(pt.sr - sr_nominal) <= 0.02
            assert abs(pt.ar.mean - pt.sr) <= 3 * pt.ar.std_error


def test_problem_adapter_hooks(rng):
    prob = make_problem(rng.standard_normal((2, 3)))
    adapter = problem_adapter(prob)
    assert adapter.nominal.shape == (2, 3)
    a = rng.standard_normal((2, 3))
    assert np.isclose(adapter.sr_closed(a), standard_risk_closed(a, prob))
    assert np.allclose(adapter.sr_grad(prob.a_star), 0.0)
    xs, ys = adapter.draw(8, RngStream(12), 0)
    assert xs.shape == (8, 3) and ys.shape == (8, 2)
