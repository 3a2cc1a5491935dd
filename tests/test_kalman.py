import numpy as np
import pytest

from advrisk.kalman import (
    LtiSystem,
    _joint,
    as_estimation_problem,
    build_stacked,
    estimator_ar_mc,
    estimator_gap_mc,
    estimator_sr_closed,
    estimator_sr_mc,
    gap_lower_bounds,
    gap_upper_bound_general,
    is_observable,
    kalman_estimator,
    kalman_gap_lower_bound,
    kalman_gap_upper_bound,
    observability_gramian,
    recursive_kf,
    residual_covariance,
    simulate_rollouts,
)
from advrisk.experiments import ExperimentConfig, rotation_system, run_experiment, shear_system
from advrisk.model import RngStream
from conftest import central_difference, random_spd


def make_system(a, c, sigma0=None, sigma_w=None, sigma_v=None, horizon=4):
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    n, p = a.shape[0], c.shape[0]
    return LtiSystem.from_matrices(
        a, c,
        np.eye(n) if sigma0 is None else sigma0,
        0.1 * np.eye(n) if sigma_w is None else sigma_w,
        0.2 * np.eye(p) if sigma_v is None else sigma_v,
        horizon,
    )


def random_observable_system(rng, n=3, p=2, horizon=4):
    while True:
        a = rng.standard_normal((n, n)) * 0.6
        c = rng.standard_normal((p, n))
        system = make_system(a, c, sigma0=random_spd(rng, n),
                             sigma_w=random_spd(rng, n, 0.2),
                             sigma_v=random_spd(rng, p, 0.3), horizon=horizon)
        if is_observable(system):
            return system


def three_term_residual(l_mat, system, k):
    """Independent oracle: the residual ``x_k - L Y`` as initial-state, process
    noise and measurement noise terms; returns ``(covariance, SR)``."""
    stacked = build_stacked(system, k)
    terms = [
        (stacked.a_pow_k - l_mat @ stacked.obs, system.sigma0.matrix),
        (stacked.gamma_k - l_mat @ stacked.toeplitz,
         np.kron(np.eye(system.horizon), system.sigma_w.matrix)),
        (l_mat, np.kron(np.eye(system.horizon + 1), system.sigma_v.matrix)),
    ]
    return (sum(m @ noise @ m.T for m, noise in terms),
            sum(np.sum((m @ noise) * m) for m, noise in terms))


def simulate_stepwise(system, x0, w_seq, v_seq):
    """Independent oracle: literal state recursion, one step at a time."""
    xs = [np.asarray(x0, dtype=float)]
    for t in range(system.horizon):
        xs.append(system.a @ xs[-1] + w_seq[t])
    ys = [system.c @ xs[t] + v_seq[t] for t in range(system.horizon + 1)]
    return xs, ys


class TestBuildStacked:
    def test_identity_system(self):
        system = make_system(np.eye(2), np.eye(2), horizon=1)
        stacked = build_stacked(system, 1)
        assert np.array_equal(stacked.obs, np.vstack([np.eye(2), np.eye(2)]))
        assert np.array_equal(stacked.toeplitz, np.vstack([np.zeros((2, 2)), np.eye(2)]))

    def test_gamma_zero_at_k0(self, rng):
        system = random_observable_system(rng)
        stacked = build_stacked(system, 0)
        assert np.array_equal(stacked.gamma_k, np.zeros_like(stacked.gamma_k))

    def test_k_out_of_range(self, rng):
        system = random_observable_system(rng)
        with pytest.raises(ValueError, match="k must lie"):
            build_stacked(system, system.horizon + 1)

    def test_matches_stepwise_simulation(self, rng):
        for _ in range(5):
            system = random_observable_system(rng)
            k = int(rng.integers(0, system.horizon + 1))
            stacked = build_stacked(system, k)
            x0 = rng.standard_normal(system.n)
            w_seq = rng.standard_normal((system.horizon, system.n))
            v_seq = rng.standard_normal((system.horizon + 1, system.p))
            xs, ys = simulate_stepwise(system, x0, w_seq, v_seq)
            y_stacked = stacked.obs @ x0 + stacked.toeplitz @ w_seq.ravel() + v_seq.ravel()
            x_k = stacked.a_pow_k @ x0 + stacked.gamma_k @ w_seq.ravel()
            assert np.allclose(y_stacked, np.concatenate(ys), atol=1e-12)
            assert np.allclose(x_k, xs[k], atol=1e-12)
            # the joint map: Y = M xi and x_k = S xi with xi = (x_0, W, V)
            meas, state, _ = _joint(system, k)
            xi = np.concatenate([x0, w_seq.ravel(), v_seq.ravel()])
            assert np.allclose(meas @ xi, np.concatenate(ys), atol=1e-12)
            assert np.allclose(state @ xi, xs[k], atol=1e-12)


class TestGramian:
    def test_identity_system(self):
        system = make_system(np.eye(2), np.eye(2), horizon=3)
        summary = observability_gramian(system)
        assert np.allclose(summary.gramian, 4.0 * np.eye(2), atol=1e-12)
        assert np.isclose(summary.lambda_min, 4.0)

    def test_rotation_family_reference_values(self):
        # the bound-relevant scale is the gramian's root eigenvalue, i.e. the
        # smallest singular value of the observability matrix
        system = rotation_system(0.95, horizon=5)
        summary = observability_gramian(system, 5)
        assert abs(summary.min_singular_value - 1.22) <= 0.01

    def test_unobservable_zero(self):
        system = make_system(np.eye(2), np.zeros((1, 2)), horizon=3)
        assert not is_observable(system)
        assert np.allclose(observability_gramian(system).gramian, 0.0)

    def test_monotone_in_horizon(self, rng):
        system = random_observable_system(rng, horizon=6)
        g3 = observability_gramian(system, 3).gramian
        g6 = observability_gramian(system, 6).gramian
        assert np.linalg.eigvalsh(g6 - g3)[0] >= -1e-10


class TestKalmanEstimator:
    def test_single_shot_bayes(self, rng):
        system = make_system(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)),
                             sigma0=random_spd(rng, 2), horizon=0)
        expected = system.sigma0.matrix @ system.c.T @ np.linalg.inv(
            system.c @ system.sigma0.matrix @ system.c.T + system.sigma_v.matrix
        )
        assert np.allclose(kalman_estimator(system, 0), expected, atol=1e-12)

    def test_matches_isotropic_formula(self):
        # independent closed form valid for isotropic covariances:
        # (s0^2 A^k O' + sw^2 G T') (s0^2 O O' + sw^2 T T' + sv^2 I)^{-1}
        system = rotation_system(0.98, horizon=5)
        s0_sq, sw_sq, sv_sq = 1.0, 0.1, 0.1
        for k in (0, 2, 5):
            stacked = build_stacked(system, k)
            obs, tau, gam = stacked.obs, stacked.toeplitz, stacked.gamma_k
            simple = (s0_sq * stacked.a_pow_k @ obs.T + sw_sq * gam @ tau.T) @ np.linalg.inv(
                s0_sq * obs @ obs.T + sw_sq * tau @ tau.T + sv_sq * np.eye(obs.shape[0])
            )
            assert np.allclose(kalman_estimator(system, k), simple, atol=1e-10)

    def test_noiseless_limit_inverts_observability(self):
        system = make_system(
            np.array([[0.9, 0.1], [0.0, 0.8]]), np.array([[1.0, 0.0]]),
            sigma0=np.eye(2), sigma_w=1e-14 * np.eye(2), sigma_v=np.array([[1e-8]]),
            horizon=4,
        )
        k = 2
        est = kalman_estimator(system, k)
        stacked = build_stacked(system, k)
        gram = stacked.obs.T @ stacked.obs
        ideal = stacked.a_pow_k @ np.linalg.solve(gram, stacked.obs.T)
        assert np.linalg.norm(est - ideal) <= 1e-4
        assert estimator_sr_closed(est, system, k) <= 1e-4

    def test_first_order_optimality(self, rng):
        system = random_observable_system(rng)
        k = 2
        est = kalman_estimator(system, k)
        base = estimator_sr_closed(est, system, k)
        for _ in range(20):
            direction = rng.standard_normal(est.shape)
            direction /= np.linalg.norm(direction)
            assert estimator_sr_closed(est + 1e-3 * direction, system, k) >= base - 1e-12

    def test_beats_random_estimators(self, rng):
        system = random_observable_system(rng)
        k = system.horizon
        est = kalman_estimator(system, k)
        base = estimator_sr_closed(est, system, k)
        scale = np.linalg.norm(est)
        for _ in range(100):
            other = rng.standard_normal(est.shape)
            other *= scale / np.linalg.norm(other)
            assert estimator_sr_closed(other, system, k) >= base


class TestRecursiveFilter:
    def test_matches_stacked_at_final_step(self, rng):
        for _ in range(20):
            system = random_observable_system(rng, n=3, p=2, horizon=4)
            stacked = build_stacked(system, system.horizon)
            x0 = rng.standard_normal(3)
            w_seq = rng.standard_normal((4, 3)) * 0.3
            v_seq = rng.standard_normal((5, 2)) * 0.4
            _, ys = simulate_stepwise(system, x0, w_seq, v_seq)
            filtered = recursive_kf(system, ys)
            l_mat = kalman_estimator(system, system.horizon)
            stacked_est = l_mat @ np.concatenate(ys)
            assert np.linalg.norm(filtered[-1] - stacked_est) <= 1e-8

    def test_zero_measurements_zero_estimates(self, rng):
        system = random_observable_system(rng)
        filtered = recursive_kf(system, [np.zeros(system.p)] * (system.horizon + 1))
        assert all(np.allclose(x, 0.0) for x in filtered)

    def test_near_exact_observation(self):
        system = make_system(np.eye(2), np.eye(2), sigma_v=1e-12 * np.eye(2), horizon=0)
        y0 = np.array([0.7, -1.1])
        filtered = recursive_kf(system, [y0])
        assert np.allclose(filtered[0], y0, atol=1e-6)

    def test_measurement_count_checked(self, rng):
        system = random_observable_system(rng)
        with pytest.raises(ValueError, match="measurements"):
            recursive_kf(system, [np.zeros(system.p)] * system.horizon)


class TestSrClosedAndResidualCovariance:
    def test_zero_estimator(self, rng):
        system = random_observable_system(rng)
        k = 3
        stacked = build_stacked(system, k)
        iw = np.kron(np.eye(system.horizon), system.sigma_w.matrix)
        expected = np.trace(
            stacked.a_pow_k @ system.sigma0.matrix @ stacked.a_pow_k.T
        ) + np.trace(stacked.gamma_k @ iw @ stacked.gamma_k.T)
        l0 = np.zeros((system.n, system.p * (system.horizon + 1)))
        assert np.isclose(estimator_sr_closed(l0, system, k), expected, rtol=1e-12)
        assert np.allclose(residual_covariance(l0, system, 0).matrix,
                           system.sigma0.matrix, atol=1e-12)

    def test_trace_identity(self, rng):
        system = random_observable_system(rng)
        l_mat = rng.standard_normal((system.n, system.p * (system.horizon + 1)))
        for k in (0, 2, 4):
            cov = residual_covariance(l_mat, system, k)
            assert np.isclose(np.trace(cov.matrix), estimator_sr_closed(l_mat, system, k),
                              rtol=1e-10)

    def test_matches_monte_carlo(self, rng):
        system = random_observable_system(rng)
        k = 2
        l_mat = kalman_estimator(system, k)
        closed = estimator_sr_closed(l_mat, system, k)
        mc = estimator_sr_mc(l_mat, system, k, 60_000, RngStream(21))
        assert abs(mc.mean - closed) <= 3 * mc.std_error

    @pytest.mark.parametrize("n, p, horizon, k", [
        (3, 2, 4, 4), (3, 2, 4, 1), (2, 1, 5, 3), (2, 2, 0, 0), (3, 1, 3, 0),
    ], ids=["p2-filter", "p2-smoother", "p1-smoother", "p2-horizon0", "p1-k0"])
    def test_matches_three_term_form(self, rng, n, p, horizon, k):
        system = random_observable_system(rng, n=n, p=p, horizon=horizon)
        for l_mat in (kalman_estimator(system, k),
                      rng.standard_normal((n, p * (horizon + 1)))):
            want_cov, want_sr = three_term_residual(l_mat, system, k)
            cov = residual_covariance(l_mat, system, k).matrix
            assert np.abs(cov - want_cov).max() <= 1e-13 * np.abs(want_cov).max()
            assert abs(estimator_sr_closed(l_mat, system, k) - want_sr) <= 1e-13 * want_sr

    def test_residual_covariance_matches_sample_covariance(self, rng):
        system = random_observable_system(rng, n=2, p=1, horizon=3)
        k = 1
        l_mat = kalman_estimator(system, k)
        cov = residual_covariance(l_mat, system, k).matrix
        ys, xk = simulate_rollouts(system, k, 100_000, RngStream(22))
        resid = xk - ys @ l_mat.T
        sample = resid.T @ resid / resid.shape[0]
        assert np.linalg.norm(sample - cov) / np.linalg.norm(cov) < 0.05


class TestAdversarialEstimationRisk:
    def test_zero_budget_matches_sr(self, rng):
        system = random_observable_system(rng)
        k = system.horizon
        l_mat = kalman_estimator(system, k)
        est = estimator_ar_mc(l_mat, system, k, 0.0, 20_000, RngStream(23))
        closed = estimator_sr_closed(l_mat, system, k)
        assert abs(est.mean - closed) <= 3 * est.std_error

    def test_zero_estimator_no_gap(self, rng):
        system = random_observable_system(rng)
        l0 = np.zeros((system.n, system.p * (system.horizon + 1)))
        gap = estimator_gap_mc(l0, system, 2, 0.7, 2000, RngStream(24))
        assert gap.mean == 0.0 and gap.std_error == 0.0


class TestGapBounds:
    def test_zero_cases(self, rng):
        system = random_observable_system(rng)
        k = 2
        l_mat = kalman_estimator(system, k)
        assert gap_lower_bounds(l_mat, system, k, 0.0) == (0.0, 0.0)
        l0 = np.zeros_like(l_mat)
        general, frob = gap_lower_bounds(l0, system, k, 0.5)
        assert general == 0.0 and frob == 0.0
        assert gap_upper_bound_general(l0, system, k, 0.5) == 0.0
        assert kalman_gap_lower_bound(system, k, 0.0) == 0.0
        value, _ = kalman_gap_upper_bound(system, k, 0.0)
        assert value == 0.0

    def test_sandwich_on_random_systems(self, rng):
        eps = 0.5
        for _ in range(5):
            system = random_observable_system(rng)
            k = int(rng.integers(0, system.horizon + 1))
            l_mat = kalman_estimator(system, k)
            general, frob = gap_lower_bounds(l_mat, system, k, eps)
            upper = gap_upper_bound_general(l_mat, system, k, eps)
            gap = estimator_gap_mc(l_mat, system, k, eps, 20_000, RngStream(25))
            assert frob <= general + 1e-12
            assert general <= gap.mean + 3 * gap.std_error
            assert gap.mean <= upper + 3 * gap.std_error

    @pytest.mark.parametrize("n, p, horizon", [(3, 2, 4), (2, 1, 5), (2, 2, 3), (4, 1, 6)])
    def test_general_lower_bound_is_the_n_by_n_form(self, rng, n, p, horizon):
        # tr((L' C L)^{1/2}) = tr((C^{1/2} L L' C^{1/2})^{1/2}): the n x n form
        # has no rounding-level eigenvalues beyond rank n to add to the sum.
        # Squaring costs the oracle about 1e-16 cond(C^{1/2} L) relative: these
        # cases have cond <= 70 and deviate by <= 1.1e-15
        eps = 0.5
        for _ in range(3):
            system = random_observable_system(rng, n=n, p=p, horizon=horizon)
            k = int(rng.integers(0, horizon + 1))
            for l_mat in (kalman_estimator(system, k),
                          rng.standard_normal((n, p * (horizon + 1)))):
                lam, vecs = np.linalg.eigh(residual_covariance(l_mat, system, k).matrix)
                root_c = (vecs * np.sqrt(lam)) @ vecs.T
                inner = root_c @ l_mat @ l_mat.T @ root_c
                eigs = np.linalg.eigvalsh(0.5 * (inner + inner.T))
                want = 2 * np.sqrt(2 / np.pi) * eps / np.sqrt(n) * np.sqrt(eigs).sum()
                general, _ = gap_lower_bounds(l_mat, system, k, eps)
                assert abs(general - want) <= 1e-14 * want

    def test_nominal_bounds_bracket_gap(self, rng):
        eps = 0.5
        system = rotation_system(0.95, horizon=5)
        k = 5
        l_mat = kalman_estimator(system, k)
        gap = estimator_gap_mc(l_mat, system, k, eps, 20_000, RngStream(26))
        lower = kalman_gap_lower_bound(system, k, eps)
        upper, regime = kalman_gap_upper_bound(system, k, eps)
        assert lower <= gap.mean + 3 * gap.std_error
        assert gap.mean <= upper + 3 * gap.std_error
        assert regime == "low_observability"

    def test_refined_regime_fires_with_quiet_sensors(self):
        system = rotation_system(0.95, sigma_v=1e-4, horizon=5)
        value, regime = kalman_gap_upper_bound(system, 5, 0.5)
        assert regime == "high_observability"
        assert np.isfinite(value)

    def test_upper_bound_decreases_with_observability(self):
        values = [kalman_gap_upper_bound(rotation_system(alpha, horizon=5), 5, 0.5)[0]
                  for alpha in (0.99, 0.98, 0.95)]
        lam_mins = [observability_gramian(rotation_system(alpha, horizon=5)).lambda_min
                    for alpha in (0.99, 0.98, 0.95)]
        assert lam_mins[0] < lam_mins[1] < lam_mins[2]
        assert values[0] > values[1] > values[2]

    def test_nilpotent_dynamics_state_noise_floor(self):
        # A = 0, k = 1: only the process-noise term survives
        system = make_system(np.zeros((2, 2)), np.eye(2), sigma_w=0.3 * np.eye(2),
                             sigma_v=0.04 * np.eye(2), horizon=2)
        eps = 0.5
        lb = kalman_gap_lower_bound(system, 1, eps)
        gram = observability_gramian(system)
        expected_ratio = 0.3 / (3 * 1.0 * gram.frobenius + 0.04)
        expected = (2 * np.sqrt(2 / np.pi) * eps / np.sqrt(2)) * 0.2 * 2.0 * expected_ratio**2
        assert np.isclose(lb, expected, rtol=1e-12)

    def test_kalman_bounds_row_is_the_bound_functions(self):
        # the kalman-bounds CSV columns, in order, are the four bound functions
        # at the nominal estimator
        config = ExperimentConfig(kind="kalman-bounds", n_samples=200,
                                  params={"alphas": [0.98], "horizon": 5, "k": 5, "epsilon": 0.5})
        table = run_experiment(config)
        row = dict(zip(table.header, table.rows[0]))
        system = rotation_system(0.98, horizon=5)
        nominal = kalman_estimator(system, 5)
        general, frobenius = gap_lower_bounds(nominal, system, 5, 0.5)
        assert (row["lb_general"], row["lb_frobenius"]) == (general, frobenius)
        assert row["lb_kalman"] == kalman_gap_lower_bound(system, 5, 0.5)
        assert row["ub_general"] == gap_upper_bound_general(nominal, system, 5, 0.5)
        assert row["ub_kalman"] == kalman_gap_upper_bound(system, 5, 0.5)[0]
        assert row["lb_frobenius"] <= row["lb_general"]


class TestEstimationAdapter:
    def test_nominal_is_kalman_estimator(self, rng):
        system = random_observable_system(rng)
        adapter = as_estimation_problem(system, 2)
        assert np.allclose(adapter.nominal, kalman_estimator(system, 2), atol=1e-12)

    def test_sr_hooks_consistent(self, rng):
        system = random_observable_system(rng)
        adapter = as_estimation_problem(system, 2)
        l_mat = rng.standard_normal((system.n, system.p * (system.horizon + 1)))
        assert np.isclose(adapter.sr_closed(l_mat), estimator_sr_closed(l_mat, system, 2))
        # gradient vanishes at the optimum
        assert np.linalg.norm(adapter.sr_grad(adapter.nominal)) <= 1e-10
        # and elsewhere it matches central differences of the closed form; SR
        # is quadratic, so only rounding separates them
        numeric = central_difference(lambda m: estimator_sr_closed(m, system, 2), l_mat, 1e-4)
        grad = adapter.sr_grad(l_mat)
        assert np.abs(grad - numeric).max() <= 1e-7 * np.abs(grad).max()

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 0.1, 1.0])
    @pytest.mark.parametrize("system, k", [
        (shear_system(1.0), 0),
        (rotation_system(0.99, horizon=5), 5),
        (make_system([[0.9, 0.3], [-0.3, 0.9]], [[1.0, 0.0]], sigma0=[[1.0, 0.3], [0.3, 0.8]],
                     sigma_w=[[0.1, 0.02], [0.02, 0.2]], sigma_v=[[0.1]], horizon=3), 1),
        (rotation_system(0.95, sigma_v=1e-8, horizon=5), 2),
    ], ids=["shear-k0", "rotation-k5", "correlated-k1", "quiet-k2"])
    def test_data_model_reproduces_residual_covariance(self, system, k, scale):
        # with D = L - L_kf, Cov(x_k - L Y) = P + D G_yy D' and SR = tr(P) +
        # tr(D G_yy D'): (nominal, s_in, noise) reproduce the stacked closed forms
        adapter = as_estimation_problem(system, k)
        rng = np.random.default_rng(int(1e6 * scale) + k)
        l_mat = adapter.nominal + scale * rng.standard_normal(adapter.nominal.shape)
        closed = estimator_sr_closed(l_mat, system, k)
        assert abs(adapter.sr_closed(l_mat) - closed) <= 1e-12 * closed
        d = l_mat - adapter.nominal
        cov = residual_covariance(l_mat, system, k).matrix
        assert (np.abs(adapter.noise + d @ adapter.s_in @ d.T - cov).max()
                <= 1e-12 * np.abs(cov).max())

    def test_draw_matches_rollouts(self, rng):
        system = random_observable_system(rng)
        adapter = as_estimation_problem(system, 2)
        xs, ys = adapter.draw(16, RngStream(31), 0)
        ys2, xk2 = simulate_rollouts(system, 2, 16, RngStream(31), 0)
        assert np.array_equal(xs, ys2) and np.array_equal(ys, xk2)


class TestSystemArrays:
    def test_system_matrices_are_read_only_copies(self):
        a = np.array([[1.0, 0.5], [0.0, 1.0]])
        c = np.array([[1.0, 0.0]])
        system = make_system(a, c)
        for arr in (system.a, system.c, system.sigma0.matrix):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 3.0
        a[0, 0] = c[0, 0] = 2.0  # the caller's arrays stay writable and are not aliased
        assert system.a[0, 0] == 1.0 and system.c[0, 0] == 1.0

    @pytest.mark.parametrize("horizon", [0, 3])
    def test_repeated_rollouts_match_fresh_system(self, horizon):
        def build():
            return make_system([[0.9, 0.4], [-0.2, 1.0]], [[1.0, 0.5]],
                               sigma0=[[1.0, 0.3], [0.3, 0.8]], sigma_w=[[0.1, 0.02], [0.02, 0.2]],
                               horizon=horizon)

        reused, stream = build(), RngStream(4, 9)
        for k, base in ((0, 0), (min(2, horizon), 16), (0, 16), (horizon, 3), (0, 0)):
            got = simulate_rollouts(reused, k, 16, stream, base)
            want = simulate_rollouts(build(), k, 16, RngStream(4, 9), base)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
