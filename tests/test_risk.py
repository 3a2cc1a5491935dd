import tracemalloc
from functools import partial

import numpy as np
import pytest

from advrisk import risk
from advrisk.experiments import ExperimentConfig, rotation_system, run_experiment
from advrisk.kalman import kalman_estimator, simulate_rollouts
from advrisk.model import LinearInverseProblem, RngStream, sample_batch
from advrisk.risk import (
    _GEN_CHUNK,
    _mc_columns,
    adversarial_risk_mc,
    ar_sr_gap_mc,
    astar_gap_bounds,
    gap_bounds_mc,
    mc_mean,
    standard_risk_closed,
    with_epsilon,
)
from conftest import random_spd


def make_problem(a_star, sigma_x=None, sigma_w=None, eps=0.5):
    a_star = np.asarray(a_star, dtype=float)
    p, n = a_star.shape
    sigma_x = np.eye(n) if sigma_x is None else sigma_x
    sigma_w = 0.1 * np.eye(p) if sigma_w is None else sigma_w
    return LinearInverseProblem.from_matrices(a_star, sigma_x, sigma_w, eps)


class TestStandardRiskClosed:
    def test_residual_term_vanishes_at_ground_truth(self):
        prob = make_problem(np.array([[1.0, 0.2], [0.0, 0.9]]))
        assert np.isclose(standard_risk_closed(prob.a_star, prob), 0.2, atol=1e-14)

    def test_direct_trace_arithmetic(self):
        prob = make_problem(np.zeros((2, 2)), sigma_x=np.eye(2), sigma_w=np.eye(2))
        assert np.isclose(standard_risk_closed(np.eye(2), prob), 4.0, atol=1e-14)

    def test_against_monte_carlo(self, rng):
        prob = make_problem(rng.standard_normal((3, 2)), sigma_x=random_spd(rng, 2),
                            sigma_w=random_spd(rng, 3, 0.3))
        a = rng.standard_normal((3, 2))
        closed = standard_risk_closed(a, prob)
        mc = mc_mean(a, partial(sample_batch, prob), 60_000, RngStream(1), 0, 0.0, "sq")
        assert abs(mc.mean - closed) <= 3 * mc.std_error

    def test_dimension_mismatch(self):
        prob = make_problem(np.eye(2))
        with pytest.raises(ValueError, match="shape"):
            standard_risk_closed(np.eye(3), prob)


class TestAdversarialRiskMc:
    def test_zero_budget_equals_standard_risk_exactly(self, rng):
        prob = make_problem(rng.standard_normal((2, 3)), eps=0.0)
        a = rng.standard_normal((2, 3))
        ar = adversarial_risk_mc(a, prob, 5000, RngStream(2))
        sr = mc_mean(a, partial(sample_batch, prob), 5000, RngStream(2), 0, 0.0, "sq")
        assert ar.mean == sr.mean and ar.std_error == sr.std_error

    def test_all_zero_model(self):
        prob = make_problem(np.zeros((2, 2)), sigma_w=0.3 * np.eye(2), eps=1.0)
        ar = adversarial_risk_mc(np.zeros((2, 2)), prob, 40_000, RngStream(3))
        assert abs(ar.mean - 0.6) <= 3 * ar.std_error  # tr(sigma_w); adversary blind

    def test_monotone_in_budget_pathwise(self, rng):
        prob = make_problem(rng.standard_normal((3, 3)))
        a = rng.standard_normal((3, 3))
        means = [
            adversarial_risk_mc(a, with_epsilon(prob, e), 3000, RngStream(4)).mean
            for e in (0.0, 0.25, 0.5, 1.0, 2.0)
        ]
        assert all(lo <= hi + 1e-12 for lo, hi in zip(means, means[1:]))

    def test_gap_is_nonnegative_pathwise(self, rng):
        prob = make_problem(rng.standard_normal((2, 2)))
        gap = ar_sr_gap_mc(prob.a_star, prob, 3000, RngStream(5))
        assert gap.mean >= 0.0

    def test_estimate_metadata(self, rng):
        prob = make_problem(rng.standard_normal((2, 2)))
        est = adversarial_risk_mc(prob.a_star, prob, 1000, RngStream(77))
        assert est.std_error > 0.0

    def test_one_sample_rejected(self):
        # one draw has no standard error
        prob = make_problem(np.eye(2))
        with pytest.raises(ValueError, match="at least 2"):
            adversarial_risk_mc(prob.a_star, prob, 1, RngStream(77))


class TestScalarExactness:
    def test_row_model_gap_matches_upper_bound_pathwise(self, rng):
        # p = 1: the gap formula 2 eps E||A'(y-Ax)|| + eps^2 ||A||^2 is exact
        a = rng.standard_normal((1, 3))
        prob = make_problem(a, sigma_w=np.array([[0.3]]), eps=0.5)
        stream = RngStream(6)
        gap = ar_sr_gap_mc(a, prob, 4000, stream)
        bounds = gap_bounds_mc(a, prob, 4000, stream)
        assert np.isclose(gap.mean, bounds.upper, rtol=1e-10)


class TestGapBounds:
    def test_zero_budget_collapses(self, rng):
        prob = make_problem(rng.standard_normal((2, 2)), eps=0.0)
        bounds = gap_bounds_mc(prob.a_star, prob, 1000, RngStream(7))
        assert bounds.lower == 0.0 and bounds.upper == 0.0

    def test_orthogonal_columns_bounds_match(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((4, 2)))
        a = 1.3 * q
        prob = make_problem(a, sigma_w=0.2 * np.eye(4), eps=0.5)
        stream = RngStream(8)
        bounds = gap_bounds_mc(a, prob, 30_000, stream)
        gap = ar_sr_gap_mc(a, prob, 30_000, stream)
        assert np.isclose(bounds.lower, bounds.upper, rtol=1e-10)
        slack = 3 * (gap.std_error + 2 * prob.epsilon * bounds.cross_term_stderr)
        assert abs(gap.mean - bounds.lower) <= slack

    def test_sandwich_random_instance(self, rng):
        a = rng.standard_normal((4, 4))
        prob = make_problem(a, sigma_x=0.7 * np.eye(4), sigma_w=0.2 * np.eye(4), eps=0.5)
        stream = RngStream(9)
        bounds = gap_bounds_mc(a, prob, 30_000, stream)
        gap = ar_sr_gap_mc(a, prob, 30_000, stream)
        slack = 3 * (gap.std_error + 2 * prob.epsilon * bounds.cross_term_stderr)
        assert bounds.lower - slack <= gap.mean <= bounds.upper + slack
        assert bounds.lower <= bounds.upper

    def test_wide_matrix_lambda_min_is_zero(self, rng):
        a = rng.standard_normal((2, 4))
        prob = make_problem(a)
        bounds = gap_bounds_mc(a, prob, 500, RngStream(10))
        assert bounds.lambda_min == 0.0
        assert bounds.lambda_max > 0.0

    # 16 385 samples end in a 1-row block, which draws and solves 2 rows
    @pytest.mark.parametrize("shape, eps, n, base_index", [
        ((3, 3), 0.5, 16_385, 0), ((3, 3), 0.0, 5_000, 0), ((2, 4), 0.5, 5_000, 17)],
        ids=["1-row-tail", "zero-budget", "wide"])
    def test_gap_is_the_gap_pass_bit_for_bit(self, shape, eps, n, base_index):
        rng = np.random.default_rng(12)
        prob = make_problem(rng.standard_normal(shape), eps=eps)
        a = 0.9 * prob.a_star
        stream = RngStream(12, 4)
        bounds = gap_bounds_mc(a, prob, n, stream, base_index)
        gap = ar_sr_gap_mc(a, prob, n, stream, base_index)
        assert bounds.gap == gap
        assert (bounds.gap.mean > 0.0) == (eps > 0.0)

    def test_bounds_run_draws_its_samples_once(self, monkeypatch):
        drawn = []

        def counting(problem, count, stream, base_index=0):
            drawn.append(count)
            return sample_batch(problem, count, stream, base_index)

        monkeypatch.setattr(risk, "sample_batch", counting)
        config = ExperimentConfig(kind="bounds", n_samples=5_000, params={
            "a_star": [[1.0, 0.3], [0.0, 0.8]], "a": [[0.9, 0.2], [0.1, 0.7]], "epsilon": 0.5})
        run_experiment(config)
        assert sum(drawn) == 5_000


class TestAstarGapBounds:
    def test_zero_budget(self):
        prob = make_problem(np.eye(3), sigma_w=np.eye(3), eps=0.0)
        bounds = astar_gap_bounds(prob)
        assert bounds.lower == 0.0 and bounds.upper == 0.0

    def test_identity_closed_form(self):
        # A* = I2, sigma_w = 1, eps = 1: lower = 4/sqrt(pi) + 1, upper = 2 sqrt(2) + 1
        prob = make_problem(np.eye(2), sigma_w=np.eye(2), eps=1.0)
        bounds = astar_gap_bounds(prob)
        assert np.isclose(bounds.lower, 4.0 / np.sqrt(np.pi) + 1.0, rtol=1e-12)
        assert np.isclose(bounds.upper, 2.0 * np.sqrt(2.0) + 1.0, rtol=1e-12)

    def test_draws_no_gap(self):
        assert astar_gap_bounds(make_problem(np.eye(2), sigma_w=np.eye(2))).gap is None

    def test_anisotropic_noise_rejected(self):
        prob = make_problem(np.eye(2), sigma_w=np.diag([0.1, 0.2]))
        with pytest.raises(ValueError, match="isotropic"):
            astar_gap_bounds(prob)

    @pytest.mark.parametrize("scale", [1e-11, 1.0, 1e6])
    def test_isotropy_is_judged_relative_to_the_scale(self, scale):
        # at a = A* the bounds run writes the closed form for s I alone, at
        # any scale: an absolute tolerance took a correlated 1e-11 matrix
        # for isotropic
        def header(sigma_w):
            params = {"a_star": [[1.0, 0.2], [0.0, 0.8]], "sigma_w": sigma_w, "epsilon": 0.5}
            return run_experiment(ExperimentConfig(kind="bounds", params=params,
                                                   n_samples=200)).header

        assert "closed_lower" in header((scale * np.eye(2)).tolist())
        correlated = (scale * np.array([[1.0, 0.9], [0.9, 1.0]])).tolist()
        assert "closed_lower" not in header(correlated)
        assert risk.isotropic_scale(np.array(correlated)) is None

    def test_sandwiches_monte_carlo(self, rng):
        a = rng.standard_normal((4, 4))
        prob = make_problem(a, sigma_w=0.16 * np.eye(4), eps=0.5)
        bounds = astar_gap_bounds(prob)
        gap = ar_sr_gap_mc(a, prob, 30_000, RngStream(11))
        assert bounds.lower - 3 * gap.std_error <= gap.mean <= bounds.upper + 3 * gap.std_error


def test_crn_variance_reduction(rng):
    # pathwise gap estimator beats differencing independent AR and SR runs;
    # compare estimated variances (stable), not noisy replicate variances
    a = rng.standard_normal((3, 3))
    prob = make_problem(a, eps=0.5)
    n = 20_000
    crn = ar_sr_gap_mc(a, prob, n, RngStream(100))
    ar_est = adversarial_risk_mc(a, prob, n, RngStream(200))
    sr_est = mc_mean(a, partial(sample_batch, prob), n, RngStream(300), 0, 0.0, "sq")
    indep_var = ar_est.std_error**2 + sr_est.std_error**2
    assert crn.std_error**2 / indep_var < 1.0


def test_with_epsilon_copies(rng):
    prob = make_problem(rng.standard_normal((2, 2)), eps=0.5)
    other = with_epsilon(prob, 1.5)
    assert other.epsilon == 1.5 and prob.epsilon == 0.5
    assert other.a_star is prob.a_star


def _plain_case():
    prob = make_problem([[1.0, 0.3, 0.0], [0.2, 0.8, 0.1]], eps=0.5)
    return np.array([[0.9, 0.2, 0.1], [0.1, 0.7, 0.0]]), partial(sample_batch, prob)


def _plain16_case():
    # n = 16 with a 12-wide top cluster: the row sums over the cluster, and the
    # contractions against s and 1/gaps^2, must not depend on the batch split
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((16, 16)))[0]
    a_star = q * np.concatenate([np.ones(12), [0.5, 0.3, 0.2, 0.1]])
    return 0.9 * a_star, partial(sample_batch, make_problem(a_star, eps=0.5))


def _rollout_case():
    system = rotation_system(0.95, horizon=3)
    return 1.1 * kalman_estimator(system, 2), partial(simulate_rollouts, system, 2)


_COLUMNS = ("sq", "gain", "value", "cross")


@pytest.mark.parametrize("case", [_plain_case, _plain16_case, _rollout_case],
                         ids=["plain", "plain16", "rollout"])
# _GEN_CHUNK + 1 and 2 * _GEN_CHUNK + 1: the head pass ends in a 1-row block
# after one and after two full blocks; 2 * _GEN_CHUNK and 32_768: block
# boundaries past the first block; 39_999: a 1-row tail
@pytest.mark.parametrize("split", [1, 2, 7, 12_345, _GEN_CHUNK, _GEN_CHUNK + 1, 2 * _GEN_CHUNK,
                                   2 * _GEN_CHUNK + 1, 32_768, 39_999])
def test_engine_split_invariance(case, split):
    # one pass over more than a chunk equals, bit for bit, two passes split
    # at an arbitrary base_index; value is sq + gain exactly
    a, draw = case()
    n = 40_000
    assert n > _GEN_CHUNK
    stream = RngStream(9, 3)
    _, whole = _mc_columns(a, draw, n, stream, 0, 0.5, _COLUMNS)
    _, head = _mc_columns(a, draw, split, stream, 0, 0.5, _COLUMNS)
    _, tail = _mc_columns(a, draw, n - split, stream, split, 0.5, _COLUMNS)
    for key in _COLUMNS:
        assert np.array_equal(whole[key], np.concatenate([head[key], tail[key]])), key
    assert np.array_equal(whole["value"], whole["sq"] + whole["gain"])
    assert np.all(whole["gain"] > 0.0)


def _traced_peak_mb(columns):
    a, draw = _plain16_case()
    tracemalloc.start()
    try:
        _mc_columns(a, draw, 100_000, RngStream(5), 0, 0.5, columns)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_engine_memory_is_bounded_by_the_block():
    # Block-sized temporaries scale with _GEN_CHUNK * width, not n_samples:
    # one n = 16, 100 000-sample pass holds its four 0.8 MB output columns
    # and one block's work arrays (0.25 MB each), which die with the block.
    peak = _traced_peak_mb(_COLUMNS)
    assert peak < 5.5, f"{peak:.2f} MB"


def test_engine_value_pass_memory_is_bounded_by_the_block():
    # the pass that every adversarial risk makes: one output column, and at
    # its peak the inner solve's six arrays for one block (0.25 MB each)
    peak = _traced_peak_mb(("value",))
    assert peak < 3.0, f"{peak:.2f} MB"
