"""Acceptance suite: one test per shipping criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Monte Carlo assertions use common random numbers and 3-sigma
slacks from the reported standard errors; analytic values are pinned at the
stated tolerances.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import advrisk as ar
from advrisk.experiments import (
    ExperimentConfig,
    generate_conditioned_matrix,
    rotation_system,
    run_experiment,
    shear_system,
)
from advrisk.kalman import as_estimation_problem
from advrisk.model import RngStream
from conftest import random_spd


def report(num, text):
    print(f"\nPASS criterion {num}: {text}")


def make_problem(a_star, sigma_x, sigma_w, eps):
    return ar.LinearInverseProblem.from_matrices(a_star, sigma_x, sigma_w, eps)


def pga_oracle(a, b, eps, gen, n_dirs=10_000, n_restarts=50, n_steps=300):
    """Boundary sampling plus projected-gradient-ascent restarts."""
    n = a.shape[1]
    gram = a.T @ a
    lin = a.T @ b
    dirs = gen.standard_normal((n_dirs, n))
    dirs *= eps / np.linalg.norm(dirs, axis=1, keepdims=True)
    best = float((((dirs @ a.T) ** 2).sum(axis=1) - 2 * dirs @ lin).max())
    x = gen.standard_normal((n_restarts, n))
    x *= eps / np.linalg.norm(x, axis=1, keepdims=True)
    step = eps / (2 * np.linalg.norm(gram, 2) * eps + 2 * np.linalg.norm(lin) + 1e-12)
    for _ in range(n_steps):
        x = x + step * (2 * x @ gram - 2 * lin)
        x *= eps / np.linalg.norm(x, axis=1, keepdims=True)
    return max(best, float((((x @ a.T) ** 2).sum(axis=1) - 2 * x @ lin).max()))


def test_criterion_1_inner_max_oracle_equivalence():
    gen = np.random.default_rng(101)
    start = time.monotonic()
    for trial in range(200):
        n = int(gen.integers(1, 6))
        p = int(gen.integers(1, 6))
        a = gen.standard_normal((p, n))
        b = gen.standard_normal(p)
        eps = float(gen.choice([0.1, 1.0, 10.0]))
        res = ar.worst_case_perturbation(a, b, eps)
        ref = pga_oracle(a, b, eps, gen)
        assert res.objective_gain >= ref - 1e-9, (trial, res.objective_gain, ref)
        resid = np.linalg.norm(
            (res.dual_lambda * np.eye(n) - a.T @ a) @ res.delta + a.T @ b
        )
        assert resid <= 1e-8 * (res.dual_lambda * eps + np.linalg.norm(a.T @ b))
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s"
    report(1, f"200 instances beat 10^4 boundary points + 50 PGA restarts "
              f"with KKT residuals in tolerance ({elapsed:.1f}s)")


def test_criterion_2_scalar_exactness():
    gen = np.random.default_rng(102)
    a = gen.standard_normal((1, 3))
    prob = make_problem(a, np.eye(3), np.array([[0.3]]), 0.5)
    stream = RngStream(202)
    n = 200_000
    gap = ar.ar_sr_gap_mc(a, prob, n, stream)
    bounds = ar.gap_bounds_mc(a, prob, n, stream)
    slack = 3 * (gap.std_error + 2 * prob.epsilon * bounds.cross_term_stderr)
    assert abs(gap.mean - bounds.upper) <= slack
    report(2, f"p=1 gap {gap.mean:.5f} matches closed formula {bounds.upper:.5f} "
              f"(diff {abs(gap.mean - bounds.upper):.2e})")


def test_criterion_3_orthogonal_columns_exactness():
    gen = np.random.default_rng(103)
    q, _ = np.linalg.qr(gen.standard_normal((4, 2)))
    a = 1.4 * q
    prob = make_problem(a, np.eye(2), 0.2 * np.eye(4), 0.5)
    stream = RngStream(203)
    bounds = ar.gap_bounds_mc(a, prob, 30_000, stream)
    gap = ar.ar_sr_gap_mc(a, prob, 30_000, stream)
    assert np.isclose(bounds.lower, bounds.upper, rtol=1e-10)
    slack = 3 * (gap.std_error + 2 * prob.epsilon * bounds.cross_term_stderr)
    assert abs(gap.mean - bounds.lower) <= slack
    report(3, f"orthogonal columns: lower == upper == {bounds.lower:.5f}, "
              f"MC gap {gap.mean:.5f} within 3 sigma")


def test_criterion_4_sandwich_suite():
    gen = np.random.default_rng(104)
    violations = 0
    for trial in range(50):
        n = int(gen.integers(1, 5))
        p = int(gen.integers(1, 5))
        a = gen.standard_normal((p, n))
        prob = make_problem(
            gen.standard_normal((p, n)), random_spd(gen, n), random_spd(gen, p, 0.3),
            float(gen.choice([0.1, 0.5, 1.0])),
        )
        stream = RngStream(304 + trial)
        bounds = ar.gap_bounds_mc(a, prob, 6000, stream)
        gap = ar.ar_sr_gap_mc(a, prob, 6000, stream)
        slack = 3 * (gap.std_error + 2 * prob.epsilon * bounds.cross_term_stderr)
        if not (bounds.lower - slack <= gap.mean <= bounds.upper + slack):
            violations += 1
    assert violations == 0
    report(4, "50 random instances: lower <= MC gap <= upper, zero violations")


def test_criterion_5_closed_form_bounds_at_ground_truth():
    gen = np.random.default_rng(105)
    for trial in range(20):
        n = int(gen.integers(1, 5))
        p = int(gen.integers(1, 5))
        a_star = gen.standard_normal((p, n))
        sigma_w_sq = float(gen.uniform(0.05, 0.5))
        prob = make_problem(a_star, random_spd(gen, n), sigma_w_sq * np.eye(p),
                            float(gen.choice([0.1, 0.5, 1.0])))
        bounds = ar.astar_gap_bounds(prob)
        gap = ar.ar_sr_gap_mc(a_star, prob, 6000, RngStream(405 + trial))
        assert bounds.lower - 3 * gap.std_error <= gap.mean <= bounds.upper + 3 * gap.std_error
    report(5, "20 instances: isotropic-noise closed-form bounds sandwich the gap")


def test_criterion_6_kalman_cross_implementation():
    gen = np.random.default_rng(106)
    for trial in range(20):
        n, p, horizon = 3, 2, 4
        while True:
            system = ar.LtiSystem.from_matrices(
                gen.standard_normal((n, n)) * 0.6, gen.standard_normal((p, n)),
                random_spd(gen, n), random_spd(gen, n, 0.2), random_spd(gen, p, 0.3),
                horizon,
            )
            if ar.is_observable(system):
                break
        # stacked vs recursive on one trajectory
        x0 = gen.standard_normal(n)
        w_seq = gen.standard_normal((horizon, n)) * 0.3
        v_seq = gen.standard_normal((horizon + 1, p)) * 0.4
        xs = [x0]
        for t in range(horizon):
            xs.append(system.a @ xs[-1] + w_seq[t])
        ys = [system.c @ xs[t] + v_seq[t] for t in range(horizon + 1)]
        filtered = ar.recursive_kf(system, ys)
        l_mat = ar.kalman_estimator(system, horizon)
        assert np.linalg.norm(filtered[-1] - l_mat @ np.concatenate(ys)) <= 1e-8
        # closed-form SR vs Monte Carlo
        k = int(gen.integers(0, horizon + 1))
        l_k = ar.kalman_estimator(system, k)
        closed = ar.estimator_sr_closed(l_k, system, k)
        mc = ar.estimator_sr_mc(l_k, system, k, 6000, RngStream(506 + trial))
        assert abs(mc.mean - closed) <= 3 * mc.std_error
        # first-order optimality probes
        for _ in range(20):
            direction = gen.standard_normal(l_k.shape)
            direction /= np.linalg.norm(direction)
            assert ar.estimator_sr_closed(l_k + 1e-3 * direction, system, k) >= closed - 1e-12
    report(6, "20 systems: stacked == recursive to 1e-8, SR closed == MC, "
              "optimality probes hold")


def test_criterion_7_gramian_reference_values():
    expected = {0.95: 1.22, 0.98: 0.81, 0.99: 0.58}
    got = {}
    for alpha, target in expected.items():
        summary = ar.observability_gramian(rotation_system(alpha, horizon=5), 5)
        # the reference values are the gramian's root eigenvalues (the
        # smallest singular value of the observability matrix): the raw
        # lambda_min values are 1.4875 / 0.6563 / 0.3389
        got[alpha] = summary.min_singular_value
        assert abs(summary.min_singular_value - target) <= 0.01
    report(7, "rotation family gramian scales: " +
              ", ".join(f"alpha={a}: {v:.4f}" for a, v in got.items()))


def test_criterion_8_kalman_bound_validity():
    eps, k = 0.5, 5
    uppers, lam_mins = [], []
    for idx, alpha in enumerate((0.95, 0.98, 0.99)):
        system = rotation_system(alpha, horizon=5)
        l_mat = ar.kalman_estimator(system, k)
        gap = ar.estimator_gap_mc(l_mat, system, k, eps, 20_000, RngStream(608 + idx))
        general, frob = ar.gap_lower_bounds(l_mat, system, k, eps)
        lower_k = ar.kalman_gap_lower_bound(system, k, eps)
        upper_g = ar.gap_upper_bound_general(l_mat, system, k, eps)
        upper_k, _ = ar.kalman_gap_upper_bound(system, k, eps)
        slack = 3 * gap.std_error
        assert frob <= gap.mean + slack
        assert general <= gap.mean + slack
        assert lower_k <= gap.mean + slack
        assert gap.mean <= upper_g + slack
        assert gap.mean <= upper_k + slack
        uppers.append(upper_k)
        lam_mins.append(ar.observability_gramian(system).lambda_min)
    order = np.argsort(lam_mins)
    assert all(uppers[i] >= uppers[j] for i, j in zip(order, order[1:]))
    report(8, "three rotation systems: all bounds bracket the MC gap; "
              "system-level upper bound decreases as lambda_min grows")


def test_criterion_9_pareto_recovery_and_monotonicity():
    gen = np.random.default_rng(109)
    # ground-truth recovery, measurement model
    a_star = gen.standard_normal((4, 4))
    prob = make_problem(a_star, np.eye(4), 0.1 * np.eye(4), 0.5)
    cfg = ar.TrainConfig(lam=0.0, epsilon=0.5, n_iters=3000, step_c0=0.2, seed=9,
                         init="zeros")
    assert np.linalg.norm(ar.train(prob, cfg) - a_star) <= 1e-6
    # nominal-estimator recovery, state estimation
    system = rotation_system(0.95, horizon=5)
    adapter = as_estimation_problem(system, 5)
    cfg = ar.TrainConfig(lam=0.0, epsilon=0.5, n_iters=120_000, step_c0=0.05, seed=9,
                         init="zeros")
    assert np.linalg.norm(ar.train(adapter, cfg) - adapter.nominal) <= 1e-4
    # 10-point frontier at n = p = 4: monotone within 3 sigma, under 5 minutes
    grid = [0.0] + [float(v) for v in np.logspace(-2, 1.5, 8)] + [math.inf]
    assert len(grid) == 10
    start = time.monotonic()
    points = ar.pareto_trace(prob, grid, ar.TrainConfig(epsilon=0.5, n_iters=900,
                                                        batch_size=16, seed=9),
                             eval_samples=5000)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"frontier took {elapsed:.0f}s"
    srs = [pt.sr for pt in points]
    ars = [pt.ar.mean for pt in points]
    ses = [pt.ar.std_error for pt in points]
    assert all(b >= a - 1e-9 for a, b in zip(srs, srs[1:]))
    assert all(ars[i + 1] <= ars[i] + 3 * (ses[i] + ses[i + 1]) for i in range(9))
    report(9, f"lam=0 recovers ground truth (1e-6) and nominal estimator (1e-4); "
              f"10-point frontier monotone in {elapsed:.0f}s")


def test_criterion_10_figure_trends():
    # condition-number sweep: frontiers ordered by dominance, worst last
    grid = [0.0, 0.03, 0.3, 3.0, math.inf]
    frontiers = {}
    for kappa in (1.0, 3.0, 10.0):
        a_star = generate_conditioned_matrix(4, kappa, RngStream(0, 11))
        prob = make_problem(a_star, np.eye(4), 0.1 * np.eye(4), 0.5)
        cfg = ar.TrainConfig(epsilon=0.5, n_iters=800, batch_size=16, seed=10)
        frontiers[kappa] = ar.pareto_trace(prob, grid, cfg, eval_samples=4000)
    for small, large in ((1.0, 3.0), (3.0, 10.0)):
        for pt_s, pt_l in zip(frontiers[small], frontiers[large]):
            slack = 3 * (pt_s.ar.std_error + pt_l.ar.std_error)
            assert pt_l.ar.mean >= pt_s.ar.mean - slack
        # strict separation at the nominal end
        assert frontiers[large][0].ar.mean > frontiers[small][0].ar.mean

    # observability sweep: frontiers worsen as alpha approaches one
    ends = {}
    for alpha in (0.95, 0.98, 0.99):
        adapter = as_estimation_problem(rotation_system(alpha, horizon=5), 0)
        cfg = ar.TrainConfig(epsilon=0.5, n_iters=800, batch_size=16, seed=10)
        ends[alpha] = ar.pareto_trace(adapter, [0.0, math.inf], cfg, eval_samples=4000)
    for lo, hi in ((0.95, 0.98), (0.98, 0.99)):
        for i in (0, 1):
            assert ends[hi][i].sr >= ends[lo][i].sr - 1e-6
            slack = 3 * (ends[hi][i].ar.std_error + ends[lo][i].ar.std_error)
            assert ends[hi][i].ar.mean >= ends[lo][i].ar.mean - slack
        assert ends[hi][0].ar.mean > ends[lo][0].ar.mean

    # robust vs nominal smoother across the coupling sweep: robust never
    # worse, margin shrinking with observability (pathwise CRN comparison)
    margins = []
    for rho in (0.1, 0.3162, 1.0, 3.1623):
        system = shear_system(rho, horizon=5)
        adapter = as_estimation_problem(system, 0)
        cfg = ar.TrainConfig(lam=math.inf, epsilon=0.5, n_iters=1500, batch_size=16,
                             seed=10)
        robust = ar.train(adapter, cfg)
        ys, xk = ar.simulate_rollouts(system, 0, 20_000, RngStream(710))
        vals = {}
        for name, l_mat in (("kf", adapter.nominal), ("adv", robust)):
            b = xk - ys @ l_mat.T
            _, gains, _, _ = ar.worst_case_batch(l_mat, b, 0.5)
            vals[name] = (b * b).sum(axis=1) + gains
        diff = vals["kf"] - vals["adv"]
        margin = float(diff.mean())
        stderr = float(diff.std(ddof=1) / np.sqrt(diff.size))
        assert margin >= -3 * stderr, f"robust worse at rho={rho}"
        margins.append(margin)
    assert margins[0] > margins[-1]
    report(10, "condition-number ordering, observability ordering, and "
               f"robust-smoother margins {['%.4f' % m for m in margins]} all hold")


def test_criterion_11_experiment_determinism(tmp_path):
    configs = [
        ExperimentConfig(kind="kalman-bounds",
                         params={"alphas": [0.95, 0.99], "k": 5, "epsilon": 0.5},
                         n_samples=2000, seed=11),
        ExperimentConfig(kind="pareto",
                         params={"a_star": [[1.0, 0.2], [0.0, 0.8]], "epsilon": 0.5,
                                 "train": {"n_iters": 120, "batch_size": 8}},
                         n_samples=800, seed=11, lambda_grid=[0.0, 1.0]),
    ]
    for idx, cfg in enumerate(configs):
        out1 = tmp_path / f"r{idx}_1.csv"
        out2 = tmp_path / f"r{idx}_2.csv"
        run_experiment(dataclasses.replace(cfg, output_path=str(out1)))
        run_experiment(dataclasses.replace(cfg, output_path=str(out2)))
        assert out1.read_bytes() == out2.read_bytes()
    # shard-invariant sampling underlies run-to-run determinism
    prob = make_problem(np.eye(2), np.eye(2), 0.1 * np.eye(2), 0.5)
    whole = ar.sample_batch(prob, 64, RngStream(11, 5), 0)[0]
    parts = np.vstack([ar.sample_batch(prob, 32, RngStream(11, 5), b)[0] for b in (0, 32)])
    assert np.array_equal(whole, parts)
    report(11, "byte-identical CSV on rerun for both experiment kinds; "
               "sampling is shard-invariant")
