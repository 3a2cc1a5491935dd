import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox, SeedSequence
from scipy.special import ndtri

from advrisk.model import (
    LinearInverseProblem,
    RngStream,
    cholesky_factor,
    sample_batch,
    validate_covariance,
)
from conftest import random_spd


class TestValidateCovariance:
    def test_identity_strict_accepted(self):
        spec = validate_covariance(np.eye(3), strict=True)
        assert np.array_equal(spec.matrix, np.eye(3))

    def test_psd_with_zero_eigenvalue_rejected_when_strict(self):
        with pytest.raises(ValueError, match="not positive definite"):
            validate_covariance(np.diag([1.0, 0.0]), strict=True)

    def test_indefinite_rejected(self):
        # eigenvalues are 3 and -1
        with pytest.raises(ValueError, match="not PSD"):
            validate_covariance([[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="asymmetric"):
            validate_covariance([[1.0, 0.5], [0.0, 1.0]])

    def test_tiny_asymmetry_symmetrized(self):
        m = np.eye(2)
        m[0, 1] = 1e-12
        spec = validate_covariance(m)
        assert np.array_equal(spec.matrix, spec.matrix.T)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            validate_covariance(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            validate_covariance([[np.inf, 0.0], [0.0, 1.0]])


class TestSymmetricSqrt:
    def test_cholesky_reconstruction(self, rng):
        for _ in range(10):
            w = random_spd(rng, 5)
            spec = validate_covariance(w, strict=True)
            low = cholesky_factor(spec)
            rel = np.linalg.norm(low @ low.T - spec.matrix) / np.linalg.norm(spec.matrix)
            assert rel <= 1e-12

    def test_cholesky_requires_spd(self):
        spec = validate_covariance(np.diag([1.0, 0.0]))
        with pytest.raises(np.linalg.LinAlgError):
            cholesky_factor(spec)


class TestProblem:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="sigma_x"):
            LinearInverseProblem.from_matrices(np.ones((2, 3)), np.eye(2), np.eye(2), 0.1)

    def test_negative_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            LinearInverseProblem.from_matrices(np.eye(2), np.eye(2), np.eye(2), -0.5)


@pytest.fixture
def problem():
    return LinearInverseProblem.from_matrices(
        np.array([[1.0, 0.3], [0.0, 0.7]]), np.eye(2), 0.1 * np.eye(2), 0.5
    )


class TestSampleBatch:
    def test_measurement_identity_exact(self, problem):
        xs, ys = sample_batch(problem, 100, RngStream(5), 0)
        # the noise the batch drew: the block's last p columns, coloured
        ws = RngStream(5).normal_block(0, 100, problem.n + problem.p)[:, problem.n:]
        ws = ws @ problem.sigma_w.cholesky.T
        assert np.array_equal(ys, xs @ problem.a_star.T + ws)

    def test_empty_batch(self, problem):
        xs, ys = sample_batch(problem, 0, RngStream(5), 0)
        assert xs.shape == (0, 2) and ys.shape == (0, 2)

    def test_deterministic(self, problem):
        xs1, ys1 = sample_batch(problem, 50, RngStream(7, 3), 10)
        xs2, ys2 = sample_batch(problem, 50, RngStream(7, 3), 10)
        assert np.array_equal(xs1, xs2) and np.array_equal(ys1, ys2)

    def test_sample_covariance_close(self, problem):
        xs, _ = sample_batch(problem, 100_000, RngStream(11), 0)
        cov = xs.T @ xs / len(xs)
        assert np.linalg.norm(cov - np.eye(2)) / np.linalg.norm(np.eye(2)) < 0.05

    @given(split=st.integers(min_value=0, max_value=64))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_shard_invariance(self, problem, split):
        whole = sample_batch(problem, 64, RngStream(3, 1), 0)
        head = sample_batch(problem, split, RngStream(3, 1), 0)
        tail = sample_batch(problem, 64 - split, RngStream(3, 1), split)
        for part in (0, 1):  # xs, then ys
            assert np.array_equal(whole[part], np.vstack([head[part], tail[part]]))


class TestRngStream:
    def test_streams_differ(self):
        a = RngStream(1, 0).normal_block(0, 10, 4)
        b = RngStream(1, 1).normal_block(0, 10, 4)
        c = RngStream(2, 0).normal_block(0, 10, 4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_substream_independence_smoke(self):
        a = RngStream(9, 0).normal_block(0, 20_000, 1).ravel()
        b = RngStream(9, 1).normal_block(0, 20_000, 1).ravel()
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.02

    def test_block_width_rounding(self):
        # widths that are not multiples of the counter block still shard cleanly
        for width in (1, 3, 4, 5, 11):
            whole = RngStream(4, 2).normal_block(0, 9, width)
            parts = np.vstack(
                [RngStream(4, 2).normal_block(i, 3, width) for i in (0, 3, 6)]
            )
            assert np.array_equal(whole, parts)


def _reference_normals(seed, stream_id, base_index, count, width):
    """Normals of ``RngStream(seed, stream_id).normal_block`` from a freshly
    seeded Philox, advanced to the first sample's counter block."""
    blocks = -(-width // 4)
    bg = Philox(SeedSequence(entropy=seed, spawn_key=(stream_id,)))
    bg.advance(base_index * blocks)
    u = Generator(bg).random((count, blocks * 4))[:, :width]
    return ndtri(np.clip(u, 2.0**-54, 1.0 - 2.0**-54))


class TestKeptGenerator:
    def test_interleaved_streams_match_fresh_seeding(self):
        # Two streams on one seed, one of them read at shuffled offsets: each
        # draw must equal a generator seeded afresh for it.
        first, second = RngStream(21, 3), RngStream(21, 4)
        for base in (0, 40, 7, 0, 300, 7, 1):
            for stream in (first, second):
                got = stream.normal_block(base, 5, 6)
                want = _reference_normals(21, stream.stream_id, base, 5, 6)
                assert np.array_equal(got, want)
        assert np.array_equal(first.normal_block(0, 3, 2), _reference_normals(21, 3, 0, 3, 2))

    def test_equal_instances_are_independent(self):
        a, b = RngStream(8, 1), RngStream(8, 1)
        assert a == b
        a.normal_block(500, 10, 3)
        assert np.array_equal(b.normal_block(0, 4, 3), _reference_normals(8, 1, 0, 4, 3))
        assert np.array_equal(a.normal_block(0, 4, 3), b.normal_block(0, 4, 3))


class TestReadOnlyArrays:
    def test_covariance_matrix_is_read_only_copy(self):
        m = np.diag([2.0, 1.0])
        spec = validate_covariance(m, strict=True)
        with pytest.raises(ValueError, match="read-only"):
            spec.matrix[0, 0] = 5.0
        m[0, 0] = 7.0  # the caller's array stays writable and is not aliased
        assert spec.matrix[0, 0] == 2.0

    def test_cholesky_cached_and_read_only(self):
        spec = validate_covariance([[2.0, 0.3], [0.3, 1.0]], strict=True)
        low = spec.cholesky
        assert low is spec.cholesky
        assert np.array_equal(low, cholesky_factor(spec))
        with pytest.raises(ValueError, match="read-only"):
            low[0, 0] = 0.0

    def test_a_star_is_read_only_copy(self):
        a_star = np.array([[1.0, 0.3], [0.0, 0.7]])
        problem = LinearInverseProblem.from_matrices(a_star, np.eye(2), 0.1 * np.eye(2), 0.5)
        with pytest.raises(ValueError, match="read-only"):
            problem.a_star[0, 0] = 0.0
        a_star[0, 0] = 9.0
        assert problem.a_star[0, 0] == 1.0
        # copies with another budget share the frozen arrays
        assert dataclasses.replace(problem, epsilon=0.1).a_star is problem.a_star


def test_repeated_sample_batch_matches_fresh_problem():
    def build():
        return LinearInverseProblem.from_matrices(
            [[1.0, 0.3, 0.0], [0.2, 0.7, 0.1]], [[1.0, 0.2, 0.0], [0.2, 0.8, 0.1], [0.0, 0.1, 0.5]],
            [[0.1, 0.02], [0.02, 0.3]], 0.5)

    kept, stream = build(), RngStream(6, 2)
    for base in (0, 32, 64, 0, 5):
        got = sample_batch(kept, 32, stream, base)
        want = sample_batch(build(), 32, RngStream(6, 2), base)
        for part in (0, 1):  # xs, then ys
            assert np.array_equal(got[part], want[part])
