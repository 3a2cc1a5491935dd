import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def central_difference(loss, a, h):
    """Central differences of the scalar ``loss`` at the matrix ``a``, entry by entry."""
    numeric = np.zeros_like(a)
    for idx in np.ndindex(*a.shape):
        basis = np.zeros_like(a)
        basis[idx] = h
        numeric[idx] = (loss(a + basis) - loss(a - basis)) / (2 * h)
    return numeric


def random_spd(rng, d, scale=1.0):
    """Random symmetric positive definite matrix with eigenvalues >= 0.1*scale."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = rng.uniform(0.1, 1.0, size=d) * scale
    return (q * eigs) @ q.T
