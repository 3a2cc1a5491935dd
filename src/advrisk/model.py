"""Problem definitions, covariance validation, and deterministic Gaussian sampling.

Everything downstream (risk estimation, training, state estimation) consumes
the types defined here.  Sampling is counter-based: every sample index owns a
fixed block of the underlying Philox counter space, so regenerating any slice
of a batch -- in any sharding -- is bit-identical.

Model arrays are read-only copies, so constants derived from them (Cholesky
factors here, stacked Kalman matrices in ``kalman``) are computed once per
object and reused on every draw.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from scipy.special import ndtri

SYMMETRY_TOL = 1e-10
PSD_TOL = 1e-10

# Philox emits 4 uint64 words per counter increment; one word per double.
_WORDS_PER_BLOCK = 4
# Floor on the uniforms so the normal quantile stays finite at 0.  The top end
# needs no clamp: ``Generator.random`` draws from [0, 1) on a 2**-53 grid, so
# its largest value is 1 - 2**-53 (a clamp at 1 - 2**-54 would round to 1.0).
_U_FLOOR = 2.0**-54


class TrainingDivergedError(RuntimeError):
    """Raised when an iterative numerical procedure leaves its stable region."""


def check_fits_in_memory(nbytes: int, what: str) -> None:
    """Raise ``MemoryError`` if ``what``, ``nbytes`` long, exceeds physical memory.

    Called before a config-sized array is built, so a size past numpy's array
    limit fails the same way as one past memory.
    """
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > ram:
        raise MemoryError(f"{what} needs {nbytes / 2**30:.3g} GiB, more than the "
                          f"{ram / 2**30:.3g} GiB of physical memory")


def frozen_array(values) -> np.ndarray:
    """Read-only float array holding ``values``.

    Copies unless ``values`` already is a read-only float array that owns its
    data, so the caller's array stays writable and is never aliased, while
    copies of a model (``dataclasses.replace``) share its arrays.
    """
    arr = np.asarray(values, dtype=float)
    if arr.flags.writeable or not arr.flags.owndata:
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class CovarianceSpec:
    """A validated symmetric positive semidefinite matrix.

    Attributes
    ----------
    matrix : ndarray, shape (d, d)
        Symmetrized read-only copy of the input.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", frozen_array(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def cholesky(self) -> np.ndarray:
        """``cholesky_factor(self)``, computed on first use and kept (read-only)."""
        low = cholesky_factor(self)
        low.flags.writeable = False
        return low


def validate_covariance(m, strict: bool = False, name: str = "covariance") -> CovarianceSpec:
    """Validate a covariance matrix and return its symmetrized spec.

    The input is symmetrized as ``(m + m.T) / 2`` before the eigenvalue
    check, but asymmetry beyond ``SYMMETRY_TOL`` is rejected outright.

    Parameters
    ----------
    m : array_like, shape (d, d)
        Candidate covariance matrix.
    strict : bool
        Require strict positive definiteness (smallest eigenvalue > 0).
    name : str
        Label used in error messages.

    Raises
    ------
    ValueError
        If ``m`` is not square, not finite, asymmetric beyond tolerance,
        not PSD, or (with ``strict``) not positive definite.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    asym = np.abs(m - m.T).max() if m.size else 0.0
    if asym > SYMMETRY_TOL:
        raise ValueError(f"{name} is asymmetric (max deviation {asym:.3e})")
    sym = 0.5 * (m + m.T)
    eigs = np.linalg.eigvalsh(sym)
    if eigs[0] < -PSD_TOL:
        raise ValueError(f"{name} is not PSD (min eigenvalue {eigs[0]:.3e})")
    if strict and eigs[0] <= 0.0:
        raise ValueError(f"{name} is not positive definite (min eigenvalue {eigs[0]:.3e})")
    return CovarianceSpec(matrix=sym)


def cholesky_factor(spec: CovarianceSpec) -> np.ndarray:
    """Lower-triangular ``L`` with ``L @ L.T == spec.matrix``; requires SPD."""
    try:
        return np.linalg.cholesky(spec.matrix)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "Cholesky failed: covariance is not strictly positive definite"
        ) from exc


@dataclass(frozen=True, eq=False)
class LinearInverseProblem:
    """Ground-truth linear measurement model ``y = a_star @ x + w``.

    ``x ~ N(0, sigma_x)``, ``w ~ N(0, sigma_w)``, and an adversary may move
    the input inside an l2 ball of radius ``epsilon``.
    """

    a_star: np.ndarray
    sigma_x: CovarianceSpec
    sigma_w: CovarianceSpec
    epsilon: float

    def __post_init__(self):
        a = frozen_array(self.a_star)
        object.__setattr__(self, "a_star", a)
        if a.ndim != 2:
            raise ValueError(f"a_star must be a matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("a_star has non-finite entries")
        p, n = a.shape
        if self.sigma_x.dim != n:
            raise ValueError(f"sigma_x is {self.sigma_x.dim}x{self.sigma_x.dim}, expected {n}x{n}")
        if self.sigma_w.dim != p:
            raise ValueError(f"sigma_w is {self.sigma_w.dim}x{self.sigma_w.dim}, expected {p}x{p}")
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")

    @classmethod
    def from_matrices(cls, a_star, sigma_x, sigma_w, epsilon) -> "LinearInverseProblem":
        return cls(
            a_star=np.asarray(a_star, dtype=float),
            sigma_x=validate_covariance(sigma_x, strict=True, name="sigma_x"),
            sigma_w=validate_covariance(sigma_w, strict=True, name="sigma_w"),
            epsilon=float(epsilon),
        )

    @property
    def p(self) -> int:
        return self.a_star.shape[0]

    @property
    def n(self) -> int:
        return self.a_star.shape[1]


@dataclass(frozen=True)
class RngStream:
    """Addressable pseudo-random stream.

    A stream is a pure function of ``(seed, stream_id)``.  Sample index
    ``i`` owns the Philox counter blocks ``[i * blocks_per_sample,
    (i + 1) * blocks_per_sample)``, so draws are reproducible regardless of
    how a batch is split across calls or worker shards.

    An instance seeds one Philox generator on first use and keeps it: each
    draw resets it to its seeded state and advances it to the first block,
    which gives the same bits as seeding afresh.  Do not share one instance
    across threads; equal-valued instances have their own generators and
    are independent of each other.
    """

    seed: int
    stream_id: int = 0

    @cached_property
    def _seeded(self) -> tuple[Generator, dict]:
        """The kept generator and the state it was seeded with."""
        bg = Philox(seed=SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,)))
        return Generator(bg), bg.state

    def normal_block(self, base_index: int, count: int, width: int) -> np.ndarray:
        """``(count, width)`` standard normals; row ``i`` belongs to sample
        ``base_index + i``.

        The quantile transform consumes exactly one uniform per normal,
        which keeps sample counter blocks aligned (rejection samplers do
        not).
        """
        if count < 0 or width <= 0 or base_index < 0:
            raise ValueError("count, width and base_index must be nonnegative (width > 0)")
        if count == 0:
            return np.empty((0, width))
        blocks = -(-width // _WORDS_PER_BLOCK)
        check_fits_in_memory(8 * count * blocks * _WORDS_PER_BLOCK,
                             f"a block of {count} x {width} normals")
        gen, seeded = self._seeded
        bg = gen.bit_generator
        bg.state = seeded
        if base_index:
            bg.advance(base_index * blocks)
        u = gen.random((count, blocks * _WORDS_PER_BLOCK))[:, :width]
        np.maximum(u, _U_FLOOR, out=u)
        return ndtri(u, out=u)


def sample_batch(
    problem: LinearInverseProblem,
    count: int,
    stream: RngStream,
    base_index: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` samples ``(xs, ys)`` from the problem's data model.

    ``xs[i]`` and the noise ``ws[i]`` are Cholesky-colored normals generated
    from the counter block of sample ``base_index + i``; ``ys = xs A*' + ws``
    is constructed exactly, never re-sampled.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    n, p = problem.n, problem.p
    lx = problem.sigma_x.cholesky
    lw = problem.sigma_w.cholesky
    z = stream.normal_block(base_index, count, n + p)
    xs = z[:, :n] @ lx.T
    ws = z[:, n:] @ lw.T
    ys = xs @ problem.a_star.T
    ys += ws
    return xs, ys
