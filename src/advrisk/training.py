"""Stochastic-gradient training of robustness-regularized linear models.

Minimizes ``SR(A) + lam * AR(A)`` (or pure adversarial risk for
``lam = inf``).  Both objectives are convex in the model matrix.  The SR
part has an exact gradient from its closed form; the AR part uses batches
of envelope gradients: solve the inner adversary, hold the maximizer fixed,
and differentiate the realized loss.  Tracing the regularization weight
over a grid with warm starts sweeps out the robustness-accuracy frontier.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .model import LinearInverseProblem, RngStream, TrainingDivergedError, sample_batch
from .risk import _GEN_CHUNK, RiskEstimate, _gaussian_sr, adversarial_risk_mc, with_epsilon
from .trs import worst_case_batch

DIVERGENCE_NORM = 1e6

_TRAIN_STREAM = 101
_EVAL_STREAM = 202


@dataclass(frozen=True, eq=False)
class EstimationProblem:
    """A linear Gaussian estimation problem, as the trainers see it.

    The target is ``t = nominal u + e``, with ``e ~ N(0, noise)`` independent
    of the input ``u`` of second moment ``s_in``; the loss is ``||t - A u||^2``.
    ``draw(count, stream, base_index)`` must give row ``i`` from the counter
    block of sample ``base_index + i`` alone, so any split of a sample range
    into calls of two or more rows gives the same bits: ``train`` draws many
    steps' batches in one call and slices each step's batch from it.  A
    1-row call may round differently (BLAS takes its matrix-vector path).
    """

    nominal: np.ndarray
    s_in: np.ndarray
    noise: np.ndarray
    draw: Callable[[int, RngStream, int], tuple[np.ndarray, np.ndarray]]
    ar_mc: Callable[[np.ndarray, float, int, RngStream], RiskEstimate]

    def sr_closed(self, a: np.ndarray) -> float:
        """``tr(noise) + tr(D s_in D')`` with ``D = A - nominal``."""
        return _gaussian_sr(a, self.nominal, self.s_in, self.noise)

    def sr_grad(self, a: np.ndarray) -> np.ndarray:
        return 2.0 * (a - self.nominal) @ self.s_in  # 2 D s_in, the gradient of sr_closed


def problem_adapter(problem: LinearInverseProblem) -> EstimationProblem:
    """Adapter for the plain measurement model ``y = A* x + w``."""

    def ar_mc(a, eps, n_samples, stream):
        return adversarial_risk_mc(a, with_epsilon(problem, eps), n_samples, stream)

    return EstimationProblem(
        nominal=problem.a_star.copy(),
        s_in=problem.sigma_x.matrix,
        noise=problem.sigma_w.matrix,
        draw=partial(sample_batch, problem),
        ar_mc=ar_mc,
    )


@dataclass(frozen=True)
class TrainConfig:
    """SGD hyperparameters.

    ``lam = math.inf`` trains on the adversarial risk alone (``pure_ar``).
    The step at iteration ``t`` is ``step_c0 / t**step_decay``; the default
    ``step_c0`` shrinks with ``lam`` to keep early steps stable.  The
    returned matrix is the average of the final 10% of iterates.
    """

    lam: float = 0.0
    epsilon: float = 0.0
    batch_size: int = 32
    n_iters: int = 5000
    step_c0: float | None = None
    step_decay: float = 0.5
    seed: int = 0
    init: str | np.ndarray = "nominal"

    def __post_init__(self):
        for name in ("lam", "epsilon", "step_decay"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {v!r}")
        if math.isnan(self.lam) or not math.isfinite(self.epsilon):
            raise ValueError(f"lam must not be NaN and epsilon must be finite, "
                             f"got lam={self.lam}, epsilon={self.epsilon}")
        if self.lam < 0 or self.epsilon < 0:
            raise ValueError("lam and epsilon must be nonnegative")
        if not (0.5 <= self.step_decay <= 1.0):
            raise ValueError("step_decay must lie in [0.5, 1]")
        for name, low in (("batch_size", 1), ("n_iters", 1), ("seed", 0)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {v!r}")
        c0 = self.step_c0
        if c0 is not None and (isinstance(c0, bool) or not isinstance(c0, numbers.Real)
                               or not (math.isfinite(c0) and c0 > 0)):
            raise ValueError(f"step_c0 must be None or a finite number > 0, got {c0!r}")
        if isinstance(self.init, np.ndarray):
            if not np.isfinite(self.init.astype(float)).all():
                raise ValueError("init array has non-finite entries")
        elif self.init not in ("nominal", "zeros"):
            raise ValueError(f"init must be 'nominal', 'zeros' or an array, got {self.init!r}")

    @property
    def pure_ar(self) -> bool:
        return math.isinf(self.lam)

    def resolved_step_c0(self, s_in: np.ndarray) -> float:
        if self.step_c0 is not None:
            return self.step_c0
        lam = 0.0 if self.pure_ar else self.lam
        # scale by the loss's curvature λ_max(s_in), to stay stable on badly scaled inputs
        return 0.01 / (1.0 + lam) / max(1.0, float(np.linalg.eigvalsh(s_in)[-1]))


def _init_matrix(config: TrainConfig, adapter: EstimationProblem) -> np.ndarray:
    if isinstance(config.init, np.ndarray):
        a0 = np.array(config.init, dtype=float)
        if a0.shape != adapter.nominal.shape:
            raise ValueError(f"init shape {a0.shape} != {adapter.nominal.shape}")
        return a0
    if config.init == "nominal":
        return adapter.nominal.copy()
    return np.zeros(adapter.nominal.shape)


def _ar_batch_grad(a, xs, ys, eps: float) -> np.ndarray:
    """Mean envelope gradient over a batch, sharing one SVD of ``a``."""
    deltas, _, _, _ = worst_case_batch(a, ys - xs @ a.T, eps)
    zs = xs + deltas
    rs = ys - zs @ a.T
    return (-2.0 / xs.shape[0]) * (rs.T @ zs)


def _adapter(problem) -> EstimationProblem:
    if isinstance(problem, EstimationProblem):
        return problem
    if isinstance(problem, LinearInverseProblem):
        return problem_adapter(problem)
    raise TypeError(f"cannot train on {type(problem).__name__}")


def train(problem, config: TrainConfig, on_iterate=None) -> np.ndarray:
    """Run SGD on ``SR + lam * AR`` and return the tail-averaged iterate.

    ``lam = 0`` uses only the exact SR gradient, so the descent is
    deterministic.  Raises ``TrainingDivergedError`` if the iterate norm
    exceeds ``DIVERGENCE_NORM`` or is not finite (the step size or the
    budget is too large); overflow in a step warns of nothing before that.
    ``on_iterate(t, a)``, when given, observes every iterate.

    The batches are drawn ``_GEN_CHUNK // batch_size`` steps at a time (at
    least one step and two rows per draw) and each step slices its own; by
    the split invariance of ``draw`` each holds the bits of a draw of that
    step alone (of two rows at batch size 1).
    """
    adapter = _adapter(problem)
    a = _init_matrix(config, adapter)
    c0 = config.resolved_step_c0(adapter.s_in)
    stream = RngStream(config.seed, _TRAIN_STREAM)
    need_ar = config.pure_ar or config.lam > 0.0
    tail_len = max(1, config.n_iters // 10)
    tail_sum = np.zeros_like(a)
    batch = config.batch_size
    steps_per_block = max(1, _GEN_CHUNK // batch)
    # An overflowing step is not an error here: its iterate is inf or NaN,
    # which the divergence check reports.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, config.n_iters + 1):
            if need_ar:
                j = (t - 1) % steps_per_block
                if not j:
                    rows = min(steps_per_block, config.n_iters - t + 1) * batch
                    inputs, targets = adapter.draw(max(rows, 2), stream, (t - 1) * batch)
                xs = inputs[j * batch : (j + 1) * batch]
                ys = targets[j * batch : (j + 1) * batch]
                g_ar = _ar_batch_grad(a, xs, ys, config.epsilon)
                grad = g_ar if config.pure_ar else adapter.sr_grad(a) + config.lam * g_ar
            else:
                grad = adapter.sr_grad(a)
            a = a - (c0 / t**config.step_decay) * grad
            norm = float(np.linalg.norm(a))
            if not np.isfinite(norm) or norm > DIVERGENCE_NORM:
                # a gradient that is not finite came from an iterate that
                # passed this check: the step size is not what overflowed
                advice = (f"reduce step_c0={c0:.3e} or increase step_decay={config.step_decay}"
                          if np.all(np.isfinite(grad)) else
                          f"the gradient overflows; reduce epsilon={config.epsilon:.3e} or the "
                          f"data's scale")
                raise TrainingDivergedError(f"iterate norm {norm:.3e} at step {t}; {advice}")
            if on_iterate is not None:
                on_iterate(t, a)
            if t > config.n_iters - tail_len:
                tail_sum += a
    return tail_sum / tail_len


@dataclass(frozen=True, eq=False)
class ParetoPoint:
    """One sample of the robustness-accuracy frontier."""

    lam: float
    a: np.ndarray
    sr: float
    ar: RiskEstimate


def pareto_trace(
    problem,
    lambda_grid,
    config: TrainConfig,
    eval_samples: int = 10_000,
) -> list[ParetoPoint]:
    """Trace the frontier by re-solving along a nondecreasing ``lam`` grid.

    Each point warm-starts from the previous solution.  SR is evaluated in
    closed form; AR by Monte Carlo on one fixed evaluation stream, shared
    across all points so that frontier comparisons use common random
    numbers.
    """
    grid = [float(v) for v in lambda_grid]
    if not grid:
        raise ValueError("lambda_grid must be nonempty")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("lambda_grid must be nondecreasing")
    adapter = _adapter(problem)
    eval_stream = RngStream(config.seed, _EVAL_STREAM)
    points = []
    init = config.init
    for lam in grid:
        a = train(adapter, dataclasses.replace(config, lam=lam, init=init))
        points.append(
            ParetoPoint(
                lam=lam,
                a=a,
                sr=adapter.sr_closed(a),
                ar=adapter.ar_mc(a, config.epsilon, eval_samples, eval_stream),
            )
        )
        init = a
    return points
