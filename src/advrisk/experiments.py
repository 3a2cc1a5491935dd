"""Experiment configurations, deterministic CSV output, and figure runs.

Every experiment is a pure function of ``(config, seed)``: rerunning with
the same config file produces byte-identical CSV.  Metadata (seed, config
hash, tool version) is embedded as ``#``-prefixed comment lines so each
output file documents how to regenerate itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__
from .kalman import (
    LtiSystem,
    as_estimation_problem,
    estimator_ar_mc,
    estimator_sr_closed,
    gap_lower_bounds,
    gap_upper_bound_general,
    kalman_estimator,
    kalman_gap_lower_bound,
    kalman_gap_upper_bound,
    observability_gramian,
)
from .model import LinearInverseProblem, RngStream
from .risk import (
    adversarial_risk_mc,
    ar_sr_gap_mc,
    astar_gap_bounds,
    gap_bounds_mc,
    standard_risk_closed,
)
from .training import TrainConfig, pareto_trace, train
from .trs import worst_case_perturbation

_MATRIX_STREAM = 11
_MC_STREAM = 12


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a kind, its parameters, and reproducibility keys.

    ``params`` holds kind-specific values (problem matrices as nested
    lists, sweep grids, training settings); unspecified entries fall back
    to the built-in defaults of the kind.
    """

    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    n_samples: int = 100_000
    lambda_grid: list[float] | None = None
    output_path: str | None = None
    svg: bool = False

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}; options: {EXPERIMENT_KINDS}")
        for name in ("seed", "n_samples"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.n_samples <= 0:
            raise ConfigError("n_samples must be positive")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be a 64-bit unsigned integer")
        if not (self.output_path is None or isinstance(self.output_path, str)):
            raise ConfigError(f"output_path must be a string, got {self.output_path!r}")
        if not isinstance(self.svg, bool):
            raise ConfigError(f"svg must be true or false, got {self.svg!r}")
        if self.svg and not self.output_path:
            raise ConfigError("svg needs an output_path: the chart is written next to the CSV")
        if self.lambda_grid is not None and self.kind not in _SWEEPING_KINDS:
            raise ConfigError(f"{self.kind} sweeps no lambda, so it takes no lambda_grid; "
                              f"only {', '.join(_SWEEPING_KINDS)} do")
        _known(self.params, _RUNNERS[self.kind][1], "params")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "kind" not in data:
            raise ConfigError("config requires a 'kind' field")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def config_hash(self) -> str:
        # Hash only the fields that determine the numbers; output path and
        # SVG choice are presentation and must not alter CSV content.
        semantic = {key: value for key, value in asdict(self).items()
                    if key not in ("output_path", "svg")}
        canon = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _number(value, name: str, integer: bool = False,
            low: float = -math.inf, high: float = math.inf):
    """A config number: a finite float, or an ``int`` when ``integer``, in
    ``[low, high]``.

    Raises ``ConfigError`` for anything else (strings, bools, NaN, 2.7 for
    an integer), so a config mistake is never truncated or reported later
    as a numerical failure.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not isinstance(value, numbers.Integral):
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
        if integer and not float(value).is_integer():
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        raise ConfigError(f"{name} must lie in [{low}, {high}], got {value!r}")
    try:
        return int(value) if integer else float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise ConfigError(f"{name} is too large for a float") from exc


def _known(obj, keys: set, where: str) -> dict:
    """``obj`` if it is an object whose keys all lie in ``keys``, so a
    misspelt key is a config error rather than a silent default."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {obj!r}")
    unknown = set(obj) - keys
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown, key=str)}; "
                          f"options: {sorted(keys)}")
    return obj


def _numbers(params: dict, name: str, default, **limits) -> list:
    """``params[name]`` (or ``default``) as a nonempty list of ``_number``
    values, so a sweep never writes a table with no rows."""
    values = params.get(name, default)
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {values!r}")
    if not values:
        raise ConfigError(f"{name} must be nonempty")
    return [_number(v, name, **limits) for v in values]


def default_lambda_grid() -> list[float]:
    """{0} + 15 log-spaced points in [1e-3, 1e2] + {inf}."""
    return [0.0] + [float(v) for v in np.logspace(-3, 2, 15)] + [math.inf]


@dataclass
class ResultTable:
    """Columnar numeric results plus reproducibility metadata."""

    header: list[str]
    rows: list[list[float]]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.header):
                raise ValueError(f"row width {len(row)} != header width {len(self.header)}")

    def to_csv(self) -> str:
        lines = [f"# {key}={value}" for key, value in self.metadata.items()]
        lines.append(",".join(self.header))
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())

    def column(self, name: str) -> np.ndarray:
        return np.array([row[self.header.index(name)] for row in self.rows])


def _fmt(value) -> str:
    # 17 significant digits round-trips doubles exactly.
    return f"{float(value):.17g}"


def generate_conditioned_matrix(n: int, condition: float, stream: RngStream) -> np.ndarray:
    """Random square matrix with prescribed condition number and unit
    Frobenius norm.

    Two independent Haar-random orthogonal factors (QR of a Gaussian matrix
    with the sign fix) surround a geometric positive diagonal whose extreme
    ratio is ``condition``; the diagonal vector is scaled to unit Euclidean
    norm.
    """
    if condition < 1.0:
        raise ValueError("condition must be >= 1")
    u = _haar_orthogonal(n, stream, base_index=0)
    v = _haar_orthogonal(n, stream, base_index=n)
    diag = np.geomspace(condition, 1.0, n) if n > 1 else np.ones(1)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(diag)
    if not math.isfinite(norm):  # dividing by it would give the zero matrix
        raise ValueError(f"condition {condition!r} is too large at n = {n}: the norm of the "
                         f"diagonal overflows (the limit is about {math.sqrt(np.finfo(float).max):.4g}, "
                         f"lower for large n)")
    return (u * (diag / norm)) @ v.T


def _haar_orthogonal(n: int, stream: RngStream, base_index: int) -> np.ndarray:
    g = stream.normal_block(base_index, n, n)
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def _epsilon(params: dict) -> float:
    return _number(params.get("epsilon", 0.5), "epsilon", low=0.0)


def _horizon(params: dict) -> int:
    return _number(params.get("horizon", 5), "horizon", integer=True, low=0)


def _problem_from_params(params: dict) -> LinearInverseProblem:
    try:
        a_star = np.asarray(params["a_star"], dtype=float)
        n = a_star.shape[1]
        p = a_star.shape[0]
        sigma_x = np.asarray(params.get("sigma_x", np.eye(n).tolist()), dtype=float)
        sigma_w = np.asarray(params.get("sigma_w", (0.1 * np.eye(p)).tolist()), dtype=float)
        return LinearInverseProblem.from_matrices(a_star, sigma_x, sigma_w, _epsilon(params))
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid problem parameters: {exc}") from exc


def _system_from_params(params: dict) -> LtiSystem:
    try:
        a = np.asarray(params["a"], dtype=float)
        c = np.asarray(params["c"], dtype=float)
        n = a.shape[0]
        p = c.shape[0] if c.ndim == 2 else 1
        c = c.reshape(p, n)
        sigma0 = np.asarray(params.get("sigma0", np.eye(n).tolist()), dtype=float)
        sigma_w = np.asarray(params.get("sigma_w", (0.1 * np.eye(n)).tolist()), dtype=float)
        sigma_v = np.asarray(params.get("sigma_v", (0.1 * np.eye(p)).tolist()), dtype=float)
        return LtiSystem.from_matrices(a, c, sigma0, sigma_w, sigma_v, _horizon(params))
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid system parameters: {exc}") from exc


def rotation_system(alpha: float, sigma_v: float = 0.1, horizon: int = 5) -> LtiSystem:
    """Planar rotation observed through its first coordinate.

    ``A = [[alpha, beta], [-beta, alpha]]`` with ``alpha^2 + beta^2 = 1``;
    as ``alpha`` approaches one the gramian's smallest eigenvalue shrinks.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
    beta = float(np.sqrt(1.0 - alpha * alpha))
    a = np.array([[alpha, beta], [-beta, alpha]])
    c = np.array([[1.0, 0.0]])
    return LtiSystem.from_matrices(a, c, np.eye(2), 0.1 * np.eye(2), [[sigma_v]], horizon)


def shear_system(rho: float, sigma_v: float = 0.1, horizon: int = 5) -> LtiSystem:
    """Integrator chain with coupling ``rho``; observability grows with ``rho``."""
    a = np.array([[1.0, float(rho)], [0.0, 1.0]])
    c = np.array([[1.0, 0.0]])
    return LtiSystem.from_matrices(a, c, np.eye(2), 0.1 * np.eye(2), [[sigma_v]], horizon)


def _train_config(config: ExperimentConfig, epsilon: float, lam: float = 0.0) -> TrainConfig:
    train = _known(config.params.get("train", {}), _TRAIN_KEYS, "params.train")
    try:
        return TrainConfig(
            lam=lam,
            epsilon=epsilon,
            batch_size=_number(train.get("batch_size", 32), "batch_size", integer=True, low=1),
            n_iters=_number(train.get("n_iters", 5000), "n_iters", integer=True, low=1),
            step_c0=train.get("step_c0"),
            step_decay=_number(train.get("step_decay", 0.5), "step_decay"),
            seed=config.seed,
            init=train.get("init", "nominal"),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid training parameters: {exc}") from exc


def _grid(config: ExperimentConfig) -> list[float]:
    if config.lambda_grid is None:
        return default_lambda_grid()
    values = config.lambda_grid
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"lambda_grid must be a list, got {values!r}")
    # +inf (pure adversarial training) is the one non-finite weight allowed
    grid = [v if v == math.inf else _number(v, "lambda_grid", low=0.0) for v in values]
    if not grid:
        raise ConfigError("lambda_grid must be nonempty")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ConfigError("lambda_grid must be nondecreasing")
    return grid


def _run_perturb(config: ExperimentConfig) -> ResultTable:
    params = config.params
    try:
        a = np.asarray(params["a"], dtype=float)
        b = np.asarray(params["b"], dtype=float).reshape(-1)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"perturb requires 'a', 'b' (and optional 'epsilon'): {exc}") from exc
    if a.ndim != 2 or b.size != a.shape[0]:
        raise ConfigError(f"perturb needs a matrix 'a' and a 'b' with one entry per row of 'a', "
                          f"got shapes {a.shape} and {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ConfigError("perturb needs 'a' and 'b' with finite entries")
    res = worst_case_perturbation(a, b, _epsilon(params))
    header = ["dual_lambda", "objective_gain", "branch_code", "delta_norm"] + [
        f"delta_{i}" for i in range(res.delta.size)
    ]
    row = [res.dual_lambda, res.objective_gain, res.branch, np.linalg.norm(res.delta)]
    return ResultTable(header=header, rows=[row + list(res.delta)])


def _problem_and_model(params: dict) -> tuple[LinearInverseProblem, np.ndarray]:
    """The problem of ``params`` and the model ``params["a"]`` (default ``A*``),
    a finite matrix of ``A*``'s shape."""
    problem = _problem_from_params(params)
    try:
        a = np.asarray(params.get("a", problem.a_star), dtype=float)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"a must be a numeric matrix: {exc}") from exc
    if a.shape != problem.a_star.shape or not np.all(np.isfinite(a)):
        raise ConfigError(f"a must be a finite matrix of a_star's shape {problem.a_star.shape}, "
                          f"got shape {a.shape}")
    return problem, a


def _run_risk(config: ExperimentConfig) -> ResultTable:
    problem, a = _problem_and_model(config.params)
    stream = RngStream(config.seed, _MC_STREAM)
    sr = standard_risk_closed(a, problem)
    ar = adversarial_risk_mc(a, problem, config.n_samples, stream)
    gap = ar_sr_gap_mc(a, problem, config.n_samples, stream)
    return ResultTable(
        header=["sr", "ar_mean", "ar_stderr", "gap_mean", "gap_stderr"],
        rows=[[sr, ar.mean, ar.std_error, gap.mean, gap.std_error]],
    )


def _run_bounds(config: ExperimentConfig) -> ResultTable:
    problem, a = _problem_and_model(config.params)
    stream = RngStream(config.seed, _MC_STREAM)
    bounds = gap_bounds_mc(a, problem, config.n_samples, stream)
    rows = [[
        bounds.lower, bounds.upper, bounds.lambda_min, bounds.lambda_max,
        bounds.cross_term, bounds.cross_term_stderr, bounds.gap.mean, bounds.gap.std_error,
    ]]
    header = [
        "lower", "upper", "lambda_min", "lambda_max",
        "cross_term", "cross_stderr", "gap_mean", "gap_stderr",
    ]
    if np.array_equal(a, problem.a_star):
        try:
            closed = astar_gap_bounds(problem)
            rows[0] += [closed.lower, closed.upper]
            header += ["closed_lower", "closed_upper"]
        except ValueError:
            pass  # anisotropic noise: closed form not applicable
    return ResultTable(header=header, rows=rows)


_FRONTIER_HEADER = ["lambda", "sr", "ar_mean", "ar_stderr"]


def _frontier_rows(problem, config: ExperimentConfig, eps: float, prefix: list) -> list[list]:
    """One row ``prefix + _FRONTIER_HEADER`` per point of ``problem``'s frontier
    over the config's λ grid."""
    train_cfg = _train_config(config, eps)
    points = pareto_trace(problem, _grid(config), train_cfg, eval_samples=config.n_samples)
    return [prefix + [pt.lam, pt.sr, pt.ar.mean, pt.ar.std_error] for pt in points]


def _run_pareto(config: ExperimentConfig) -> ResultTable:
    problem = _problem_from_params(config.params)
    return ResultTable(header=_FRONTIER_HEADER,
                       rows=_frontier_rows(problem, config, problem.epsilon, []))


def _kalman_row(system: LtiSystem, k: int, eps: float, n_samples: int, stream, system_id):
    gram = observability_gramian(system)
    nominal = kalman_estimator(system, k)
    sr = estimator_sr_closed(nominal, system, k)
    ar = estimator_ar_mc(nominal, system, k, eps, n_samples, stream)
    lb_general, lb_frobenius = gap_lower_bounds(nominal, system, k, eps)
    ub_general = gap_upper_bound_general(nominal, system, k, eps)
    return [
        system_id, sr, ar.mean, ar.std_error,
        lb_general, lb_frobenius, kalman_gap_lower_bound(system, k, eps),
        ub_general, kalman_gap_upper_bound(system, k, eps)[0],
        gram.lambda_min, gram.min_singular_value, gram.frobenius,
    ]


_KALMAN_HEADER = [
    "system_id", "sr", "ar_mean", "ar_stderr",
    "lb_general", "lb_frobenius", "lb_kalman",
    "ub_general", "ub_kalman",
    "lambda_min_gramian", "sqrt_lambda_min_gramian", "frob_gramian",
]


def _run_kalman_bounds(config: ExperimentConfig) -> ResultTable:
    params = config.params
    horizon = _horizon(params)
    eps = _epsilon(params)
    stream = RngStream(config.seed, _MC_STREAM)
    given = [name for name, keys in (("alphas", {"alphas"}), ("systems", {"systems"}),
                                     ("a top-level system", _SYSTEM_KEYS - {"horizon"}))
             if keys & params.keys()]
    if len(given) > 1:
        raise ConfigError(f"kalman-bounds takes one of alphas, systems or a top-level "
                          f"system, got {' and '.join(given)}")
    if "alphas" in params:
        systems = [rotation_system(al, horizon=horizon)
                   for al in _numbers(params, "alphas", None)]
    elif "systems" in params:
        if not isinstance(params["systems"], list) or not params["systems"]:
            raise ConfigError("systems must be a nonempty list of system objects")
        systems = [_system_from_params(_known(s, _SYSTEM_KEYS, "a systems entry"))
                   for s in params["systems"]]
    else:
        systems = [_system_from_params(params)]
    # An explicit k must lie within every system's horizon; without one, each
    # system is evaluated at its own horizon (the filter).
    shortest = min(system.horizon for system in systems)
    k = _number(params["k"], "k", integer=True, low=0, high=shortest) if "k" in params else None
    rows = [
        _kalman_row(system, system.horizon if k is None else k, eps, config.n_samples, stream, idx)
        for idx, system in enumerate(systems)
    ]
    return ResultTable(header=_KALMAN_HEADER, rows=rows)


def _run_fig_condition(config: ExperimentConfig) -> ResultTable:
    params = config.params
    kappas = _numbers(params, "kappas", [1.0, 3.0, 10.0], low=1.0)
    n = _number(params.get("n", 4), "n", integer=True, low=1)
    eps = _epsilon(params)
    rows = []
    for kappa in kappas:
        try:
            a_star = generate_conditioned_matrix(n, kappa, RngStream(config.seed, _MATRIX_STREAM))
        except ValueError as exc:
            raise ConfigError(f"invalid kappas: {exc}") from exc
        problem = LinearInverseProblem.from_matrices(a_star, np.eye(n), 0.1 * np.eye(n), eps)
        rows += _frontier_rows(problem, config, eps, [kappa])
    return ResultTable(header=["kappa", *_FRONTIER_HEADER], rows=rows)


def _run_fig_observability(config: ExperimentConfig) -> ResultTable:
    params = config.params
    alphas = _numbers(params, "alphas", [0.95, 0.98, 0.99])
    horizon = _horizon(params)
    ks = _numbers(params, "ks", [0, horizon], integer=True, low=0, high=horizon)
    eps = _epsilon(params)
    rows = []
    for alpha in alphas:
        system = rotation_system(alpha, horizon=horizon)
        gram = observability_gramian(system)
        for k in ks:
            rows += _frontier_rows(as_estimation_problem(system, k), config, eps,
                                   [alpha, k, gram.lambda_min, gram.min_singular_value])
    return ResultTable(
        header=["alpha", "k", "lambda_min_gramian", "sqrt_lambda_min_gramian",
                *_FRONTIER_HEADER],
        rows=rows,
    )


def _run_fig_kf_vs_adv(config: ExperimentConfig) -> ResultTable:
    params = config.params
    if "rhos" in params:
        if "n_rhos" in params:
            raise ConfigError("fig-kf-vs-adv takes rhos or n_rhos, not both")
        rhos = _numbers(params, "rhos", None)
    else:
        count = _number(params.get("n_rhos", 12), "n_rhos", integer=True, low=1)
        rhos = [float(v) for v in np.geomspace(0.1, np.sqrt(10.0), count)]
    horizon = _horizon(params)
    k = _number(params.get("k", 0), "k", integer=True, low=0, high=horizon)
    eps = _epsilon(params)
    rows = []
    for rho in rhos:
        system = shear_system(rho, horizon=horizon)
        gram = observability_gramian(system)
        adapter = as_estimation_problem(system, k)
        nominal = adapter.nominal
        stream = RngStream(config.seed, _MC_STREAM)
        sr_kf = estimator_sr_closed(nominal, system, k)
        ar_kf = estimator_ar_mc(nominal, system, k, eps, config.n_samples, stream)
        robust = train(adapter, _train_config(config, eps, lam=math.inf))
        sr_adv = estimator_sr_closed(robust, system, k)
        ar_adv = estimator_ar_mc(robust, system, k, eps, config.n_samples, stream)
        rows.append([
            rho, gram.lambda_min, gram.min_singular_value,
            sr_kf, ar_kf.mean, ar_kf.std_error,
            sr_adv, ar_adv.mean, ar_adv.std_error,
        ])
    return ResultTable(
        header=["rho", "lambda_min_gramian", "sqrt_lambda_min_gramian",
                "sr_kf", "ar_kf_mean", "ar_kf_stderr",
                "sr_adv", "ar_adv_mean", "ar_adv_stderr"],
        rows=rows,
    )


_TRAIN_KEYS = {"batch_size", "n_iters", "step_c0", "step_decay", "init"}
_PROBLEM_KEYS = {"a_star", "sigma_x", "sigma_w", "epsilon"}
_SYSTEM_KEYS = {"a", "c", "sigma0", "sigma_w", "sigma_v", "horizon"}

# kind -> (runner, the keys its params may hold)
_RUNNERS = {
    "perturb": (_run_perturb, {"a", "b", "epsilon"}),
    "risk": (_run_risk, _PROBLEM_KEYS | {"a"}),
    "bounds": (_run_bounds, _PROBLEM_KEYS | {"a"}),
    "pareto": (_run_pareto, _PROBLEM_KEYS | {"train"}),
    "kalman-bounds": (_run_kalman_bounds, _SYSTEM_KEYS | {"alphas", "systems", "k", "epsilon"}),
    "fig-condition": (_run_fig_condition, {"kappas", "n", "epsilon", "train"}),
    "fig-observability": (_run_fig_observability,
                          {"alphas", "ks", "horizon", "epsilon", "train"}),
    "fig-kf-vs-adv": (_run_fig_kf_vs_adv,
                      {"rhos", "n_rhos", "k", "horizon", "epsilon", "train"}),
}
EXPERIMENT_KINDS = tuple(_RUNNERS)
# the kinds whose runners call _frontier_rows, the only reader of lambda_grid
_SWEEPING_KINDS = ("pareto", "fig-condition", "fig-observability")


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Run one experiment; write CSV (and optional SVG) if an output path is set.

    The SVG is pure presentation: skipping it never changes the CSV.
    Raises ``FloatingPointError``, before anything is written, if the table
    holds a NaN (an infinity is a legal value, e.g. lambda = inf).
    """
    runner, _ = _RUNNERS[config.kind]
    table = runner(config)
    nan_cols = [name for j, name in enumerate(table.header)
                if any(math.isnan(row[j]) for row in table.rows)]
    if nan_cols:
        raise FloatingPointError(f"{config.kind} produced NaN in {', '.join(nan_cols)}")
    table.metadata = {
        "seed": config.seed,
        "config_hash": config.config_hash(),
        "tool_version": __version__,
    }
    if config.output_path:
        table.write_csv(config.output_path)
        if config.svg:
            from .plotting import frontier_svg

            frontier_svg(table, _svg_path(config.output_path), title=config.kind)
    return table


def _svg_path(csv_path: str) -> str:
    return (csv_path[:-4] if csv_path.endswith(".csv") else csv_path) + ".svg"
