"""Adversarial robustness-accuracy analysis for linear models and state
estimation: exact worst-case l2 perturbations, risk-gap bounds, frontier
tracing, and gramian-driven Kalman estimator bounds."""

__version__ = "0.1.0"

from .model import (
    CovarianceSpec,
    LinearInverseProblem,
    RngStream,
    cholesky_factor,
    sample_batch,
    validate_covariance,
)
from .trs import (
    PerturbationResult,
    SvdFactorization,
    svd_full,
    worst_case_batch,
    worst_case_perturbation,
)
from .risk import (
    GapBounds,
    RiskEstimate,
    adversarial_risk_mc,
    ar_sr_gap_mc,
    astar_gap_bounds,
    gap_bounds_mc,
    standard_risk_closed,
)
from .training import (
    EstimationProblem,
    ParetoPoint,
    TrainConfig,
    pareto_trace,
    problem_adapter,
    train,
)
from .kalman import (
    GramianSummary,
    LtiSystem,
    StackedModel,
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
from .experiments import (
    ExperimentConfig,
    ResultTable,
    generate_conditioned_matrix,
    rotation_system,
    run_experiment,
    shear_system,
)
