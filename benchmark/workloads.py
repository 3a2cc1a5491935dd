"""Benchmark workloads: experiment configs made from a seed, and output checks.

Each workload is a list of ``run_experiment`` calls that one pass makes in a
closed loop (the next call starts when the previous one returns).  The
configs are plain data derived from the workload seed; the program receives
nothing else.  Why each workload exists, and which layer it stresses, is
documented in ``benchmark/README.md``.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_SEED = 0

# How many standard errors a Monte Carlo comparison may miss by.
STDERR_SLACK = 4.0
# Relative tolerance of the comparison with the stored seed-0 reference.
REFERENCE_RTOL = 1e-6

EPSILON = 0.5
FRONTIER_KAPPAS = (1.0, 10.0, 100.0)
FRONTIER_GRID = [0.0, 0.03, 0.3, 3.0, math.inf]
MC_KAPPAS = (1.0, 10.0, 100.0)
MC_DIMS = (4, 16)
MC_ALPHAS = (0.95, 0.98, 0.99)
# Stream id of the benchmark's own conditioned matrices; every kappa of a
# given size shares the Haar factors, as in fig-condition.
_MATRIX_STREAM = 7

WORKLOADS = ("frontier-plain", "frontier-kalman", "mc-risk")


def calls(workload: str, seed: int) -> list[tuple[str, dict]]:
    """``(call name, ExperimentConfig fields)`` for one pass of a workload."""
    if workload == "frontier-plain":
        # One call per kappa: fig-condition re-creates its streams per
        # kappa, so the rows equal those of a single three-kappa call.
        return [
            (f"fig-condition-kappa{k:g}", dict(
                kind="fig-condition", seed=seed, n_samples=20_000,
                lambda_grid=FRONTIER_GRID,
                params={"kappas": [k], "n": 4, "epsilon": EPSILON,
                        "train": {"n_iters": 800, "batch_size": 32}},
            ))
            for k in FRONTIER_KAPPAS
        ]
    if workload == "frontier-kalman":
        rhos = np.geomspace(0.1, np.sqrt(10.0), 6)
        return [
            (f"fig-kf-vs-adv-rho{i}", dict(
                kind="fig-kf-vs-adv", seed=seed, n_samples=50_000,
                params={"rhos": [float(rho)], "k": 0, "horizon": 5, "epsilon": EPSILON,
                        "train": {"n_iters": 1200, "batch_size": 32}},
            ))
            for i, rho in enumerate(rhos)
        ]
    if workload == "mc-risk":
        out = []
        for n in MC_DIMS:
            for kappa in MC_KAPPAS:
                a_star = _conditioned(n, kappa, seed)
                params = {"a_star": a_star.tolist(), "a": (0.9 * a_star).tolist(),
                          "epsilon": EPSILON}
                for kind in ("risk", "bounds"):
                    out.append((f"{kind}-n{n}-kappa{kappa:g}", dict(
                        kind=kind, seed=seed, n_samples=100_000, params=params)))
        out.append(("kalman-bounds-rotation", dict(
            kind="kalman-bounds", seed=seed, n_samples=100_000,
            params={"alphas": list(MC_ALPHAS), "k": 5, "horizon": 5, "epsilon": EPSILON},
        )))
        return out
    raise ValueError(f"unknown workload {workload!r}; options: {WORKLOADS}")


def warmup(workload: str, seed: int) -> dict:
    """A tiny call of the workload's kind that pays the lazy set-up."""
    _, fields = calls(workload, seed)[0]
    fields = dict(fields, n_samples=500)
    if "train" in fields["params"]:
        fields["params"] = dict(fields["params"], train={"n_iters": 4, "batch_size": 32})
    return fields


def exercised_spans(workload: str) -> list[str]:
    """Tracer spans each workload is known to reach; a traced run checks them."""
    common = ["model.normal_block", "model.cholesky_factor", "trs.worst_case_batch",
              "trs.svd_full", "experiments.run_experiment", "experiments.write_csv",
              "plotting.frontier_svg"]
    kalman = ["kalman.simulate_rollouts", "kalman.build_stacked", "kalman.estimator_ar_mc",
              "kalman.observability_gramian"]
    return common + {
        "frontier-plain": ["model.sample_batch", "risk.adversarial_risk_mc",
                           "training.train", "training.pareto_trace"],
        "frontier-kalman": kalman + ["training.train"],
        "mc-risk": kalman + ["model.sample_batch", "risk.adversarial_risk_mc",
                             "risk.ar_sr_gap_mc", "risk.gap_bounds_mc",
                             "kalman.kalman_estimator"],
    }[workload]


def _conditioned(n: int, kappa: float, seed: int) -> np.ndarray:
    from advrisk.experiments import generate_conditioned_matrix
    from advrisk.model import RngStream

    return generate_conditioned_matrix(n, kappa, RngStream(seed, _MATRIX_STREAM))


# -- output checks ----------------------------------------------------------


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    """Header and numeric rows of a CSV written by ``ResultTable.write_csv``."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("CSV has no header")
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    if not rows or any(len(r) != len(header) for r in rows):
        raise ValueError("CSV has no rows or ragged rows")
    return header, rows


def check(kind: str, text: str) -> list[str]:
    """Seed-independent checks of one experiment's CSV; returns the failures."""
    header, rows = parse_csv(text)
    cols = {name: np.array([r[i] for r in rows]) for i, name in enumerate(header)}
    errors = []
    for name, values in cols.items():
        finite = np.isfinite(values) | ((name == "lambda") & np.isposinf(values))
        if not finite.all():
            errors.append(f"non-finite values in column {name}")
    if errors:
        return errors

    def need(ok, message):
        if not np.all(ok):
            errors.append(message)

    for sr, ar in (("sr", "ar_mean"), ("sr_kf", "ar_kf_mean"), ("sr_adv", "ar_adv_mean")):
        if sr in cols:
            need(cols[ar] >= cols[sr], f"{ar} < {sr}")
    if kind == "bounds":
        slack = STDERR_SLACK * (cols["gap_stderr"] + 2.0 * EPSILON * cols["cross_stderr"])
        need(cols["gap_mean"] >= cols["lower"] - slack, "MC gap below the lower bound")
        need(cols["gap_mean"] <= cols["upper"] + slack, "MC gap above the upper bound")
    if kind == "kalman-bounds":
        gap = cols["ar_mean"] - cols["sr"]
        slack = STDERR_SLACK * cols["ar_stderr"]
        need(gap >= cols["lb_general"] - slack, "ar_mean - sr below lb_general")
        need(gap <= cols["ub_general"] + slack, "ar_mean - sr above ub_general")
    if kind == "fig-condition":
        for kappa in np.unique(cols["kappa"]):
            sel = cols["kappa"] == kappa
            lam, ar, se = cols["lambda"][sel], cols["ar_mean"][sel], cols["ar_stderr"][sel]
            i0, inf = np.flatnonzero(lam == 0.0), np.flatnonzero(np.isposinf(lam))
            if i0.size and inf.size:
                need(ar[inf[0]] <= ar[i0[0]] + STDERR_SLACK * (se[inf[0]] + se[i0[0]]),
                     f"kappa={kappa:g}: AR at lambda=inf exceeds AR at lambda=0")
    if kind == "fig-kf-vs-adv":
        slack = STDERR_SLACK * (cols["ar_adv_stderr"] + cols["ar_kf_stderr"])
        need(cols["ar_adv_mean"] <= cols["ar_kf_mean"] + slack,
             "robust estimator has higher AR than the Kalman estimator")
    return errors


def compare_reference(text: str, reference: str) -> list[str]:
    """Every number of ``text`` within ``REFERENCE_RTOL`` of ``reference``."""
    header, rows = parse_csv(text)
    ref_header, ref_rows = parse_csv(reference)
    if header != ref_header or len(rows) != len(ref_rows):
        return ["CSV layout differs from the reference"]
    got, want = np.array(rows), np.array(ref_rows)
    with np.errstate(invalid="ignore", divide="ignore"):
        dev = np.abs(got - want)
        same = (got == want) | (dev <= REFERENCE_RTOL * np.maximum(np.abs(got), np.abs(want)))
        if same.all():
            return []
        worst = np.nanmax(np.where(same, 0.0, dev / np.abs(want)))
    return [f"{np.count_nonzero(~same)} values differ from the reference "
            f"(largest relative deviation {worst:.3e})"]
