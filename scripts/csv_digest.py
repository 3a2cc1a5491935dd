#!/usr/bin/env python3
"""Write a fixed set of experiment CSVs and print one sha256 line per file.

The set is the three quick figures (sizes as in ``reproduce_figures.py
--quick``) plus ``risk`` (also at a size whose last sampling block is one
row, and at n = 16 with a 12-wide top singular cluster), ``bounds`` (at
a = A* and at a != A*, also at a size whose last sampling block is one
row), ``pareto`` (also at a size whose last training block is one step),
``perturb`` on an easy row, on a hard one (branch_code 1) and on one row
of a dense 16 x 16 model (a lone row's 16-term sums),
``kalman-bounds`` at horizon 5, at horizon 0 (no process noise in the
stacked model, and an infinite ``ub_kalman``), on two ``systems`` entries of
horizons 3 and 5 with no ``k`` and on two whose small measurement noise puts
``kalman_gap_upper_bound`` in its high-observability regime, and a
``fig-kf-vs-adv`` that trains a smoother at an interior ``k < N``.  A
``pareto`` run and a ``kalman-bounds`` system have non-diagonal
covariances, so the bytes depend on how each Cholesky factor is computed
and applied.  Running it before and after a change that must not alter
any number gives two tables that should match line for line.  With
``--against TABLE`` (the output of an earlier run, saved to a file) it also
compares the two tables, names every file whose line differs on stderr, and
exits 1 if any does.

With ``--compare OLD_OUTDIR`` (the CSVs of an earlier run) it judges a change
that alters numbers on purpose.  For every file whose bytes differ it prints
to stderr, per column, the largest |z| of a mean against its old value with
the combined standard error sqrt(s_old^2 + s_new^2) (``ar_mean`` with
``ar_stderr``, ``ar_kf_mean`` with ``ar_kf_stderr``, ``cross_term`` with
``cross_stderr``, ...), and the largest relative deviation of every other
column.  It exits 1 when a |z| exceeds 4, unless that column is named with
``--allow FILE:COLUMN`` (for instance ``--allow fig_kf_vs_adv.csv:ar_adv_mean``,
a mean that the change moves on purpose), or when a file's header or row
count changed.

Usage:
    python scripts/csv_digest.py OUTDIR
    python scripts/csv_digest.py OUTDIR --against TABLE
    python scripts/csv_digest.py OUTDIR --compare OLD_OUTDIR [--allow FILE:COLUMN ...]
"""

import argparse
import hashlib
import math
import pathlib
import sys

import numpy as np

from advrisk.experiments import ExperimentConfig, run_experiment
from reproduce_figures import FULL, figure_config

_A_STAR = [[1.0, 0.3, 0.0], [0.2, 0.8, 0.1], [0.0, -0.4, 0.6]]
_A = [[0.9, 0.2, 0.1], [0.1, 0.7, 0.0], [0.0, -0.3, 0.5]]
# n = 16 with singular values 1 (twelve times), 0.5, 0.3, 0.2 and 0.1: the
# inner solve's sums run over a 12-wide top cluster
_Q16 = np.linalg.qr(np.random.default_rng(0).standard_normal((16, 16)))[0]
_A_STAR16 = _Q16 * np.concatenate([np.ones(12), [0.5, 0.3, 0.2, 0.1]])
# a dense 16 x 16 model with distinct singular values: a lone row's root find
# sums 16 terms per sweep, and this row's root depends on their order
_A16 = np.random.default_rng(1).standard_normal((16, 16))
_B16 = np.random.default_rng(3).standard_normal(16)
# the rotation_system of alpha = 0.95
_ROT95 = [[0.95, math.sqrt(1.0 - 0.95 * 0.95)], [-math.sqrt(1.0 - 0.95 * 0.95), 0.95]]

# name -> ExperimentConfig fields; MC sizes exceed one sampling block
# (risk._GEN_CHUNK rows) so the chunked path is covered; so do the training
# runs, at _GEN_CHUNK // batch_size steps per block.
EXTRA = {
    "risk": dict(kind="risk", n_samples=40_000,
                 params={"a_star": _A_STAR, "a": _A, "epsilon": 0.5}),
    # 8 x 2 048 + 1 rows: the pass ends in a 1-row block
    "risk_1row_tail": dict(kind="risk", n_samples=16_385,
                           params={"a_star": _A_STAR, "a": _A, "epsilon": 0.5}),
    "risk_n16": dict(kind="risk", n_samples=40_000,
                     params={"a_star": _A_STAR16.tolist(), "a": (0.9 * _A_STAR16).tolist(),
                             "epsilon": 0.5}),
    "bounds_astar": dict(kind="bounds", n_samples=40_000,
                         params={"a_star": _A_STAR, "epsilon": 0.5}),
    "bounds_a": dict(kind="bounds", n_samples=40_000,
                     params={"a_star": _A_STAR, "a": _A, "epsilon": 0.5}),
    # the cross and gain columns of one pass end in a 1-row block
    "bounds_1row_tail": dict(kind="bounds", n_samples=16_385,
                             params={"a_star": _A_STAR, "a": _A, "epsilon": 0.5}),
    "kalman_bounds": dict(kind="kalman-bounds", n_samples=40_000,
                          params={"alphas": [0.95, 0.99], "k": 3, "horizon": 5,
                                  "epsilon": 0.5}),
    "kalman_bounds_h0": dict(kind="kalman-bounds", n_samples=40_000,
                             params={"alphas": [0.95, 0.99], "k": 0, "horizon": 0,
                                     "epsilon": 0.5}),
    # no "k": each system is evaluated at its own horizon (the filter)
    "kalman_bounds_systems": dict(kind="kalman-bounds", n_samples=40_000, params={
        "epsilon": 0.5, "systems": [
            {"a": [[0.9, 0.3], [-0.3, 0.9]], "c": [[1.0, 0.0]], "horizon": 3},
            {"a": [[1.0, 0.5], [0.0, 1.0]], "c": [[1.0, 0.0]], "sigma_v": [[0.2]],
             "horizon": 5},
        ]}),
    # off-diagonal sigma0 and sigma_w: the colouring factors are not diagonal
    "kalman_bounds_correlated": dict(kind="kalman-bounds", n_samples=40_000, params={
        "epsilon": 0.5, "systems": [
            {"a": [[0.9, 0.3], [-0.3, 0.9]], "c": [[1.0, 0.0]], "horizon": 3,
             "sigma0": [[1.0, 0.3], [0.3, 0.8]], "sigma_w": [[0.1, 0.02], [0.02, 0.2]]},
        ]}),
    # sqrt(lambda_min(gramian)) * lambda_min(Sigma_bar) exceeds sqrt(sigma_v):
    # ub_kalman takes its refined (high-observability) form
    "kalman_bounds_quiet": dict(kind="kalman-bounds", n_samples=40_000, params={
        "epsilon": 0.5, "systems": [
            {"a": _ROT95, "c": [[1.0, 0.0]], "sigma_v": [[1e-8]], "horizon": 5},
            {"a": [[1.0, 0.5], [0.0, 1.0]], "c": [[1.0, 0.0]], "sigma_v": [[1e-4]],
             "horizon": 3},
        ]}),
    "kf_vs_adv_smoother": dict(kind="fig-kf-vs-adv", n_samples=40_000,
                               params={"rhos": [0.3, 1.5], "k": 1, "horizon": 3, "epsilon": 0.5,
                                       "train": {"n_iters": 300, "batch_size": 16}}),
    "pareto": dict(kind="pareto", n_samples=5_000, lambda_grid=[0.0, 0.1, 1.0, float("inf")],
                   params={"a_star": [[1.0, 0.2], [0.0, 0.8]], "epsilon": 0.5,
                           "train": {"n_iters": 400, "batch_size": 16}}),
    # 2 048 // 24 = 85 steps per block: 171 = 2 x 85 + 1 steps end in a 1-step block
    "pareto_block_tail": dict(kind="pareto", n_samples=5_000,
                              lambda_grid=[0.0, 0.1, 1.0, float("inf")],
                              params={"a_star": [[1.0, 0.2], [0.0, 0.8]], "epsilon": 0.5,
                                      "train": {"n_iters": 171, "batch_size": 24}}),
    # off-diagonal sigma_x and sigma_w: the colouring factors are not diagonal
    "pareto_correlated": dict(kind="pareto", n_samples=5_000,
                              lambda_grid=[0.0, 0.1, 1.0, float("inf")],
                              params={"a_star": [[1.0, 0.2], [0.0, 0.8]], "epsilon": 0.5,
                                      "sigma_x": [[1.0, 0.3], [0.3, 0.5]],
                                      "sigma_w": [[0.1, 0.02], [0.02, 0.2]],
                                      "train": {"n_iters": 400, "batch_size": 16}}),
    "perturb": dict(kind="perturb",
                    params={"a": _A, "b": [0.3, -1.2, 0.7], "epsilon": 0.5}),
    # b = 0.1 u_2, u_2 the second left singular vector of _A: b has no top
    # component and leaves budget to spare, so the row is hard (branch_code 1)
    "perturb_hard": dict(kind="perturb", params={
        "a": _A, "b": [0.04664557796997675, -0.06215959809626678, 0.06293150578491996],
        "epsilon": 0.5}),
    "perturb_n16": dict(kind="perturb",
                        params={"a": _A16.tolist(), "b": _B16.tolist(), "epsilon": 0.5}),
}


SEED = 0


def configs(outdir: pathlib.Path) -> list[ExperimentConfig]:
    out = [figure_config(name, outdir, seed=SEED, quick=True, svg=False) for name in sorted(FULL)]
    out += [ExperimentConfig(seed=SEED, output_path=str(outdir / f"{name}.csv"), **fields)
            for name, fields in EXTRA.items()]
    return out


def read_table(path) -> dict[str, str]:
    """``{file name: sha256}`` from a table printed by this script."""
    table = {}
    for line in pathlib.Path(path).read_text().splitlines():
        if line.strip():
            digest, name = line.split()
            table[name] = digest
    return table


# a |z| above this fails --compare
Z_LIMIT = 4.0


def read_csv(path) -> tuple[list[str], list[list[float]]]:
    """The header and rows of an experiment CSV, without its ``#`` lines."""
    lines = [line for line in pathlib.Path(path).read_text().splitlines()
             if not line.startswith("#")]
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


def stderr_column(name: str) -> str:
    """The name of the standard-error column that goes with a mean column."""
    for suffix in ("_mean", "_term"):
        if name.endswith(suffix):
            return name[: -len(suffix)] + "_stderr"
    return ""


def _deviation(new: float, old: float, scale: float) -> float:
    """``|new - old| / scale``: 0 when equal, inf when only the scale is 0."""
    if new == old:
        return 0.0
    return abs(new - old) / scale if scale else math.inf


def compare_dirs(new_dir, old_dir, allow=()) -> int:
    """Print, for every CSV of ``new_dir`` whose bytes differ from the same
    file in ``old_dir``, each column's largest |z| or relative deviation;
    return 1 if a |z| not in ``allow`` ("FILE:COLUMN") exceeds ``Z_LIMIT`` or a
    file's header or row count changed, else 0."""
    failed = False
    paths = sorted(pathlib.Path(new_dir).glob("*.csv"))
    identical = 0
    for path in paths:
        old_path = pathlib.Path(old_dir) / path.name
        if not old_path.exists():
            print(f"{path.name}: not in {old_dir}, not compared", file=sys.stderr)
            continue
        if path.read_bytes() == old_path.read_bytes():
            identical += 1
            continue
        header, rows = read_csv(path)
        old_header, old_rows = read_csv(old_path)
        if header != old_header or len(rows) != len(old_rows):
            print(f"{path.name}: FAIL, the header or the row count changed", file=sys.stderr)
            failed = True
            continue
        pairs = list(zip(rows, old_rows))
        for j, name in enumerate(header):
            if stderr_column(name) not in header:
                worst = max(_deviation(new[j], old[j], abs(old[j])) for new, old in pairs)
                print(f"{path.name}: {name} max relative deviation {worst:.3g}",
                      file=sys.stderr)
                continue
            k = header.index(stderr_column(name))
            worst = max(_deviation(new[j], old[j], math.hypot(new[k], old[k]))
                        for new, old in pairs)
            allowed = f"{path.name}:{name}" in allow
            note = (" (allowed)" if allowed else " FAIL") if worst > Z_LIMIT else ""
            failed = failed or note == " FAIL"
            print(f"{path.name}: {name} max |z| {worst:.3g}{note}", file=sys.stderr)
    print(f"{identical} of {len(paths)} files identical to {old_dir}", file=sys.stderr)
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("outdir")
    parser.add_argument("--against", metavar="TABLE",
                        help="sha256 table of an earlier run to compare with")
    parser.add_argument("--compare", metavar="OLD_OUTDIR",
                        help="CSVs of an earlier run to compare with statistically")
    parser.add_argument("--allow", metavar="FILE:COLUMN", action="append", default=[],
                        help="a mean that may move by more than 4 combined stderr")
    args = parser.parse_args()

    expected = read_table(args.against) if args.against else None
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    differ = []
    for config in configs(outdir):
        run_experiment(config)
        path = pathlib.Path(config.output_path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.name}")
        if expected is not None and expected.get(path.name) != digest:
            differ.append(path.name)
    failed = compare_dirs(outdir, args.compare, args.allow) if args.compare else 0
    if differ:
        print(f"differs from {args.against}: {', '.join(differ)}", file=sys.stderr)
        return 1
    return failed


if __name__ == "__main__":
    sys.exit(main())
