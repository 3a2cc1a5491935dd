#!/usr/bin/env python3
"""Run the full-scale figure experiments and write CSV + SVG per figure.

At full scale each figure takes minutes (frontier tracing dominates); pass
--quick for a fast smoke run with reduced sampling and iteration counts.

Usage:
    python scripts/reproduce_figures.py --outdir results [--quick] \
        [--figures condition observability kf-vs-adv] [--seed 0]
"""

import argparse
import pathlib
import sys
import time

from advrisk.experiments import ExperimentConfig, run_experiment

FULL = {
    "condition": dict(
        kind="fig-condition",
        params={"kappas": [1.0, 3.0, 10.0], "n": 4, "epsilon": 0.5,
                "train": {"n_iters": 5000, "batch_size": 32}},
        n_samples=50_000,
    ),
    "observability": dict(
        kind="fig-observability",
        params={"alphas": [0.95, 0.98, 0.99], "ks": [0, 5], "horizon": 5, "epsilon": 0.5,
                "train": {"n_iters": 5000, "batch_size": 32}},
        n_samples=50_000,
    ),
    "kf-vs-adv": dict(
        kind="fig-kf-vs-adv",
        params={"n_rhos": 12, "k": 0, "horizon": 5, "epsilon": 0.5,
                "train": {"n_iters": 5000, "batch_size": 32}},
        n_samples=50_000,
    ),
}

QUICK = {
    "condition": dict(train_iters=600, samples=4000, lambda_grid=[0.0, 0.03, 0.3, 3.0, float("inf")]),
    "observability": dict(train_iters=600, samples=4000, lambda_grid=[0.0, 0.3, float("inf")]),
    "kf-vs-adv": dict(train_iters=1200, samples=6000, n_rhos=6),
}


def figure_config(name: str, outdir: pathlib.Path, seed: int = 0, quick: bool = False,
                  svg: bool = True) -> ExperimentConfig:
    """Experiment config of one figure, at full scale or with the --quick sizes."""
    spec = {key: (dict(value) if isinstance(value, dict) else value)
            for key, value in FULL[name].items()}
    spec["params"] = {k: (dict(v) if isinstance(v, dict) else v)
                      for k, v in spec["params"].items()}
    if quick:
        q = QUICK[name]
        spec["params"]["train"]["n_iters"] = q["train_iters"]
        spec["n_samples"] = q["samples"]
        if "lambda_grid" in q:
            spec["lambda_grid"] = q["lambda_grid"]
        if "n_rhos" in q:
            spec["params"]["n_rhos"] = q["n_rhos"]
    return ExperimentConfig(
        seed=seed,
        output_path=str(outdir / f"fig_{name.replace('-', '_')}.csv"),
        svg=svg,
        **spec,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--figures", nargs="+", choices=sorted(FULL), default=sorted(FULL))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true", help="reduced sizes for a smoke run")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in args.figures:
        config = figure_config(name, outdir, seed=args.seed, quick=args.quick)
        start = time.time()
        table = run_experiment(config)
        print(f"{name}: {len(table.rows)} rows -> {config.output_path} "
              f"({time.time() - start:.0f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
