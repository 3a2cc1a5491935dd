"""Command-line harness.

Subcommands map one-to-one to experiment kinds; ``experiment`` exposes the
figure-level sweeps.  A JSON config file supplies problem parameters, and
command-line flags override the generic fields.

Exit codes: 0 success, 2 config error (a config asking for more memory than
is available included), 3 numerical failure (a NaN in the results
included), 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .experiments import EXPERIMENT_KINDS, ConfigError, ExperimentConfig, run_experiment
from .model import TrainingDivergedError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_FIG_KINDS = tuple(k for k in EXPERIMENT_KINDS if k.startswith("fig-"))


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--seed", type=int, help="random seed (64-bit)")
    sub.add_argument("--samples", type=int, help="Monte Carlo sample count")
    sub.add_argument("--out", help="CSV output path")
    sub.add_argument("--svg", action="store_true", help="also write an SVG chart next to the CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advrisk",
        description="Adversarial robustness-accuracy analysis for linear models "
        "and Kalman estimation.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("perturb", "solve one worst-case perturbation instance"),
        ("risk", "standard/adversarial risk of a model on a problem"),
        ("bounds", "risk-gap sandwich bounds vs Monte Carlo"),
        ("pareto", "trace a robustness-accuracy frontier"),
        ("kalman", "state-estimation risks and gramian-driven bounds"),
    ):
        sub = subs.add_parser(name, help=help_text)
        _add_common_flags(sub)
    sub = subs.add_parser("experiment", help="run a figure-level sweep")
    sub.add_argument("kind", choices=_FIG_KINDS)
    _add_common_flags(sub)
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    data: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ConfigError(f"malformed config file {args.config}: {exc}") from exc
        except RecursionError as exc:
            raise ConfigError(f"config file {args.config} is nested too deeply") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
    kind = "kalman-bounds" if args.command == "kalman" else args.command
    if args.command == "experiment":
        kind = args.kind
    if data.get("kind", kind) != kind:
        raise ConfigError(f"config kind {data.get('kind')!r} conflicts with subcommand {kind!r}")
    data["kind"] = kind
    if args.seed is not None:
        data["seed"] = args.seed
    if args.samples is not None:
        data["n_samples"] = args.samples
    if args.out is not None:
        data["output_path"] = args.out
    if args.svg:
        data["svg"] = True
    return ExperimentConfig.from_dict(data)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        table = run_experiment(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"config error: the config asks for more memory than is available ({exc})",
              file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (np.linalg.LinAlgError, TrainingDivergedError, FloatingPointError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if config.output_path:
        print(f"wrote {config.output_path} ({len(table.rows)} rows)")
    else:
        print(",".join(table.header))
        for row in table.rows:
            print(",".join(f"{v:.10g}" for v in row))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
