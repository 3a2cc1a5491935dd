#!/usr/bin/env python3
"""advrisk benchmark: three workloads through ``run_experiment``.

Usage (from the repository root):

    python3 benchmark/run.py --workload frontier-plain --seed 0 --seconds 40 --trace 0

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics (``cpu_s``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` it holds the per-layer metrics of an outside-in traced run.
``failed / attempted`` is the share of experiment calls that raised or
failed a correctness check.  A fuller JSON report, with the
environment, goes to stderr.  ``--write-reference`` stores one pass of
seed-0 CSVs as the reference the checks compare against.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"

# BLAS threads are pinned so that both commits of a comparison run alike;
# two OpenBLAS threads made the Kalman workload slower and noisier on a
# 2-core machine.  The setting must be in place before numpy is imported.
BLAS_THREADS = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 5
# What every CLI invocation pays: import the package (plotting included)
# and finish one tiny inner solve.
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1])\n"
    "import numpy as np, advrisk, advrisk.plotting\n"
    "advrisk.worst_case_batch(np.eye(2), np.ones((1, 2)), 0.5)\n"
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="run one seed-0 pass and store its CSVs as the reference")
    args = parser.parse_args(argv)

    if not (SRC / "advrisk" / "__init__.py").is_file():
        print(f"benchmark: no program source at {SRC / 'advrisk'}", file=sys.stderr)
        return 2
    for var in _THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    # workloads, tracer and advrisk load numpy, so every import of them
    # comes after the thread pin above.
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"options: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed)
    if args.write_reference:
        return bench.write_reference()
    result, report = bench.run(args.seconds, bool(args.trace))
    print(json.dumps(report, indent=1, sort_keys=True), file=sys.stderr)
    print(json.dumps(result))
    return 0


class Bench:
    """One workload at one seed, run in this process."""

    def __init__(self, workload: str, seed: int):
        # Importing the program here writes its bytecode cache before
        # setup_s is measured, as it is for a user's second CLI call.
        import advrisk.experiments  # noqa: F401
        import workloads

        self.workload = workload
        self.seed = seed
        self.calls = workloads.calls(workload, seed)
        # At the default seed every CSV is compared with the stored one; a
        # missing reference file fails every call.
        self.reference = None
        path = REFERENCE_DIR / f"{workload}.json"
        if seed == workloads.DEFAULT_SEED:
            self.reference = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.csv_identical = 0

    def run(self, seconds: float, trace: bool):
        import tracer as tracing
        import workloads

        setup = None if trace else setup_times(SETUP_REPEATS)
        plain, traced, outputs = [], [], {}
        recorder = tracing.Tracer()
        with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
            self._experiment(workloads.warmup(self.workload, self.seed),
                             Path(tmp) / "warmup.csv")
            # Whole passes until the next one would overrun ``seconds``.
            start = perf_counter()
            while True:
                plain.append(self._pass(Path(tmp), outputs))
                if trace:
                    with recorder:
                        traced.append(self._pass(Path(tmp), outputs))
                per_round = per_pass(plain, WALL) + (per_pass(traced, WALL) if trace else 0.0)
                if perf_counter() - start + per_round > seconds:
                    break
        report = {
            "workload": self.workload,
            "trace": int(trace),
            "environment": environment(self.seed),
            "attempted": self.attempted,
            "failed": self.failed,
            "fail_frac": self.failed / self.attempted,
            "calls_per_pass": len(self.calls),
            "passes": len(plain),
            "pass_cpu_s": [sum(c[CPU] for c in times) for times in plain],
            "pass_wall_s": [sum(c[WALL] for c in times) for times in plain],
            "wall_s": per_pass(plain, WALL),
            "csv_identical": (f"{self.csv_identical} of {self.attempted}"
                              if self.reference is not None else "no reference for this seed"),
        }
        if trace:
            report["traced_pass_cpu_s"] = [sum(c[CPU] for c in times) for times in traced]
            metrics = layer_metrics(recorder, len(traced))
            metrics["trace.overhead_frac"] = (
                per_pass(traced, CPU) / per_pass(plain, CPU) - 1.0, "ratio")
            missing = [span for span in workloads.exercised_spans(self.workload)
                       if recorder.calls(span) == 0]
            if missing:
                self.failed += 1
                self.errors.append(f"traced spans with zero calls: {missing}")
        else:
            report["setup_runs"] = setup
            metrics = {
                "cpu_s": (per_pass(plain, CPU), "s"),
                "setup_s": (statistics.median(cpu for cpu, _ in setup), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        report["metrics"] = {name: value for name, (value, _) in metrics.items()}
        report["errors"] = self.errors[:20]
        result = {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        return result, report

    def write_reference(self) -> int:
        import workloads

        if self.seed != workloads.DEFAULT_SEED:
            print("benchmark: the reference is stored for the default seed only",
                  file=sys.stderr)
            return 2
        self.reference = None
        outputs = {}
        with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
            self._pass(Path(tmp), outputs)
        if self.failed:
            print("\n".join(self.errors), file=sys.stderr)
            return 1
        REFERENCE_DIR.mkdir(exist_ok=True)
        with open(REFERENCE_DIR / f"{self.workload}.json", "w", encoding="utf-8") as fh:
            json.dump(outputs, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0

    def _pass(self, tmp: Path, outputs: dict) -> list[tuple[float, float]]:
        """Run every call of the workload once; returns each call's times.

        ``outputs`` maps call names to the first CSV text seen, so later
        passes (traced ones included) must reproduce it byte for byte.
        """
        import workloads

        times = []
        for name, fields in self.calls:
            self.attempted += 1
            path = tmp / f"{name}.csv"
            try:
                elapsed = self._experiment(fields, path)
                text = path.read_text(encoding="utf-8")
                errors = workloads.check(fields["kind"], text)
            except Exception as exc:  # a failing call is counted, not fatal
                elapsed, errors, text = (0.0, 0.0), [f"raised {type(exc).__name__}: {exc}"], None
            times.append(elapsed)
            if text is not None:
                if outputs.setdefault(name, text) != text:
                    errors.append("CSV bytes differ from an earlier pass")
                if self.reference is not None:
                    ref = self.reference.get(name)
                    if ref is None:
                        errors.append("no stored reference")
                    else:
                        errors += workloads.compare_reference(text, ref)
                        self.csv_identical += text == ref
            if errors:
                self.failed += 1
                self.errors += [f"{name}: {e}" for e in errors]
        return times

    @staticmethod
    def _experiment(fields: dict, path: Path) -> tuple[float, float]:
        """Run one experiment; returns its (CPU, wall) seconds."""
        # Resolve run_experiment at call time so a traced pass calls the
        # wrapper the tracer bound into the module.
        from advrisk import experiments

        config = experiments.ExperimentConfig(output_path=str(path), svg=True, **fields)
        c0, t0 = cpu_clock(), perf_counter()
        experiments.run_experiment(config)
        return cpu_clock() - c0, perf_counter() - t0


CPU, WALL = 0, 1


def cpu_clock() -> float:
    """CPU seconds used so far by this process and its reaped children.

    The end-to-end times are CPU times: on a 2-core virtual machine,
    hypervisor steal made the wall time of a fixed loop vary by up to 2x
    from minute to minute while its CPU time stayed within 10 %.  With BLAS pinned to one thread and no I/O to wait for,
    CPU time equals the wall time of an undisturbed run.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def per_pass(passes: list, clock: int) -> float:
    """Time of one pass: each call's median over the passes, summed.

    Taking medians per call keeps a stall in one call of one pass out of
    the result.
    """
    return sum(statistics.median(call[clock] for call in calls) for calls in zip(*passes))


def setup_times(repeats: int) -> list[tuple[float, float]]:
    """(CPU, wall) seconds of fresh interpreters that import advrisk and solve once."""
    times = []
    for _ in range(repeats):
        c0, t0 = cpu_clock(), perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC)], cwd=ROOT,
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append((cpu_clock() - c0, perf_counter() - t0))
    return times


def layer_metrics(tr, passes: int) -> dict:
    """Per-layer metrics per traced pass; times are self times in seconds."""

    def per(v):
        return v / passes

    def ratio(num, den):
        return num / den if den else 0.0

    c = tr.counts
    mc = ("risk.adversarial_risk_mc", "risk.ar_sr_gap_mc", "risk.gap_bounds_mc")
    rows = c["trs.worst_case_batch.rows"]
    return {
        "model.normal_block.calls": (per(tr.calls("model.normal_block")), "count"),
        "model.normal_block.self_s": (per(tr.self_s("model.normal_block")), "s"),
        "model.normal_block.us_per_row": (
            1e6 * ratio(tr.self_s("model.normal_block"), c["model.normal_block.rows"]), "us"),
        "model.sample_batch.calls": (per(tr.calls("model.sample_batch")), "count"),
        "model.sample_batch.self_s": (per(tr.self_s("model.sample_batch")), "s"),
        "model.sample_batch.rows": (per(c["model.sample_batch.rows"]), "count"),
        "model.cholesky_factor.calls": (per(tr.calls("model.cholesky_factor")), "count"),
        "trs.worst_case_batch.calls": (per(tr.calls("trs.worst_case_batch")), "count"),
        "trs.worst_case_batch.rows": (per(rows), "count"),
        "trs.worst_case_batch.rows_per_call": (
            ratio(rows, tr.calls("trs.worst_case_batch")), "rows"),
        "trs.worst_case_batch.self_s": (per(tr.self_s("trs.worst_case_batch")), "s"),
        "trs.worst_case_batch.us_per_row": (
            1e6 * ratio(tr.self_s("trs.worst_case_batch"), rows), "us"),
        "trs.svd_full.calls": (per(tr.calls("trs.svd_full")), "count"),
        "trs.svd_full.self_s": (per(tr.self_s("trs.svd_full")), "s"),
        "trs.branch.easy": (per(c["trs.branch.easy"]), "count"),
        "trs.branch.hard": (per(c["trs.branch.hard"]), "count"),
        "trs.branch.degenerate": (per(c["trs.branch.degenerate"]), "count"),
        "risk.mc.calls": (per(sum(tr.calls(s) for s in mc)), "count"),
        "risk.mc.self_s": (per(sum(tr.self_s(s) for s in mc)), "s"),
        "mc.rows_per_sample": (ratio(c["mc.rows_solved"], c["mc.unique_samples"]), "ratio"),
        "mc.draws_per_sample": (ratio(c["mc.rows_drawn"], c["mc.unique_samples"]), "ratio"),
        "training.train.calls": (per(tr.calls("training.train")), "count"),
        "training.steps": (per(c["training.steps"]), "count"),
        "training.us_per_step": (
            1e6 * ratio(tr.total_s("training.train"), c["training.steps"]), "us"),
        "training.train.self_s": (per(tr.self_s("training.train")), "s"),
        "training.pareto_trace.calls": (per(tr.calls("training.pareto_trace")), "count"),
        "training.us_per_frontier_point": (
            1e6 * ratio(tr.total_s("training.pareto_trace"), c["training.frontier_points"]),
            "us"),
        "kalman.simulate_rollouts.calls": (per(tr.calls("kalman.simulate_rollouts")), "count"),
        "kalman.simulate_rollouts.self_s": (per(tr.self_s("kalman.simulate_rollouts")), "s"),
        "kalman.simulate_rollouts.us_per_row": (
            1e6 * ratio(tr.self_s("kalman.simulate_rollouts"),
                        c["kalman.simulate_rollouts.rows"]), "us"),
        "kalman.build_stacked.calls": (per(tr.calls("kalman.build_stacked")), "count"),
        "kalman.build_stacked.self_s": (per(tr.self_s("kalman.build_stacked")), "s"),
        "kalman.estimator_ar_mc.self_s": (per(tr.self_s("kalman.estimator_ar_mc")), "s"),
        "kalman.kalman_estimator.calls": (per(tr.calls("kalman.kalman_estimator")), "count"),
        "kalman.observability_gramian.calls": (
            per(tr.calls("kalman.observability_gramian")), "count"),
        "experiments.run_experiment.self_s": (
            per(tr.self_s("experiments.run_experiment")), "s"),
        "experiments.write_csv.self_s": (per(tr.self_s("experiments.write_csv")), "s"),
        "plotting.frontier_svg.self_s": (per(tr.self_s("plotting.frontier_svg")), "s"),
    }


def environment(seed: int) -> dict:
    """Seed, program revision and the numeric stack this run used."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": {var: os.environ.get(var) for var in _THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def _git_sha():
    # A checkout without .git must not pick up an enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


if __name__ == "__main__":
    sys.exit(main())
