"""Tests of the benchmark's own code: tracer, output checks and entry point.

Run with ``python -m pytest benchmark -q`` from the repository root.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import tracer  # noqa: E402
import workloads  # noqa: E402
from advrisk import experiments  # noqa: E402


def tiny_calls(seed=3):
    """Small calls that together reach every traced function."""
    a_star = workloads._conditioned(3, 10.0, seed)
    problem = {"a_star": a_star.tolist(), "a": (0.9 * a_star).tolist(), "epsilon": 0.5}
    return [
        ("frontier", dict(kind="fig-condition", seed=seed, n_samples=400,
                          lambda_grid=[0.0, 0.3, math.inf],
                          params={"kappas": [10.0], "n": 3, "epsilon": 0.5,
                                  "train": {"n_iters": 20, "batch_size": 8}})),
        ("risk", dict(kind="risk", seed=seed, n_samples=400, params=problem)),
        ("bounds", dict(kind="bounds", seed=seed, n_samples=400, params=problem)),
        ("kalman", dict(kind="kalman-bounds", seed=seed, n_samples=400,
                        params={"alphas": [0.95], "k": 2, "horizon": 2, "epsilon": 0.5})),
    ]


def run_calls(tmp_path, prefix):
    texts = {}
    for name, fields in tiny_calls():
        path = tmp_path / f"{prefix}-{name}.csv"
        experiments.run_experiment(
            experiments.ExperimentConfig(output_path=str(path), svg=True, **fields))
        texts[name] = path.read_text(encoding="utf-8")
    return texts


def advrisk_bindings():
    return {(name, attr): value for name, module in sys.modules.items()
            if name == "advrisk" or name.startswith("advrisk.")
            for attr, value in vars(module).items() if callable(value)}


def test_tracer_records_every_wrapped_function(tmp_path):
    recorder = tracer.Tracer()
    with recorder:
        run_calls(tmp_path, "traced")
    for _, _, span in tracer.TARGETS:
        assert recorder.calls(span) > 0, span
        assert recorder.self_s(span) >= 0.0, span
    assert recorder.counts["trs.worst_case_batch.rows"] > 0
    assert recorder.counts["mc.unique_samples"] > 0
    spans = {span for _, _, span in tracer.TARGETS}
    for workload in workloads.WORKLOADS:
        assert set(workloads.exercised_spans(workload)) <= spans


def test_tracer_rebinds_every_module_and_restores(tmp_path):
    from advrisk import model, risk, training, trs

    before = advrisk_bindings()
    originals = {path: getattr(sys.modules[mod], path) for mod, path, _ in tracer.TARGETS
                 if "." not in path}
    with tracer.Tracer():
        for (name, attr), value in advrisk_bindings().items():
            assert all(value is not orig for orig in originals.values()), (name, attr)
        assert risk.worst_case_batch is training.worst_case_batch is trs.worst_case_batch
        assert model.RngStream.normal_block.__wrapped__ is not None
    assert advrisk_bindings() == before
    assert not hasattr(model.RngStream.normal_block, "__wrapped__")


def test_traced_run_writes_identical_csv(tmp_path):
    plain = run_calls(tmp_path, "plain")
    with tracer.Tracer():
        traced = run_calls(tmp_path, "traced")
    assert traced == plain


def test_checks_accept_real_output_and_reject_violations(tmp_path):
    texts = run_calls(tmp_path, "plain")
    kinds = {name: fields["kind"] for name, fields in tiny_calls()}
    for name, text in texts.items():
        assert workloads.check(kinds[name], text) == [], name
        assert workloads.compare_reference(text, text) == []

    header, rows = workloads.parse_csv(texts["risk"])
    broken = dict(zip(header, rows[0]))
    broken["ar_mean"] = broken["sr"] - 1.0
    text = ",".join(header) + "\n" + ",".join(repr(v) for v in broken.values()) + "\n"
    assert workloads.check("risk", text) == ["ar_mean < sr"]
    assert workloads.compare_reference(text, texts["risk"])
    assert workloads.check("risk", text.replace(repr(broken["sr"]), "nan"))


def test_checks_hold_for_other_seeds(tmp_path):
    for seed in (11, 12):
        for name, fields in tiny_calls(seed):
            path = tmp_path / f"{seed}-{name}.csv"
            experiments.run_experiment(
                experiments.ExperimentConfig(output_path=str(path), **fields))
            assert workloads.check(fields["kind"], path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_covers_every_call(workload):
    reference = json.loads((BENCH_DIR / "reference" / f"{workload}.json").read_text())
    names = [name for name, _ in workloads.calls(workload, workloads.DEFAULT_SEED)]
    assert sorted(reference) == sorted(names)


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "mc-risk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_metrics_match_benchmark_json(tmp_path):
    import run

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    recorder = tracer.Tracer()
    with recorder:
        run_calls(tmp_path, "traced")
    metrics = run.layer_metrics(recorder, 1)
    metrics["trace.overhead_frac"] = (0.0, "ratio")
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [m["name"] for m in spec["end_to_end"]] == ["cpu_s", "setup_s", "peak_rss_mb"]
    assert spec["command"][1] == "benchmark/run.py"
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
