import dataclasses
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

from advrisk import trs
from advrisk.cli import main
from advrisk.experiments import (
    _SWEEPING_KINDS,
    ConfigError,
    ExperimentConfig,
    ResultTable,
    default_lambda_grid,
    generate_conditioned_matrix,
    rotation_system,
    run_experiment,
    shear_system,
)
from advrisk.model import RngStream

# A valid one-state system, as a kalman-bounds `systems` entry.
_SYSTEM = {"a": [[1.0]], "c": [[1.0]], "horizon": 2}


def _sized(case, size):
    """``(command, config)`` whose first array has ``size`` rows: the Monte
    Carlo samples of risk, the matrix order of fig-condition, or pareto's
    SGD batch."""
    eye = [[1.0, 0.0], [0.0, 1.0]]
    return {
        "risk-samples": (["risk"], {"params": {"a_star": eye}, "n_samples": size}),
        "fig-condition-n": (["experiment", "fig-condition"], {"params": {"n": size}}),
        "pareto-batch": (["pareto"], {"params": {"a_star": eye, "train": {"batch_size": size}},
                                      "lambda_grid": [0, 1]}),
    }[case]


class TestExperimentConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig(kind="pareto", params={"a_star": [[1.0]]}, seed=3,
                               n_samples=500, lambda_grid=[0.0, 1.0], output_path="x.csv")
        again = ExperimentConfig.from_dict(json.loads(json.dumps(dataclasses.asdict(cfg))))
        assert again == cfg

    def test_checks_cannot_be_skipped_by_assignment(self):
        # every check runs at construction; a later assignment would skip them
        cfg = ExperimentConfig(kind="risk", params={"a_star": [[1.0]]})
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.n_samples = True
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.lambda_grid = [0.0, 1.0]

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            ExperimentConfig(kind="nope")

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig(kind="risk", seed=-1)

    @pytest.mark.parametrize("output_path", [None, ""])
    def test_svg_without_output_path_is_config_error(self, output_path):
        with pytest.raises(ConfigError, match="svg needs an output_path"):
            ExperimentConfig(kind="perturb", svg=True, output_path=output_path)

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            ExperimentConfig.from_dict({"kind": "risk", "bogus": 1})

    def test_hash_ignores_presentation_fields(self):
        base = ExperimentConfig(kind="risk", params={"a_star": [[1.0]]}, seed=3)
        with_out = ExperimentConfig(kind="risk", params={"a_star": [[1.0]]}, seed=3,
                                    output_path="a.csv", svg=True)
        assert base.config_hash() == with_out.config_hash()
        other_seed = ExperimentConfig(kind="risk", params={"a_star": [[1.0]]}, seed=4)
        assert base.config_hash() != other_seed.config_hash()

    def test_hash_pinned(self):
        # every CSV carries this hash; a change to how it is derived must not move it
        cfg = ExperimentConfig(kind="risk", params={"a_star": [[1.0]]}, seed=3)
        assert cfg.config_hash() == "2a6a6fd2808623d7"


class TestResultTable:
    def test_csv_round_trip_exact(self, tmp_path):
        rows = [[1.0 / 3.0, 1e-17, math.inf], [2.0, -0.1, 5.0]]
        table = ResultTable(header=["a", "b", "c"], rows=rows, metadata={"seed": 1})
        path = tmp_path / "t.csv"
        table.write_csv(path)
        metadata, header, *body = path.read_text(encoding="utf-8").splitlines()
        assert metadata == "# seed=1"
        assert header.split(",") == table.header
        for r1, line in zip(rows, body, strict=True):
            for v1, v2 in zip(r1, line.split(","), strict=True):
                assert v1 == float(v2)  # 17 significant digits round-trip doubles

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="width"):
            ResultTable(header=["a"], rows=[[1.0, 2.0]], metadata={})


class TestConditionedMatrix:
    def test_condition_one_is_scaled_orthogonal(self):
        a = generate_conditioned_matrix(4, 1.0, RngStream(1))
        s = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(s, 0.5, atol=1e-12)  # 1/sqrt(4)
        assert np.isclose(np.linalg.norm(a), 1.0, atol=1e-12)

    def test_condition_ratio_and_norm(self):
        a = generate_conditioned_matrix(4, 10.0, RngStream(2))
        s = np.linalg.svd(a, compute_uv=False)
        assert np.isclose(s[0] / s[-1], 10.0, rtol=1e-10)
        assert np.isclose(np.linalg.norm(a), 1.0, atol=1e-12)

    def test_condition_below_one_rejected(self):
        with pytest.raises(ValueError, match="condition"):
            generate_conditioned_matrix(3, 0.5, RngStream(3))

    def test_haar_rotation_invariance_smoke(self):
        # first column of the left factor should look uniform on the sphere:
        # two-sample KS against an independent Gaussian-normalization oracle
        n = 4
        ours = np.array([
            generate_conditioned_matrix(n, 1.0, RngStream(seed))[:, 0]
            for seed in range(400)
        ]).ravel() * np.sqrt(n)
        gen = np.random.default_rng(99)
        g = gen.standard_normal((400, n))
        reference = (g / np.linalg.norm(g, axis=1, keepdims=True)).ravel()
        assert stats.ks_2samp(ours, reference).pvalue > 1e-4


class TestRunExperiment:
    def test_perturb(self):
        cfg = ExperimentConfig(kind="perturb",
                               params={"a": [[2.0]], "b": [3.0], "epsilon": 0.5})
        table = run_experiment(cfg)
        row = dict(zip(table.header, table.rows[0]))
        assert row["dual_lambda"] == 16.0 and row["objective_gain"] == 7.0

    def test_risk_and_bounds(self):
        params = {"a_star": [[1.0, 0.2], [0.0, 0.8]], "epsilon": 0.5}
        risk_table = run_experiment(ExperimentConfig(kind="risk", params=params,
                                                     n_samples=2000, seed=5))
        assert risk_table.column("ar_mean")[0] >= risk_table.column("sr")[0]
        bounds_table = run_experiment(ExperimentConfig(kind="bounds", params=params,
                                                       n_samples=2000, seed=5))
        row = dict(zip(bounds_table.header, bounds_table.rows[0]))
        assert row["lower"] <= row["gap_mean"] <= row["upper"] + 3 * row["gap_stderr"]
        assert "closed_lower" in bounds_table.header  # isotropic noise at ground truth

    def test_pareto_kind(self):
        cfg = ExperimentConfig(
            kind="pareto",
            params={"a_star": [[1.0, 0.0], [0.1, 0.9]], "epsilon": 0.5,
                    "train": {"n_iters": 150, "batch_size": 8}},
            n_samples=1500, seed=6, lambda_grid=[0.0, 1.0],
        )
        table = run_experiment(cfg)
        assert table.header == ["lambda", "sr", "ar_mean", "ar_stderr"]
        assert len(table.rows) == 2

    def test_kalman_bounds_alpha_family(self):
        cfg = ExperimentConfig(kind="kalman-bounds",
                               params={"alphas": [0.95, 0.99], "k": 5, "epsilon": 0.5},
                               n_samples=1500, seed=7)
        table = run_experiment(cfg)
        assert len(table.rows) == 2
        sq = table.column("sqrt_lambda_min_gramian")
        assert abs(sq[0] - 1.22) <= 0.01 and abs(sq[1] - 0.58) <= 0.01

    def test_fig_condition_kind(self):
        cfg = ExperimentConfig(
            kind="fig-condition",
            params={"kappas": [1.0, 10.0], "n": 3, "epsilon": 0.5,
                    "train": {"n_iters": 60, "batch_size": 8}},
            n_samples=500, seed=9, lambda_grid=[0.0, 1.0],
        )
        table = run_experiment(cfg)
        assert len(table.rows) == 4
        assert set(table.column("kappa")) == {1.0, 10.0}

    def test_fig_observability_reports_reference_gramian_scales(self):
        cfg = ExperimentConfig(
            kind="fig-observability",
            params={"alphas": [0.95, 0.98, 0.99], "ks": [0], "epsilon": 0.5,
                    "train": {"n_iters": 30, "batch_size": 8}},
            n_samples=300, seed=9, lambda_grid=[0.0],
        )
        table = run_experiment(cfg)
        got = {row[table.header.index("alpha")]: row[table.header.index("sqrt_lambda_min_gramian")]
               for row in table.rows}
        for alpha, target in ((0.95, 1.22), (0.98, 0.81), (0.99, 0.58)):
            assert abs(got[alpha] - target) <= 0.01

    def test_fig_observability_svg_draws_one_series_per_alpha_and_k(self, tmp_path):
        out = tmp_path / "obs.csv"
        cfg = ExperimentConfig(
            kind="fig-observability",
            params={"alphas": [0.95, 0.99], "ks": [0, 5], "epsilon": 0.5,
                    "train": {"n_iters": 10, "batch_size": 8}},
            n_samples=200, seed=9, lambda_grid=[0.0, 1.0, math.inf],
            output_path=str(out), svg=True,
        )
        run_experiment(cfg)
        svg = (tmp_path / "obs.svg").read_text()
        assert svg.count("<polyline") == 4
        assert "alpha=0.95, k=5" in svg

    def test_kalman_bounds_defaults_k_to_each_system_horizon(self):
        system = {"a": [[1.0, 0.5], [0.0, 1.0]], "c": [[1.0, 0.0]], "horizon": 3}

        def rows(params):
            config = ExperimentConfig(kind="kalman-bounds", n_samples=200, params=params)
            return run_experiment(config).rows

        # a systems entry's default k is its own horizon, not the top-level one
        assert rows({"systems": [system], "horizon": 1}) == rows({"systems": [system], "k": 3})

    def test_byte_identical_rerun(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out, svg in ((out1, False), (out2, True)):
            cfg = ExperimentConfig(kind="kalman-bounds",
                                   params={"alphas": [0.95], "k": 5, "epsilon": 0.5},
                                   n_samples=800, seed=8, output_path=str(out), svg=svg)
            run_experiment(cfg)
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "b.svg").exists()

    def test_default_lambda_grid_shape(self):
        grid = default_lambda_grid()
        assert grid[0] == 0.0 and math.isinf(grid[-1]) and len(grid) == 17
        assert all(b >= a for a, b in zip(grid, grid[1:]))


def test_system_helpers():
    rot = rotation_system(0.95)
    assert np.isclose(np.linalg.det(rot.a), 1.0)
    with pytest.raises(ConfigError, match="alpha"):
        rotation_system(1.5)
    shear = shear_system(0.7)
    assert shear.a[0, 1] == 0.7


class TestCli:
    def test_perturb_stdout(self, capsys):
        rc = main(["perturb", "--config", "/dev/null"])
        assert rc == 2  # empty file is malformed JSON

    def test_success_and_output(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"params": {"a": [[2.0]], "b": [3.0], "epsilon": 0.5}}))
        out = tmp_path / "res.csv"
        rc = main(["perturb", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0 and out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_missing_config_is_io_error(self, tmp_path):
        rc = main(["risk", "--config", str(tmp_path / "missing.json")])
        assert rc == 4

    def test_malformed_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["risk", "--config", str(path)]) == 2

    @pytest.mark.parametrize("config", [
        "[" * 200_000 + "]" * 200_000,
        '{"params": {"a_star": ' + "[" * 5_000 + "]" * 5_000 + "}}",
    ], ids=["whole-file", "a_star"])
    def test_deeply_nested_config_is_config_error(self, tmp_path, capsys, config):
        path = tmp_path / "deep.json"
        path.write_text(config)
        assert main(["risk", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "nested too deeply" in err and "Traceback" not in err

    def test_deeply_nested_config_exits_2_from_the_module(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        proc = subprocess.run([sys.executable, "-m", "advrisk", "risk", "--config", str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_svg_flag_without_out_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"params": {"a": [[2.0]], "b": [3.0], "epsilon": 0.5}}))
        assert main(["perturb", "--config", str(path), "--svg"]) == 2
        captured = capsys.readouterr()
        assert "svg needs an output_path" in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == [path]

    def test_kind_conflict(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "risk", "params": {"a_star": [[1.0]]}}))
        assert main(["bounds", "--config", str(path)]) == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        # finite inputs whose weights (b'u sigma)^2 overflow; a NaN b is a
        # config error
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"params": {"a": [[1e200]], "b": [1e200], "epsilon": 0.5}}))
        assert main(["perturb", "--config", str(path)]) == 3

    @pytest.mark.parametrize("command, params", [
        ("perturb", {"a": [[0.9, 0.2], [0.1, 0.7]], "b": [0.3, -1.2], "epsilon": 1e308}),
        ("risk", {"a_star": [[1e200, 0.0], [0.0, 1.0]]}),
    ], ids=["perturb-gain", "risk-stderr"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_nan_result_is_numerical_failure(self, tmp_path, capsys, command, params):
        # Overflow makes a NaN here; no table holding one is written or printed.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"params": params, "n_samples": 100}))
        out = tmp_path / "res.csv"
        assert main([command, "--config", str(path), "--out", str(out)]) == 3
        assert main([command, "--config", str(path)]) == 3
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == "" and "NaN" in captured.err

    @pytest.mark.parametrize("command, config", [
        pytest.param(*_sized("risk-samples", 10**15), id="risk-samples"),
        pytest.param(*_sized("fig-condition-n", 10**9), id="fig-condition-n"),
        pytest.param(*_sized("pareto-batch", 10**15), id="pareto-batch"),
        pytest.param(*_sized("fig-condition-n", 10**15), id="fig-condition-n-1e15"),
        # past numpy's array limit, where it raises ValueError, not MemoryError
        *(pytest.param(*_sized(case, size), id=f"{case}-{label}")
          for label, size in (("2^62", 2**62), ("2^64", 2**64), ("1e30", 10**30))
          for case in ("risk-samples", "fig-condition-n", "pareto-batch")),
    ])
    def test_memory_beyond_reach_is_config_error(self, tmp_path, capsys, command, config):
        # Each first array needs more than 2^48 bytes, so it fails at once.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main([*command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "more memory than is available" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, params, top", [
        (["kalman"], {"alphas": [0.95]}, {}),
        (["experiment", "fig-observability"], {"alphas": [0.95], "train": {"n_iters": 3}},
         {"lambda_grid": [0.0]}),
        (["experiment", "fig-kf-vs-adv"], {"rhos": [0.5], "train": {"n_iters": 3}}, {}),
    ], ids=["kalman-bounds", "fig-observability", "fig-kf-vs-adv"])
    def test_huge_horizon_is_config_error_before_allocating(self, tmp_path, capsys, command,
                                                            params, top):
        path = tmp_path / "cfg.json"

        def run(horizon):
            path.write_text(json.dumps({"params": dict(params, horizon=horizon),
                                        "n_samples": 10, **top}))
            return main([*command, "--config", str(path)])

        tracemalloc.start()
        try:
            rc = run(10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert rc == 2 and "config error" in err and "Traceback" not in err
        assert peak < 10 * 2**20
        assert run(200) == 0

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("n_samples", True), ("output_path", 7),
        pytest.param("output_path", ["x"], id="output_path-list"), ("svg", "no"),
        # risk sweeps no lambda, so a well-formed grid is still an error
        pytest.param("lambda_grid", [0.0, 1.0], id="lambda_grid-stray"),
        # the chart goes next to the CSV, so it needs an output_path
        pytest.param("svg", True, id="svg-without-output_path"),
    ])
    def test_non_integer_field_is_config_error(self, tmp_path, field, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"params": {"a_star": [[1.0]]}, field: value}))
        assert main(["risk", "--config", str(path)]) == 2

    def test_non_finite_training_epsilon_is_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"params": {"alphas": [0.95], "ks": [0],
                                               "epsilon": float("nan")}}))
        assert main(["experiment", "fig-observability", "--config", str(path)]) == 2

    @pytest.mark.parametrize("train", [
        {"step_c0": "abc"}, {"step_c0": float("nan")}, {"step_c0": float("inf")},
        {"step_c0": -1.0}, {"init": 5}, {"n_iters": float("inf")}, {"n_iters": 2.7},
        {"batch_size": 2.7}, {"step_decay": True},
    ], ids=["c0-str", "c0-nan", "c0-inf", "c0-negative", "init-int", "iters-inf",
            "iters-fraction", "batch-fraction", "decay-bool"])
    def test_malformed_training_block_is_config_error(self, tmp_path, train):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"params": {"a_star": [[1.0]], "train": train}}))
        assert main(["pareto", "--config", str(path)]) == 2

    @pytest.mark.parametrize("grid", [5, ["abc"], [True], [-1.0], [float("nan")],
                                      [-math.inf]],
                             ids=["scalar", "string", "bool", "negative", "nan", "minus-inf"])
    def test_bad_lambda_grid_is_config_error(self, tmp_path, grid):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"params": {"a_star": [[1.0]]}, "lambda_grid": grid}))
        assert main(["pareto", "--config", str(path)]) == 2

    def test_infinite_lambda_accepted(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"params": {"a_star": [[1.0]], "train": {"n_iters": 20}},
                                    "lambda_grid": [0.0, math.inf], "n_samples": 100}))
        assert main(["pareto", "--config", str(path)]) == 0

    @pytest.mark.parametrize("command, params", [
        ("perturb", {"a": [[1.0, 0.0], [0.0, 2.0]], "b": [1.0, 1.0], "epsilon": -1.0}),
        ("perturb", {"a": [[1.0, 0.0], [0.0, 2.0]], "b": [1.0, 1.0], "epsilon": True}),
        ("perturb", {"a": [[1.0, 0.0], [0.0, 2.0]], "b": [1.0, 1.0, 1.0]}),
        # JSON's 1e999 parses to inf, as Infinity does
        ("perturb", {"a": [[1.0, 0.0]], "b": [float("inf")]}),
        ("perturb", {"a": [[float("nan"), 0.0]], "b": [1.0]}),
        ("risk", {"a_star": [[1.0, 0.0], [0.0, 2.0]], "a": [[1.0, 0.0, 0.0]]}),
        ("risk", {"a_star": [[1.0, 0.0], [0.0, 2.0]], "a": [["x"]]}),
        ("risk", {"a_star": [[1.0, 0.0], [0.0, 2.0]], "epsilon": True}),
        ("bounds", {"a_star": [[1.0, 0.0], [0.0, 2.0]], "a": [[1.0, 0.0, 0.0]]}),
        ("bounds", {"a_star": [[1.0, 0.0], [0.0, 2.0]], "a": [["x"]]}),
    ], ids=["perturb-eps-negative", "perturb-eps-bool", "perturb-b-length", "perturb-b-inf",
            "perturb-a-nan", "risk-a-shape",
            "risk-a-string", "risk-eps-bool", "bounds-a-shape", "bounds-a-string"])
    def test_bad_model_and_budget_are_config_errors(self, tmp_path, command, params):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"params": params, "n_samples": 100}))
        assert main([command, "--config", str(path)]) == 2

    def test_overflowing_weights_are_numerical_failure(self, tmp_path, capsys):
        # the true gain is about 2e160; inf weights must not report a gain of 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"params": {"a": [[2.0, 0.0], [0.0, 1.0]],
                                               "b": [1e160, 0.0], "epsilon": 0.5}}))
        out = tmp_path / "res.csv"
        assert main(["perturb", "--config", str(path), "--out", str(out)]) == 3
        assert main(["perturb", "--config", str(path)]) == 3
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == "" and "overflow" in captured.err

    def test_overflowing_newton_point_is_silent(self, tmp_path, capsys):
        # The Newton numerator overflows at the left bracket; the row bisects
        # as designed, so the result is right and no warning reaches stderr.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"params": {"a": [[2.0, 0.0], [0.0, 1.0]],
                                               "b": [1e-150, 1e150], "epsilon": 0.5}}))
        assert main(["perturb", "--config", str(path)]) == 0
        captured = capsys.readouterr()
        row = dict(zip(*(line.split(",") for line in captured.out.splitlines())))
        assert float(row["objective_gain"]) == pytest.approx(1e150)
        assert row["branch_code"] == "0" and captured.err == ""

    @pytest.mark.parametrize("content", [b"[1, 2]", b'"risk"', b'{"seed": "\xff"}'],
                             ids=["array", "string", "not-utf8"])
    def test_config_file_not_an_object_is_config_error(self, tmp_path, content):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        assert main(["risk", "--config", str(path)]) == 2

    def test_unconverged_root_is_numerical_failure(self, tmp_path, monkeypatch):
        monkeypatch.setattr(trs, "MAX_ROOT_ITER", 1)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"params": {"a": [[2.0, 0.0], [0.0, 1.0]], "b": [3.0, 1.0],
                                               "epsilon": 0.5}}))
        assert main(["perturb", "--config", str(path)]) == 3

    @pytest.mark.parametrize("command, params", [
        ("kalman", {"alphas": [0.95], "k": 2.7}),
        ("kalman", {"alphas": [0.95], "k": "abc"}),
        ("kalman", {"alphas": [0.95], "horizon": -1}),
        ("kalman", {"alphas": [0.95], "epsilon": -1.0}),
        ("kalman", {"alphas": [0.95], "epsilon": float("nan")}),
        ("kalman", {"alphas": [0.95, "x"]}),
        ("kalman", {"systems": 5}),
        ("kalman", {"a": [[1.0]], "c": [[1.0]], "horizon": 2.5}),
        ("kalman", {"systems": [{"a": [[1.0]], "c": [[1.0]], "horizon": 2}], "k": 4}),
        ("kalman", {"a": [[float("inf")]], "c": [[1.0]]}),
        ("kalman", {"a": [[1.0]], "c": [[float("nan")]]}),
        ("kalman", {"systems": [dict(_SYSTEM, c=[[float("nan")]])]}),
        ("fig-condition", {"kappas": [0.5]}),
        ("fig-condition", {"kappas": 10.0}),
        ("fig-condition", {"n": 2.5}),
        ("fig-observability", {"ks": [9]}),
        ("fig-observability", {"alphas": [float("inf")]}),
        ("fig-kf-vs-adv", {"k": 6, "horizon": 5}),
        ("fig-kf-vs-adv", {"n_rhos": 0}),
        ("fig-kf-vs-adv", {"rhos": [float("nan")]}),
        ("kalman", {"alphas": [0.95], "systems": [_SYSTEM, dict(_SYSTEM, horizon=3)]}),
        ("kalman", {"alphas": [0.95], "a": [[1.0]], "c": [[1.0]]}),
        ("kalman", {"alphas": [0.95], "c": [[1.0]]}),
        ("kalman", {"systems": [_SYSTEM], "a": [[1.0]], "c": [[1.0]]}),
        ("fig-kf-vs-adv", {"rhos": [0.5], "n_rhos": 4}),
        ("kalman", {"alphas": []}),
        ("kalman", {"systems": []}),
        ("fig-condition", {"kappas": []}),
        ("fig-observability", {"alphas": []}),
        ("fig-observability", {"ks": []}),
        ("fig-kf-vs-adv", {"rhos": []}),
    ], ids=["k-fraction", "k-string", "horizon-negative", "epsilon-negative", "epsilon-nan",
            "alpha-string", "systems-number", "system-horizon-fraction",
            "k-past-system-horizon", "system-a-inf", "system-c-nan", "systems-entry-c-nan",
            "kappa-below-one",
            "kappas-scalar", "n-fraction", "ks-past-horizon", "alpha-inf", "k-past-horizon",
            "n-rhos-zero", "rho-nan", "alphas-with-systems", "alphas-with-top-level-system",
            "alphas-with-top-level-c", "systems-with-top-level-system", "rhos-with-n-rhos",
            "alphas-empty", "systems-empty", "kappas-empty", "observability-alphas-empty",
            "ks-empty", "rhos-empty"])
    def test_bad_figure_and_kalman_params_are_config_errors(self, tmp_path, capsys, command,
                                                            params):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"params": params, "n_samples": 100}))
        argv = [command] if command == "kalman" else ["experiment", command]
        assert main(argv + ["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, params", [
        ("perturb", {"a": [[1.0]], "b": [1.0], "eps": 0.1}),
        ("risk", {"a_star": [[1.0]], "epsilom": 0.1}),
        ("bounds", {"a_star": [[1.0]], "train": {}}),
        ("pareto", {"a_star": [[1.0]], "train": {"n_iter": 5}}),
        ("kalman", {"systems": [{"a": [[1.0]], "c": [[1.0]], "horizn": 2}]}),
        ("kalman", {"systems": [5]}),
        ("fig-condition", {"kappa": [1.0]}),
        ("fig-observability", {"k": 0}),
        ("fig-kf-vs-adv", {"rho": [0.5]}),
    ], ids=["perturb", "risk", "bounds-train", "train", "systems-entry", "systems-entry-number",
            "fig-condition", "fig-observability", "fig-kf-vs-adv"])
    def test_unknown_param_key_is_config_error(self, tmp_path, capsys, command, params):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"params": params, "n_samples": 100}))
        argv = ["experiment", command] if command.startswith("fig-") else [command]
        assert main(argv + ["--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_integral_float_params_accepted(self):
        def rows(params):
            config = ExperimentConfig(kind="kalman-bounds", n_samples=200, params=params)
            return run_experiment(config).rows

        assert rows({"alphas": [0.95], "k": 3.0, "horizon": 4.0}) == rows(
            {"alphas": [0.95], "k": 3, "horizon": 4})

    def test_flag_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "params": {"a_star": [[1.0]], "epsilon": 0.5}, "seed": 1, "n_samples": 50}))
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(["risk", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["risk", "--config", str(cfg_path), "--seed", "2", "--samples", "60",
                     "--out", str(out2)]) == 0
        m1, m2 = (out.read_text().splitlines()[:2] for out in (out1, out2))
        assert m1[0] == "# seed=1" and m2[0] == "# seed=2"
        assert m1[1].startswith("# config_hash=") and m1[1] != m2[1]

    @pytest.mark.parametrize("params, code, shown", [
        ({"a": [[1e200, 0.0], [0.0, 1.0]], "b": [1e-300, 2.0], "epsilon": 0.5}, 0, "inf,inf"),
        ({"a": [[1.0, 0.0], [0.0, 1.0]], "b": [1.0, 2.0], "epsilon": 1e160}, 3, "NaN"),
    ], ids=["infinite-gain", "nan-gain"])
    def test_overflow_in_the_solve_warns_nothing(self, tmp_path, params, code, shown):
        # an infinite gain is reported, a NaN one is a numerical failure;
        # neither prints a RuntimeWarning
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"params": params}))
        proc = subprocess.run(
            [sys.executable, "-m", "advrisk", "perturb", "--config", str(cfg_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == code, proc.stderr
        assert shown in proc.stdout + proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize("kind, params, shown", [
        # standard_risk_closed and the ||b||^2 column overflow, then the solve
        ("risk", {"a_star": [[1e200, 0.0], [0.0, 1.0]], "a": [[1.0, 0.0], [0.0, 1.0]]},
         "weights overflow"),
        # ||b||^2, A'b, the standard error and lambda_max overflow, then the solve
        ("bounds", {"a_star": [[1.0, 0.0], [0.0, 1.0]], "a": [[1e160, 0.0], [0.0, 1.0]]},
         "weights overflow"),
        # infinite gains: their standard error is NaN
        ("risk", {"a_star": [[1e200, 0.0], [0.0, 1.0]]}, "NaN in ar_stderr"),
        # lambda_max and the closed-form bound at A* overflow as well
        ("bounds", {"a_star": [[1e200, 0.0], [0.0, 1.0]]}, "NaN in gap_stderr"),
    ], ids=["risk-model", "bounds-model", "risk-a-star", "bounds-a-star"])
    def test_overflow_in_the_monte_carlo_warns_nothing(self, tmp_path, capsys, kind, params,
                                                         shown):
        # the suite turns a RuntimeWarning into an error, so a warning fails
        # main here before its exit code 3
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"params": dict(params, epsilon=0.5), "n_samples": 64}))
        assert main([kind, "--config", str(cfg_path), "--out", str(tmp_path / "out.csv")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and shown in err

    @pytest.mark.parametrize("command, params, code, shown", [
        # the powers of A overflow: the gramian is the first to see it
        (["kalman"], {"a": [[1e308, 1e308], [1e308, 1e308]], "c": [[1.0, 0.0]]}, 3,
         "observability gramian overflows"),
        # A^t stays finite, but the gramian (t rho)^2 and G_yy do not
        (["experiment", "fig-kf-vs-adv"], {"rhos": [1e200]}, 3,
         "observability gramian overflows"),
        # the upper bound is inf; the Monte Carlo risk is NaN
        (["kalman"], {"alphas": [0.9], "epsilon": 1e308}, 3, "NaN in ar_mean"),
        # the lower bounds overflow: a bound of inf would claim too much
        (["kalman"], {"alphas": [0.9], "epsilon": 1.7e308}, 3, "overflow"),
        (["kalman"], {"a": [[1e100]], "c": [[1e-200]], "sigma0": [[1e-300]], "horizon": 2}, 3,
         "kalman_gap_lower_bound overflows"),
        # the bound's denominator overflows: an infinite one would make the
        # bound 0
        (["kalman"], {"a": [[1.0]], "c": [[1.0]], "sigma_w": [[1e307]]}, 3,
         "kalman_gap_lower_bound overflows"),
        # the closed-form SR is inf; the residuals overflow the solve
        (["kalman"], {"a": [[1e100]], "c": [[1e-200]], "horizon": 2}, 3, "weights overflow"),
        (["kalman"], {"a": [[1.0]], "c": [[1.0]], "sigma0": [[1e308]]}, 2,
         "sigma0 has entries too large to symmetrize"),
    ], ids=["dynamics", "shear", "epsilon", "epsilon-max", "lower-bound",
            "lower-bound-denominator", "standard-risk", "sigma0"])
    def test_overflow_in_the_kalman_layer_warns_nothing(self, tmp_path, capsys, command, params,
                                                          code, shown):
        # as in the Monte Carlo: the suite turns a RuntimeWarning into an error
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"params": params, "n_samples": 64}))
        assert main([*command, "--config", str(cfg_path)]) == code
        assert shown in capsys.readouterr().err

    @pytest.mark.parametrize("command, config", [
        (["pareto"], {"params": {"a_star": [[1.0, 0.2], [0.0, 0.8]], "epsilon": 1.7e308},
                      "lambda_grid": [0, 1]}),
        (["experiment", "fig-kf-vs-adv"], {"params": {"epsilon": 1.7e308}}),
    ], ids=["pareto", "fig-kf-vs-adv"])
    def test_overflow_in_training_warns_nothing(self, tmp_path, capsys, command, config):
        # the first AR step's gradient overflows; the divergence check, not a
        # RuntimeWarning (an error in this suite), reports it
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(config, n_samples=64)))
        assert main([*command, "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "iterate norm nan" in err
        # the step size did not overflow the gradient, the budget did
        assert "reduce epsilon=1.700e+308" in err and "step_c0" not in err

    @pytest.mark.parametrize("kappa", [1.4e154, 1e308])
    def test_kappa_whose_diagonal_norm_overflows_is_a_config_error(self, tmp_path, capsys,
                                                                    kappa):
        # the norm of geomspace(kappa, 1, n) overflows to inf, and dividing by
        # it would make A* = 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"params": {"kappas": [kappa]}}))
        assert main(["experiment", "fig-condition", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "1.341e+154" in err

    def test_module_entry_point(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"params": {"a": [[2.0]], "b": [3.0],
                                                   "epsilon": 0.5}}))
        proc = subprocess.run(
            [sys.executable, "-m", "advrisk", "perturb", "--config", str(cfg_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "objective_gain" in proc.stdout

    def test_experiment_subcommand_runs(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "params": {"rhos": [0.5], "k": 0, "epsilon": 0.5,
                       "train": {"n_iters": 60, "batch_size": 8}},
            "n_samples": 400, "seed": 3,
        }))
        out = tmp_path / "fig.csv"
        rc = main(["experiment", "fig-kf-vs-adv", "--config", str(cfg_path),
                   "--out", str(out), "--svg"])
        assert rc == 0
        header = next(line for line in out.read_text().splitlines() if not line.startswith("#"))
        assert "ar_kf_mean" in header.split(",") and "ar_adv_mean" in header.split(",")
        assert (tmp_path / "fig.svg").exists()


# Valid tiny configs, one per kind: every size that sets the run time is small.
_TINY_TRAIN = {"n_iters": 3, "batch_size": 4}
_TINY_PROBLEM = {"a_star": [[1.0, 0.3], [0.0, 0.8]], "a": [[0.9, 0.2], [0.1, 0.7]],
                 "epsilon": 0.5}
_TINY = {
    "perturb": {"params": {"a": [[2.0, 0.1], [0.0, 1.0]], "b": [0.3, -1.0], "epsilon": 0.5}},
    "risk": {"params": _TINY_PROBLEM},
    "bounds": {"params": _TINY_PROBLEM},
    "pareto": {"params": {"a_star": [[1.0, 0.3], [0.0, 0.8]], "epsilon": 0.5,
                          "train": _TINY_TRAIN}},
    "kalman-bounds": {"params": {"alphas": [0.95, 0.99], "k": 1, "horizon": 2,
                                 "epsilon": 0.5}},
    "fig-condition": {"params": {"kappas": [1.0, 10.0], "n": 2, "epsilon": 0.5,
                                 "train": _TINY_TRAIN}},
    "fig-observability": {"params": {"alphas": [0.95, 0.99], "ks": [0, 2], "horizon": 2,
                                     "epsilon": 0.5, "train": _TINY_TRAIN}},
    "fig-kf-vs-adv": {"params": {"rhos": [0.5, 1.0], "k": 0, "horizon": 2, "epsilon": 0.5,
                                 "train": _TINY_TRAIN}},
}
_COMMAND = {kind: ["kalman"] if kind == "kalman-bounds" else
            ["experiment", kind] if kind.startswith("fig-") else [kind] for kind in _TINY}
# Values that are wrong for most keys.  None of them is a large finite
# integral number: one such in n_iters or n_rhos would be a valid, endless run.
_BAD = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.builds(dict),
    st.sampled_from([math.nan, math.inf, -math.inf, -1, -2.5, 0, 0.5, 2.5, 1e-300]),
    st.lists(st.sampled_from([0, 1, -1, 0.5, math.nan, math.inf, "x"]), max_size=2),
)
# Sizes far past any memory: the first array they ask for fails at once.
_HUGE = st.sampled_from([10**15, 2**62, 2**64, 10**30])
_SIZE_KEYS = {"n_samples", "n", "horizon", "batch_size"}
_GRIDS = st.sampled_from([[], [1.0, 0.0], [math.inf, 0.0], [math.nan], [0.0, -1.0], "x"])


def _corruptions(kind):
    """``(where, key, value)``: ``where`` is "top", "params" or "train"."""
    keys = [("top", key) for key in ("seed", "n_samples", "lambda_grid", "output_path", "svg")]
    keys += [("params", key) for key in sorted(_TINY[kind]["params"])]
    keys += [("train", key) for key in sorted(_TINY_TRAIN) if "train" in _TINY[kind]["params"]]

    def values(where_key):
        where, key = where_key
        if key == "lambda_grid":
            return st.one_of(_GRIDS, _BAD)
        if key == "output_path":  # never a string: the run must write no file
            return _BAD.filter(lambda v: not isinstance(v, str))
        return st.one_of(_HUGE, _BAD) if key in _SIZE_KEYS else _BAD

    return st.lists(st.sampled_from(keys).flatmap(
        lambda wk: st.tuples(st.just(wk[0]), st.just(wk[1]), values(wk))), max_size=2)


# Corrupt values may overflow on purpose; what is checked is the exit code.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), kind=st.sampled_from(sorted(_TINY)))
def test_fuzzed_configs_exit_cleanly(tmp_path, capsys, data, kind):
    config = json.loads(json.dumps(_TINY[kind]))
    config.update(seed=1, n_samples=64)
    if kind in _SWEEPING_KINDS:
        config["lambda_grid"] = [0.0, 0.3, math.inf]
    for where, key, value in data.draw(_corruptions(kind)):
        target = {"top": config, "params": config["params"],
                  "train": config["params"].get("train")}[where]
        if isinstance(target, dict):  # a corrupted train block takes no keys
            target[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main([*_COMMAND[kind], "--config", str(path)]) in (0, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err
